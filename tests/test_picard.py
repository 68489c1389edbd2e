import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bincurve.curve import normalize_at, random_curve, standard_curve
from bincurve.fields import PrimeField
from bincurve.picard import (Ell0, Stratum, balanced_set, closure_leq,
                             enumerate_strata, h0_bar, is_balanced,
                             normalized_strata, picard_type, strata_to_json,
                             strict_set)
from bincurve.rng import Rng

F7 = PrimeField(7)


def test_integer_tests_match_the_fraction_interval():
    # reference: both parts in the closed interval [(d-g-1)/2, (d+g+1)/2]
    # with exact Fraction ends, strict balance in the open one, the
    # degeneration type where the ends are integers
    for g in range(-1, 13):
        for d in range(-30, 40):
            lo, hi = Fraction(d - g - 1, 2), Fraction(d + g + 1, 2)
            integral = lo.denominator == 1
            assert balanced_set(d, g) == [
                (d1, d - d1)
                for d1 in range(math.ceil(lo), math.floor(hi) + 1)], (g, d)
            assert strict_set(d, g) == [
                (d1, d - d1)
                for d1 in range(math.floor(lo) + 1, math.ceil(hi))], (g, d)
            assert picard_type(d, g) == ("degeneration" if integral
                                         else "neron"), (g, d)
            for d1 in range(d - g - 6, g + 7):
                md = (d1, d - d1)
                assert is_balanced(md, g) == all(lo <= di <= hi
                                                 for di in md), (g, md)
            if integral:
                assert h0_bar(Ell0(d, g)) == 2 * max(0, int(lo) + 1), (g, d)
            else:
                with pytest.raises(ValueError):
                    Ell0(d, g)


def test_balanced_sets_frozen_small_cases():
    assert balanced_set(2, 3) == [(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1)]
    assert strict_set(2, 3) == [(0, 2), (1, 1), (2, 0)]
    assert balanced_set(2, 2) == [(0, 2), (1, 1), (2, 0)]
    # N-type: open and closed intervals grab the same integers
    assert strict_set(2, 2) == balanced_set(2, 2)
    assert balanced_set(0, 1) == [(-1, 1), (0, 0), (1, -1)]
    assert balanced_set(-1, 0) == [(-1, 0), (0, -1)]


def test_balance_predicates_match_sets():
    for d, g in ((2, 3), (3, 3), (1, 2), (4, 4)):
        allowed = set(balanced_set(d, g))
        for d1 in range(-4, d + 5):
            md = (d1, d - d1)
            assert is_balanced(md, g) == (md in allowed)
    # enumerate_strata takes strict_set in both Picard types because with
    # half-integer bounds balanced equals strictly balanced
    for g in range(8):
        for d in range(-8, 3 * g + 4):
            if picard_type(d, g) == "neron":
                assert strict_set(d, g) == balanced_set(d, g), (d, g)


def test_picard_type_parity():
    assert picard_type(2, 2) == "neron"
    assert picard_type(1, 2) == "degeneration"
    assert picard_type(3, 2) == "degeneration"   # m = 0 integral
    assert picard_type(2, 3) == "degeneration"
    assert picard_type(3, 3) == "neron"


def test_strata_count_g2_d2():
    X = standard_curve(2, F7)
    strata = enumerate_strata(X, 2)
    assert len(strata) == 12
    assert all(isinstance(s, Stratum) for s in strata)
    # e = 0: 3 interior mds; e = 1: 3 nodes x 2 mds; e = 2: 3 pairs x 1 md
    by_e = {}
    for s in strata:
        by_e.setdefault(len(s.S), []).append(s)
    assert {e: len(v) for e, v in by_e.items()} == {0: 3, 1: 6, 2: 3}
    for s in strata:
        assert s.dim == 2 - len(s.S)
        assert is_balanced(s.md, 2 - len(s.S))


def test_strata_degeneration_type_has_ell0_last():
    X = standard_curve(2, F7)
    strata = enumerate_strata(X, 1)
    assert isinstance(strata[-1], Ell0)
    assert sum(isinstance(s, Ell0) for s in strata) == 1
    assert len(strata) == 6  # 2 + 3x1 + 0 + ell0
    # oracle: every balanced multidegree on each Y_S in the Neron type,
    # only the strictly balanced ones in the degeneration type, with the
    # identified point last
    for g in range(2, 7):
        X = standard_curve(g, PrimeField(11))
        for d in range(-6, 3 * g + 4):
            dtype = picard_type(d, g) == "degeneration"
            pick = strict_set if dtype else balanced_set
            oracle = [Stratum(S, md, g - e)
                      for e in range(g + 1)
                      for S in combinations(range(g + 1), e)
                      for md in pick(d - e, g - e)]
            if dtype:
                oracle.append(Ell0(d, g))
            assert enumerate_strata(X, d) == oracle, (g, d)


def test_type_is_preserved_under_normalization():
    # m(d-e, g-e) = m(d, g): one-node normalizations inherit N/D-type
    for d in range(-1, 6):
        for g in (2, 3, 4):
            t = picard_type(d, g)
            for e in range(1, g):
                assert picard_type(d - e, g - e) == t


def test_closure_leq_is_partial_order_on_emitted_keys():
    X = standard_curve(3, F7)
    for d in (1, 2, 3):
        keys = [s for s in enumerate_strata(X, d) if isinstance(s, Stratum)]
        for a in keys:
            assert closure_leq(a, a)
            for b in keys:
                if closure_leq(a, b) and closure_leq(b, a):
                    assert a == b
                for c in keys:
                    if closure_leq(a, b) and closure_leq(b, c):
                        assert closure_leq(a, c)


def test_closure_examples():
    # closure_leq(a, b): b lies in the closure of a, i.e. b separates more
    # nodes and its multidegree drops coordinatewise
    X = standard_curve(2, F7)
    strata = {(s.S, s.md): s for s in enumerate_strata(X, 2)}
    interior = strata[((), (1, 1))]
    deeper = strata[((0,), (0, 1))]
    assert closure_leq(interior, deeper)
    assert not closure_leq(deeper, interior)
    other = strata[((), (0, 2))]
    sideways = strata[((0,), (1, 0))]
    assert not closure_leq(other, sideways)


def test_h0_bar_identified_point():
    assert h0_bar(Ell0(1, 2)) == 0   # m = -1
    assert h0_bar(Ell0(3, 2)) == 2   # m = 0
    assert h0_bar(Ell0(3, 4)) == 0   # m = -1
    assert h0_bar(Ell0(5, 2)) == 4   # m = 1
    with pytest.raises(ValueError):
        Ell0(2, 2)                   # m not integral: N-type has no such point


@pytest.mark.parametrize("g", [2, 3, 4])
def test_normalized_strata_walk(g):
    X = random_curve(g, PrimeField(11), Rng(40 + g))
    for d in range(1, 5):   # both Picard types
        walk = list(normalized_strata(X, d))
        assert [s for s, _ in walk] == [s for s in enumerate_strata(X, d)
                                        if not isinstance(s, Ell0)]
        curves = {}
        for s, Y in walk:
            assert curves.setdefault(s.S, Y) is Y   # one Y_S per node subset
            assert Y.genus == s.dim
            assert Y.nodes == normalize_at(X, s.S)[0].nodes


def test_strata_json_shape():
    X = standard_curve(2, F7)
    items = strata_to_json(enumerate_strata(X, 1))
    assert items[-1] == {"ell0": True}
    assert {"S": [], "md": [0, 1], "dim": 2} in items
    for it in items[:-1]:
        assert set(it) == {"S", "md", "dim"}
