import pytest
from hypothesis import given
from hypothesis import strategies as st

from bincurve.bundles import canonical_bundle
from bincurve.cohomology import h0
from bincurve.curve import (BinaryCurve, MoebiusMap, ProjPoint,
                            is_hyperelliptic_fast, moebius_through,
                            normalize_at, random_curve,
                            random_hyperelliptic_curve, random_moebius,
                            standard_curve)
from bincurve.fields import PrimeField, Rationals
from bincurve.rng import Rng

F7 = PrimeField(7)
F11 = PrimeField(11)


def pt(ctx, v):
    return ProjPoint.infinity(ctx) if v == "oo" else ProjPoint.finite(ctx, ctx.from_int(v))


def curve(ctx, pairs):
    return BinaryCurve(ctx, [(pt(ctx, a), pt(ctx, b)) for a, b in pairs])


def test_proj_point_normal_forms():
    a = ProjPoint.normalized(F7, 3, 5)          # (3:5) -> (3/5 : 1)
    assert not a.is_infinity() and a.b == 1 and a.a == F7.div(3, 5)
    i = ProjPoint.normalized(F7, 4, 0)
    assert i.is_infinity() and (i.a, i.b) == (1, 0)
    with pytest.raises(ValueError):
        ProjPoint.normalized(F7, 0, 0)


def test_genus_counts_nodes():
    assert curve(F7, [("oo", "oo")]).genus == 0
    assert curve(F7, [(0, 0), (1, 1), ("oo", "oo")]).genus == 2
    assert standard_curve(4, F11).genus == 4
    # genus 0: the one node (oo, oo), the empty suite's first fixture
    assert standard_curve(0, F7).same_curve(curve(F7, [("oo", "oo")]))


def test_nodes_must_be_distinct_per_side():
    with pytest.raises(ValueError):
        curve(F7, [(0, 0), (0, 1)])     # repeated on side 1
    with pytest.raises(ValueError):
        curve(F7, [(0, 5), (1, 5)])     # repeated on side 2
    curve(F7, [(0, 5), (5, 0)])         # same value on different sides is fine


def test_branch_and_smooth_points_partition_the_line():
    X = standard_curve(2, F7)
    for comp in (1, 2):
        br = X.branch_points(comp)
        sm = X.smooth_points(comp)
        assert len(br) + len(sm) == 8  # |P^1(F_7)| = 8
        assert not set(map(str, br)) & set(map(str, sm))


def test_json_round_trip():
    X = curve(F7, [(0, 3), (2, "oo"), ("oo", 5)])
    Y = BinaryCurve.from_json(X.to_json())
    assert X.same_curve(Y)
    XQ = standard_curve(3, Rationals())
    assert XQ.same_curve(BinaryCurve.from_json(XQ.to_json()))


def test_normalize_at_drops_genus_and_returns_pairs():
    X = standard_curve(3, F7)
    Y, removed = normalize_at(X, [1, 3])
    assert Y.genus == 1
    assert len(removed) == 2
    assert removed[0] == X.nodes[1] and removed[1] == X.nodes[3]
    with pytest.raises(ValueError):
        normalize_at(X, [5])


def test_moebius_through_prescribed_points():
    a = [pt(F7, 0), pt(F7, 1), pt(F7, "oo")]
    b = [pt(F7, 2), pt(F7, 3), pt(F7, 5)]
    M = moebius_through(*a, *b, F7)
    for x, y in zip(a, b):
        assert M.apply(x) == y


def test_moebius_inverse_and_compose():
    M = MoebiusMap(F7, 2, 1, 3, 4)
    N = M.inverse()
    identity = MoebiusMap(F7, 1, 0, 0, 1)
    assert M.compose(N) == identity and N.compose(M) == identity
    P = MoebiusMap(F7, 1, 1, 0, 1)
    x = pt(F7, 4)
    assert M.compose(P).apply(x) == M.apply(P.apply(x))


@given(st.integers(0, 10 ** 6))
def test_apply_with_scale_consistency(seed):
    rng = Rng(seed)
    M = random_moebius(F11, rng)
    x = ProjPoint.normalized(F11, rng.below(11), rng.below(11) or 1)
    img, mu = M.apply_with_scale(x)
    raw = M.apply_raw(x)
    # raw result equals mu times the normalized image, coordinate-wise
    assert raw[0] == F11.mul(mu, img.a) and raw[1] == F11.mul(mu, img.b)


def test_random_curve_is_valid_and_deterministic():
    X = random_curve(4, F11, Rng(5))
    Y = random_curve(4, F11, Rng(5))
    assert X.genus == 4 and X.same_curve(Y)
    assert not X.same_curve(random_curve(4, F11, Rng(6)))
    with pytest.raises(ValueError):
        random_curve(6, PrimeField(5), Rng(1))   # needs p >= g


@pytest.mark.parametrize("g,p", [(5, 5), (5, 7)])
def test_random_curve_at_small_primes(g, p):
    # g-2 free nodes per side come from the p-2 values {2, ..., p-1}
    X = random_curve(g, PrimeField(p), Rng(3))
    assert X.genus == g
    assert h0(canonical_bundle(X)) == g


def test_standard_curve_is_hyperelliptic():
    for g in (2, 3, 4):
        X = standard_curve(g, F11)
        flag, psi = is_hyperelliptic_fast(X)
        assert flag and psi == MoebiusMap(F11, 1, 0, 0, 1)


def test_constructed_hyperelliptic_detected_with_its_map():
    X = random_hyperelliptic_curve(3, F11, Rng(8))
    flag, psi = is_hyperelliptic_fast(X)
    assert flag
    for p, q in X.nodes:
        assert psi.apply(p) == q


def test_generic_curve_is_not_hyperelliptic():
    # one permuted pair on one side breaks the single matching map
    X = curve(F11, [(0, 0), (1, 1), (2, 3), (3, 2), ("oo", "oo")])
    flag, psi = is_hyperelliptic_fast(X)
    assert not flag and psi is None


def hyperelliptic_witness_node(X):
    """Smallest node whose one-node normalization is not hyperelliptic,
    or None."""
    for j in range(len(X.nodes)):
        Y, _ = normalize_at(X, [j])
        if not is_hyperelliptic_fast(Y)[0]:
            return j
    return None


def test_hyperelliptic_witness_node():
    # every non-hyperelliptic curve of genus >= 4 keeps a node whose
    # one-node normalization is not hyperelliptic
    curves = [curve(F11, [(0, 0), (1, 1), (2, 3), (3, 2), ("oo", "oo")])]
    rng = Rng(1)
    for g, p in ((4, 7), (4, 11), (5, 11), (6, 11)):
        draws = [random_curve(g, PrimeField(p), rng.spawn())
                 for _ in range(100)]
        curves += [X for X in draws if not is_hyperelliptic_fast(X)[0]]
    assert len(curves) > 300
    for X in curves:
        j = hyperelliptic_witness_node(X)
        assert j is not None, X.to_json()
        Y, _ = normalize_at(X, [j])
        assert not is_hyperelliptic_fast(Y)[0]
