import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincurve.bundles import (EffectiveDivisor, LineBundle, apply_moebius,
                              bundle_at, bundle_count, bundle_from_json,
                              canonical_bundle, dual, enumerate_bundles,
                              from_divisor, hyperelliptic_class, power,
                              restrict_to_normalization, tensor, trivial)
from bincurve.brill_noether import torus_h0
from bincurve.cohomology import h0, h0_vanishing, point_divisor
from bincurve.curve import (BinaryCurve, MoebiusMap, ProjPoint,
                            is_hyperelliptic_fast, random_curve,
                            random_hyperelliptic_curve, random_moebius,
                            standard_curve)
from bincurve.fields import PrimeField, Rationals
from bincurve.rng import Rng

F5 = PrimeField(5)
F7 = PrimeField(7)
F11 = PrimeField(11)
F13 = PrimeField(13)


def random_bundle(X, md, rng):
    """A class of multidegree md with seeded random gluing units."""
    units = X.ctx.units()
    c = [rng.choice(units) for _ in range(max(X.genus, 0))]
    c.append(X.ctx.one)
    return LineBundle(X, md, c)


def test_gluing_canonicalized_to_last_coordinate_one():
    X = standard_curve(2, F7)
    L = LineBundle(X, (1, 0), [2, 3, 4])
    assert L.c[-1] == F7.one
    assert L.c == (F7.div(2, 4), F7.div(3, 4), 1)
    # scaling the whole vector is the same bundle
    assert L == LineBundle(X, (1, 0), [4, 6, 1])


def test_gluing_must_be_units():
    X = standard_curve(2, F7)
    with pytest.raises(ValueError):
        LineBundle(X, (0, 0), [0, 1, 1])
    with pytest.raises(ValueError):
        LineBundle(X, (0, 0), [1, 1])      # wrong length


def test_gluing_coordinates_reduce_into_the_field():
    X = standard_curve(2, F7)
    # over F_p a multiple of p is zero, even in a vector already ending in 1
    for c in ([7, 3, 1], [2, 3, 14], [0, 3, 1], [2, 3, 0]):
        with pytest.raises(ValueError, match="units"):
            LineBundle(X, (1, 1), c)
    # an unreduced unit is the same class as its residue
    assert LineBundle(X, (1, 1), [8, 3, 1]) == LineBundle(X, (1, 1), [1, 3, 1])
    assert LineBundle(X, (1, 1), [8, -4, 15]).c == (1, 3, 1)
    Q = Rationals()
    Y = standard_curve(2, Q)
    for c in ([0, 3, 1], [2, 3, 0], [Fraction(0), 1, 1]):
        with pytest.raises(ValueError, match="units"):
            LineBundle(Y, (1, 1), c)
    # ints are taken into Q; a vector ending in 1 keeps its values
    L = LineBundle(Y, (1, 1), [2, Fraction(1, 3), 1])
    assert L.c == (2, Fraction(1, 3), 1)
    assert all(type(x) is Fraction for x in L.c)
    assert LineBundle(Y, (1, 1), [4, Fraction(2, 3), 2]) == L


def test_trivial_tensor_dual_power():
    X = standard_curve(2, F7)
    O = trivial(X)
    L = LineBundle(X, (2, 1), [3, 5, 1])
    assert tensor(L, O) == L
    assert tensor(L, dual(L)) == O
    assert power(L, 3).md == (6, 3)
    assert power(L, -2) == dual(power(L, 2))
    assert dual(L).md == (-2, -1)
    # rescaling the gluing vector is an isomorphism, i.e. the same class
    assert LineBundle(X, (2, 1), [F7.mul(3, x) for x in L.c]) == L


def test_enumeration_is_complete_and_ordered():
    X = standard_curve(2, F7)
    all_bundles = list(enumerate_bundles(X, (1, 1)))
    assert len(all_bundles) == bundle_count(X) == 36
    assert len(set(all_bundles)) == 36
    for i, L in enumerate(all_bundles):
        assert bundle_at(X, (1, 1), i) == L
    assert all_bundles[0].c == (1, 1, 1)


def test_bundles_on_different_curves_differ():
    X = standard_curve(2, F7)
    Y = standard_curve(2, F11)
    assert trivial(X) != trivial(Y)
    with pytest.raises(ValueError):
        tensor(trivial(X), trivial(Y))


def test_bundle_json_round_trip():
    X = random_curve(3, F11, Rng(2))
    L = random_bundle(X, (2, 1), Rng(3))
    obj = L.to_json()
    assert bundle_from_json(X, obj) == L


def test_divisor_validation():
    X = standard_curve(2, F7)
    node_pt = ProjPoint.finite(F7, 0)
    with pytest.raises(ValueError):
        EffectiveDivisor(X, [(1, node_pt, 1)])        # node, not smooth
    with pytest.raises(ValueError):
        EffectiveDivisor(X, [(1, ProjPoint.finite(F7, 3), 0)])
    D = EffectiveDivisor(X, [(1, ProjPoint.finite(F7, 3), 2),
                             (2, ProjPoint.finite(F7, 5), 1)])
    assert D.multidegree == (2, 1) and D.degree == 3
    S = D + EffectiveDivisor(X, [(1, ProjPoint.finite(F7, 3), 1)])
    assert S.multidegree == (3, 1)


def test_divisor_merges_repeated_points():
    X = standard_curve(2, F7)
    a, b = ProjPoint.finite(F7, 3), ProjPoint.finite(F7, 5)
    # a repeated point adds into its first entry, in order of appearance
    D = EffectiveDivisor(X, [(1, a, 1), (2, b, 1), (1, a, 2)])
    assert D.entries == ((1, a, 3), (2, b, 1))
    assert (D + D).entries == ((1, a, 6), (2, b, 2))
    # the same point on the other component is another point
    E = EffectiveDivisor(X, [(1, a, 1), (2, a, 1)])
    assert E.entries == ((1, a, 1), (2, a, 1))


def test_from_divisor_has_section_and_right_degree():
    X = random_curve(3, F11, Rng(4))
    smooth1 = X.smooth_points(1)
    smooth2 = X.smooth_points(2)
    inf2 = [q for q in smooth2 if q.is_infinity()]
    q2 = inf2[0] if inf2 else smooth2[0]   # exercise infinity when available
    D = EffectiveDivisor(X, [(1, smooth1[0], 1), (2, q2, 2)])
    L = from_divisor(X, D)
    assert L.md == (1, 2)
    assert h0(L) >= 1


def _points_of_line(ctx):
    return [ProjPoint.finite(ctx, a) for a in range(ctx.p)] + [
        ProjPoint.infinity(ctx)]


def _curve_from_sides(ctx, g, rng, avoid=(None, None)):
    # g+1 random branch points per side, drawn from all of P^1(F_p) except
    # the side's `avoid` point, so infinity lands on either side or both
    sides = []
    for skip in avoid:
        pool = [pt for pt in _points_of_line(ctx) if pt != skip]
        sides.append(rng.distinct(pool, g + 1))
    return BinaryCurve(ctx, list(zip(*sides)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_from_divisor_infinity_agrees_with_finite_formula(seed):
    # a divisor through infinity, moved by random coordinate changes, gives
    # the transported class; and O(D)(-D) = O_X has exactly one section
    rng = Rng(seed)
    ctx = rng.choice([F11, F13])   # p > 8 >= d_i + 1 for the derivative rows
    g = rng.below(4)
    inf = ProjPoint.infinity(ctx)
    at_inf = 1 + rng.below(2)            # component carrying a point at oo
    X = _curve_from_sides(ctx, g, rng,
                          avoid=(inf, None) if at_inf == 1 else (None, inf))
    entries = [(at_inf, inf, 1 + rng.below(3))]
    for comp in (1, 2):
        pool = [pt for pt in X.smooth_points(comp) if pt != inf]
        for pt in rng.distinct(pool, rng.below(3)):
            entries.append((comp, pt, 1 + rng.below(2)))
    D = EffectiveDivisor(X, entries)
    L = from_divisor(X, D)
    assert h0_vanishing(L, D) == 1

    M1, M2 = random_moebius(ctx, rng), random_moebius(ctx, rng)
    Lm = apply_moebius(L, M1, M2)
    Dm = EffectiveDivisor(Lm.curve, [
        (comp, (M1 if comp == 1 else M2).apply(pt), m)
        for comp, pt, m in D.entries])
    assert from_divisor(Lm.curve, Dm) == Lm


def test_canonical_bundle_degree_and_sections():
    # at g = 0, one node: the residue products are empty, so c = (-1), which
    # is (1) in canonical form; genus -1 (no node) is refused
    for ctx in (F7, F11, Rationals()):
        for g in (0, 1, 2, 3):
            X = standard_curve(g, ctx)
            w = canonical_bundle(X)
            assert w.md == (g - 1, g - 1)
            assert h0(w) == g
            assert g > 0 or w.c == (ctx.one,)
    X = random_curve(4, F11, Rng(9))
    assert h0(canonical_bundle(X)) == 4
    with pytest.raises(ValueError, match="needs g >= 0"):
        canonical_bundle(BinaryCurve(F7, []))


def test_canonical_bundle_when_branch_points_fill_the_line():
    # g = p: each side's branch points are all of P^1(F_p), so no Moebius
    # map can move infinity to a free coordinate; the residue formula needs
    # none, and its class is the only one of md (g-1, g-1) with h0 >= g
    for ctx, seed in ((F5, 1), (F5, 2), (F7, 3)):
        g = ctx.p
        X = _curve_from_sides(ctx, g, Rng(seed))
        w = canonical_bundle(X)
        assert w.md == (g - 1, g - 1) and h0(w) == g
        hits = [c for c, _ in torus_h0(X, w.md, at_least=g)]
        assert hits == [w.c]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_canonical_bundle_is_moebius_equivariant(seed):
    # infinity among the branch points on either side, before or after the
    # move: transporting omega_X gives omega of the moved curve
    rng = Rng(seed)
    ctx = rng.choice([F7, F11])
    X = _curve_from_sides(ctx, 1 + rng.below(5), rng)
    w = canonical_bundle(X)
    wm = apply_moebius(w, random_moebius(ctx, rng), random_moebius(ctx, rng))
    assert canonical_bundle(wm.curve) == wm


def test_hyperelliptic_class_has_two_sections():
    X = standard_curve(3, F11)
    H = hyperelliptic_class(X)
    assert H.md == (1, 1)
    assert h0(H) == 2


def test_hyperelliptic_class_squares_to_canonical_when_g3():
    # g = 3: w has degree (2,2) = 2 * (1,1) and h0(H^2) = 3 = g; on a
    # hyperelliptic curve the canonical class is the (g-1)-st power of H
    X = standard_curve(3, F11)
    H = hyperelliptic_class(X)
    w = canonical_bundle(X)
    assert power(H, 2) == w


@pytest.mark.parametrize("fn,message", [
    (canonical_bundle, "canonical bundle sanity check failed: h0 = 4 != 3"),
    (hyperelliptic_class,
     "hyperelliptic class sanity check failed: h0 = 3 != 2")],
    ids=["canonical_bundle", "hyperelliptic_class"])
def test_sanity_raises_when_h0_disagrees(monkeypatch, fn, message):
    """A planted fault: a generic h0 one too high, so omega or H seems to
    have one section more than it has."""
    import bincurve.cohomology as cohomology
    real = cohomology.h0
    monkeypatch.setattr(cohomology, "h0", lambda L: real(L) + 1)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        fn(standard_curve(3, F11))


def test_hyperelliptic_class_raises_on_a_wrong_matching_map(monkeypatch):
    """A planted fault: the matching map of the standard curve is the
    identity; with the translation t -> t + 1 as psi, psi^-1 sends q_0 = 0
    to -1, not to p_0 = 0."""
    import bincurve.bundles as bundles
    shift = MoebiusMap(F11, 1, 1, 0, 1)
    monkeypatch.setattr(bundles, "is_hyperelliptic_fast",
                        lambda X: (True, shift))
    with pytest.raises(RuntimeError, match=re.escape(
            "hyperelliptic class: matching map does not send q_j to p_j")):
        hyperelliptic_class(standard_curve(3, F11))


def test_one_point_never_moves():
    # g >= 1: no smooth point is linearly equivalent to another, so each
    # degree-1 point class has exactly one section, on either component
    X = random_curve(2, F7, Rng(20))
    pts = [(comp, pt) for comp in (1, 2) for pt in X.smooth_points(comp)]
    assert len(pts) == 10
    for comp, pt in pts:
        assert h0(from_divisor(X, point_divisor(X, [(comp, pt)]))) == 1


def test_conjugate_pairs_give_the_hyperelliptic_class():
    # the double cover pairs pt on C1 with psi(pt) on C2, so every such
    # pair is a divisor of the g^1_2
    X = random_hyperelliptic_curve(3, F11, Rng(22))
    flag, psi = is_hyperelliptic_fast(X)
    assert flag
    H = hyperelliptic_class(X)
    pts = X.smooth_points(1)
    assert len(pts) == 8
    for pt in pts:
        D = point_divisor(X, [(1, pt), (2, psi.apply(pt))])
        assert from_divisor(X, D) == H


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_moebius_transport_preserves_h0(seed):
    rng = Rng(seed)
    X = random_curve(2, F11, rng)
    L = random_bundle(X, (rng.below(4) - 1, rng.below(4) - 1), rng)
    M1 = random_moebius(F11, rng)
    M2 = random_moebius(F11, rng)
    Lm = apply_moebius(L, M1, M2)
    assert Lm.curve.genus == X.genus
    assert h0(Lm) == h0(L)


def test_restriction_to_normalization():
    X = standard_curve(3, F11)
    L = LineBundle(X, (2, 1), [2, 3, 4, 1])
    M = restrict_to_normalization(L, [1, 2])
    assert M.curve.genus == 1
    assert M.md == L.md
    assert len(M.c) == 2


PERTURBED_H0 = """
import bincurve.cohomology as cohomology
from bincurve.bundles import canonical_bundle, hyperelliptic_class
from bincurve.curve import standard_curve
from bincurve.fields import PrimeField

real_h0 = cohomology.h0
cohomology.h0 = lambda L: real_h0(L) + 1
X = standard_curve(3, PrimeField(7))
print("debug", __debug__)
for fn in (canonical_bundle, hyperelliptic_class):
    try:
        fn(X)
    except RuntimeError:
        print("raised", fn.__name__)
    else:
        print("returned", fn.__name__)
"""


def test_sanity_checks_survive_optimized_mode():
    import bincurve
    src = os.path.dirname(os.path.dirname(os.path.abspath(bincurve.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", PERTURBED_H0],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "debug False", "raised canonical_bundle", "raised hyperelliptic_class"]
