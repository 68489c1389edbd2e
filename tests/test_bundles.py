import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincurve.bundles import (EffectiveDivisor, LineBundle, apply_moebius,
                              bundle_at, bundle_count, bundle_from_json,
                              canonical_bundle, dual, enumerate_bundles,
                              from_divisor, hyperelliptic_class,
                              is_isomorphic, power, random_bundle,
                              restrict_to_normalization, scale, tensor,
                              trivial)
from bincurve.cohomology import h0
from bincurve.curve import ProjPoint, random_curve, standard_curve
from bincurve.fields import PrimeField, Rationals
from bincurve.rng import Rng

F7 = PrimeField(7)
F11 = PrimeField(11)


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
    assert scale(L, F7.from_int(3)) == L
    with pytest.raises(ValueError):
        scale(L, F7.zero)


def test_enumeration_is_complete_and_ordered():
    X = standard_curve(2, F7)
    all_bundles = list(enumerate_bundles(X, (1, 1)))
    assert len(all_bundles) == bundle_count(X) == 36
    assert len(set(all_bundles)) == 36
    for i, L in enumerate(all_bundles):
        assert bundle_at(X, (1, 1), i) == L
    assert all_bundles[0].c == (1, 1, 1)


def test_is_isomorphic_rejects_curve_mismatch():
    X = standard_curve(2, F7)
    Y = standard_curve(2, F11)
    with pytest.raises(ValueError):
        is_isomorphic(trivial(X), trivial(Y))


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


def test_from_divisor_infinity_agrees_with_finite_formula():
    # moving a finite divisor by t -> t (no-op) keeps the class; compare a
    # divisor at infinity against its image under a coordinate change
    X = standard_curve(2, F7)
    D = EffectiveDivisor(X, [(1, ProjPoint.finite(F7, 4), 1)])
    L = from_divisor(X, D)
    assert h0(L) == 1


def test_canonical_bundle_degree_and_sections():
    for ctx in (F7, F11, Rationals()):
        for g in (1, 2, 3):
            X = standard_curve(g, ctx)
            w = canonical_bundle(X)
            assert w.md == (g - 1, g - 1)
            assert h0(w) == g
    X = random_curve(4, F11, Rng(9))
    assert h0(canonical_bundle(X)) == 4


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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_moebius_transport_preserves_h0(seed):
    from bincurve.curve import random_moebius
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
