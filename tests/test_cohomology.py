import gc
import json
import pickle
import re
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bincurve import cohomology
from bincurve.brill_noether import torus_h0
from bincurve.bundles import (EffectiveDivisor, LineBundle, canonical_bundle,
                              dual, enumerate_bundles, from_divisor,
                              tensor, trivial)
from bincurve.cohomology import (RATIONAL_ROOT_BOUND, ROOT_CANDIDATE_BOUND,
                                 BaseLocus, SectionSpace, base_locus,
                                 derivative_row, descend, descend_gluings,
                                 gluing_profile, h0, h0_gluings, h0_vanishing,
                                 h1, monomial_values, neutral_pair,
                                 point_divisor, rows_for_gluing)
from bincurve.curve import (BinaryCurve, ProjPoint, det, normalize_at,
                            random_curve, standard_curve)
from bincurve.fields import PrimeField, Rationals
from bincurve.linalg import kernel_basis, rank_rows
from bincurve.picard import balanced_set
from bincurve.rng import DEFAULT_SEED, Rng
from bincurve.suites import serre_dual

F5 = PrimeField(5)
F7 = PrimeField(7)
F11 = PrimeField(11)


def random_bundle(X, md, rng):
    """A class of multidegree md with seeded random gluing units."""
    units = X.ctx.units()
    c = [rng.choice(units) for _ in range(max(X.genus, 0))]
    c.append(X.ctx.one)
    return LineBundle(X, md, c)


# ---------------------------------------------------------------- oracles

def test_trivial_bundle_one_section():
    for g in (1, 2, 3, 4):
        X = standard_curve(g, F7)
        assert h0(trivial(X)) == 1
        assert h1(trivial(X)) == g


def test_canonical_bundle_g_sections():
    for g in (1, 2, 3):
        X = standard_curve(g, F7)
        w = canonical_bundle(X)
        assert h0(w) == g and h1(w) == 1


def test_genus1_degree0_torsor():
    """On a genus-1 curve exactly one degree-(0,0) class has a section."""
    X = standard_curve(1, F7)
    hits = [L for L in enumerate_bundles(X, (0, 0)) if h0(L) == 1]
    assert hits == [trivial(X)]
    assert all(h0(L) == 0 for L in enumerate_bundles(X, (0, 0))
               if L != trivial(X))


def test_genus1_positive_degree_riemann():
    X = standard_curve(1, F7)
    for md in ((1, 0), (0, 1), (1, 1), (2, 1)):
        d = sum(md)
        for L in enumerate_bundles(X, md):
            assert h0(L) == d


def test_one_sided_negative_degree():
    """md = (-1, d2): sections are (0, h) with h vanishing at all g+1 nodes,
    so h0 = max(0, d2 - g) independent of the gluing."""
    for g in (1, 2, 3):
        X = standard_curve(g, F7)
        for d2 in range(0, g + 3):
            expected = max(0, d2 - g)
            L = LineBundle(X, (-1, d2), [F7.one] * (g + 1))
            assert h0(L) == expected
    # both sides negative: no sections at all
    X = standard_curve(2, F7)
    assert h0(LineBundle(X, (-1, -1), [1, 1, 1])) == 0


def test_riemann_range_on_random_curve():
    X = random_curve(3, F11, Rng(1))
    for md in ((3, 2), (2, 3), (4, 2), (1, 4)):
        d = sum(md)
        assert d >= 2 * 3 - 1
        L = random_bundle(X, md, Rng(2))
        assert h0(L) == d - 3 + 1
        assert h1(L) == 0


def test_h1_is_serre_dual_dimension():
    X = random_curve(2, F7, Rng(3))
    w = canonical_bundle(X)
    for md in ((0, 0), (1, 0), (1, 1), (2, 1)):
        L = random_bundle(X, md, Rng(4))
        assert h1(L) == h0(tensor(w, dual(L)))


# ------------------------------------------------------- matrix machinery

def test_monomial_values_convention():
    # degree-2 monomials a^2, ab, b^2 at the affine point t (a=t, b=1)
    pt = ProjPoint.finite(F7, 3)
    assert monomial_values(F7, 2, pt) == [2, 3, 1]  # 9=2, 3, 1 mod 7
    inf = ProjPoint.infinity(F7)
    assert monomial_values(F7, 2, inf) == [1, 0, 0]


def test_derivative_row_hand_check():
    # f = sum c_i t^(2-i); row of order-1 derivatives at t=3 is
    # (d/dt t^2, d/dt t, d/dt 1) = (2t, 1, 0) = (6, 1, 0) at t=3
    pt = ProjPoint.finite(F7, 3)
    assert derivative_row(F7, 2, pt, 1) == [6, 1, 0]
    # at infinity in the u = 1/t chart the i-th monomial is u^i
    inf = ProjPoint.infinity(F7)
    assert derivative_row(F7, 2, inf, 1) == [0, 1, 0]
    assert derivative_row(F7, 2, inf, 0) == [1, 0, 0]


def _fresh_profile(X, md):
    # tuples: a table of lists would compare unequal
    return tuple(tuple(tuple(monomial_values(X.ctx, d, pt))
                       for pt in X.branch_points(comp))
                 for comp, d in ((1, md[0]), (2, md[1])))


def test_gluing_profile_is_the_monomial_table_once_per_md():
    for ctx in (F7, Rationals()):
        X = random_curve(3, ctx, Rng(5))
        for d1 in range(-2, 5):
            for d2 in range(-2, 5):
                profile = gluing_profile(X, (d1, d2))
                assert profile == _fresh_profile(X, (d1, d2))
                assert gluing_profile(X, [d1, d2]) is profile


def _read_profiles(X):
    # h0, h0_vanishing and SectionSpace on one bundle of X
    ctx = X.ctx
    L = LineBundle(X, (2, 1),
                   [ctx.from_int(k + 2) for k in range(len(X.nodes))])
    branch = X.branch_points(1)
    pt = next(pt for pt in (ProjPoint.finite(ctx, ctx.from_int(a))
                            for a in range(2, 30)) if pt not in branch)
    h0(L)
    h0_vanishing(L, point_divisor(X, [(1, pt)]))
    SectionSpace(L)


def test_profile_memo_stays_off_the_curve():
    """The memo is kept beside the curve, not on it: pickles (as sent to
    pool workers) and JSON read the same bytes after h0 calls, and a curve
    that goes out of scope is freed with its tables."""
    for ctx in (F11, Rationals()):
        X = random_curve(3, ctx, Rng(2))
        before = pickle.dumps(X), json.dumps(X.to_json())
        _read_profiles(X)
        assert (pickle.dumps(X), json.dumps(X.to_json())) == before
        assert X.same_curve(pickle.loads(before[0]))
        ref = weakref.ref(X)
        del X
        gc.collect()
        assert ref() is None


def test_normalized_curves_get_their_own_profiles():
    X = random_curve(4, F11, Rng(3))
    md = (2, 1)
    full = gluing_profile(X, md)
    for S in ([0], [4], [1, 3]):
        Y, _ = normalize_at(X, S)
        profile = gluing_profile(Y, md)
        assert len(profile[0]) == len(profile[1]) == len(Y.nodes)
        assert profile == _fresh_profile(Y, md)
        keep = [j for j in range(len(X.nodes)) if j not in S]
        assert profile == tuple(tuple(block[j] for j in keep)
                                for block in full)
    assert gluing_profile(X, md) is full


def _rank(rows, p):
    """Rank by Gauss-Jordan elimination, mod p, or exactly over Q (p = 0)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col] * pow(lead, -1, p) if p else row[col] / lead
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        rank += 1
    return rank


def _gluing_matrix(X, md, c, p):
    """Row j: f's monomials a^(d1-i) b^i at p_j, then -c_j times h's at q_j,
    on the raw gluing vector c (not divided by its last coordinate)."""
    def monos(d, pt):
        return [pt.a ** (d - i) * pt.b ** i for i in range(d + 1)]
    rows = [monos(md[0], pj) + [-cj * v for v in monos(md[1], qj)]
            for (pj, qj), cj in zip(X.nodes, c)]
    return [[x % p for x in row] for row in rows] if p else rows


@st.composite
def h0_cases(draw):
    """A curve of genus 0-4 over F_p (p 5-13) or Q, branch points drawn from
    small values and oo; md in [-3, 5]^2, so negative and one-block tori
    occur; and 1-3 raw unit vectors, whose last coordinate is any unit."""
    g = draw(st.integers(0, 4))
    p = draw(st.sampled_from([0, 5, 7, 11, 13]))
    ctx = PrimeField(p) if p else Rationals()
    values = range(p) if p else range(-4, 5)
    pool = [ProjPoint.finite(ctx, ctx.from_int(a)) for a in values]
    pool.append(ProjPoint.infinity(ctx))
    rng = Rng(draw(st.integers(0, 10 ** 6)))
    X = BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                  rng.distinct(pool, g + 1))))
    md = (draw(st.integers(-3, 5)), draw(st.integers(-3, 5)))
    if p:
        unit = st.integers(1, p - 1)
    else:
        unit = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.integers(1, 4))
    cs = draw(st.lists(st.lists(unit, min_size=g + 1, max_size=g + 1),
                       min_size=1, max_size=3))
    return X, md, cs, p


@settings(max_examples=100, deadline=None)
@given(h0_cases())
@example((random_curve(3, F7, Rng(4)), (2, 2), [[3, 5, 2, 4], [6, 1, 1, 2]],
          7))
@example((standard_curve(3, F7), (-1, 4), [[3, 5, 2, 4], [6, 1, 1, 2]], 7))
@example((standard_curve(2, Rationals()), (3, -2),
          [[Fraction(-1, 2), 3, Fraction(5, 3)]], 0))
@example((standard_curve(0, F5), (-2, -1), [[3], [4]], 5))
# genus 1, md (0,0): only the trivial class, any multiple of (1, 1), has a
# section, so the vectors of one call read 0, 1, 1
@example((standard_curve(1, F7), (0, 0), [[2, 1], [1, 1], [3, 3]], 7))
# a block of rank n beside a nonempty block: its rank is every vector's
@example((standard_curve(3, F7), (4, 1), [[3, 5, 2, 4], [6, 1, 1, 2]], 7))
@example((standard_curve(3, F7), (1, 4), [[3, 5, 2, 4], [6, 1, 1, 2]], 7))
@example((standard_curve(2, Rationals()), (3, 0),
          [[Fraction(-1, 2), 3, Fraction(5, 3)], [1, 1, 1]], 0))
def test_h0_is_the_nullity_of_a_gluing_matrix_built_by_hand(case):
    """Generic h0 against k1 + k2 - rank of a matrix the test assembles and
    eliminates itself, per bundle and per vector of one `h0_gluings` call;
    later vectors find the (curve, md) table warm. A unit multiple of a
    vector has the same h0, and the Serre suite's dual gluing, canonicalised,
    is tensor(w, dual(L))'s."""
    X, md, cs, p = case
    ctx = X.ctx
    ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
    want = [ncols - _rank(_gluing_matrix(X, md, c, p), p) for c in cs]
    assert [h0(LineBundle(X, md, c)) for c in cs] == want
    assert list(h0_gluings(X, md, cs)) == want
    lam = cs[-1][0]
    scaled = [[ctx.mul(lam, x) for x in c] for c in cs]
    assert list(h0_gluings(X, md, scaled)) == want
    if X.genus >= 1:
        w = canonical_bundle(X)
        dual_md = (w.md[0] - md[0], w.md[1] - md[1])
        serre = serre_dual(w)  # one map for every vector, as in the suite
        for c in cs:
            dual_L = tensor(w, dual(LineBundle(X, md, c)))
            inline = serre(c)
            assert LineBundle(X, dual_md, inline).c == dual_L.c
            assert list(h0_gluings(X, dual_md, [inline])) == [h0(dual_L)]


@pytest.mark.parametrize("X", [
    *(standard_curve(g, F5) for g in range(4)),
    random_curve(2, F7, Rng(DEFAULT_SEED)),
], ids=["g0-p5", "g1-p5", "g2-p5", "g3-p5", "g2-p7"])
def test_h0_gluings_is_the_nullity_on_every_class(X):
    """Every class of every md in [-2, g+2]^2, one-block, rank-n and
    two-block tori alike, against the hand-built matrix's nullity."""
    g, p = X.genus, X.ctx.p
    classes = [(*u, 1) for u in product(X.ctx.units(), repeat=g)]
    for md in product(range(-2, g + 3), repeat=2):
        ncols = max(md[0] + 1, 0) + max(md[1] + 1, 0)
        want = [ncols - _rank(_gluing_matrix(X, md, c, p), p)
                for c in classes]
        assert list(h0_gluings(X, md, classes)) == want, md


# genus 3, so n = 4 rows: a block of k >= 4 columns has rank 4
@pytest.mark.parametrize("md,per_vector", [
    ((3, -1), False),  # k2 = 0: the matrix is E1
    ((-1, 3), False),  # k1 = 0: E2 with its rows scaled by units
    ((-2, -2), False),  # no columns at all
    ((4, 1), False),  # E1 has rank n
    ((1, 4), False),  # E2 has rank n
    ((2, 1), True),  # two blocks below rank n: one elimination per vector
    ((1, 2), True),
])
def test_h0_gluings_eliminates_a_rank_no_vector_changes_once(
        monkeypatch, md, per_vector):
    X = standard_curve(3, F7)
    classes = [(*u, 1) for u in product(F7.units(), repeat=3)]
    real = cohomology.echelon
    calls = []

    def counted(rows, ncols, p):
        calls.append(ncols)
        return real(rows, ncols, p)
    monkeypatch.setattr(cohomology, "echelon", counted)
    hs = list(h0_gluings(X, md, classes))
    assert len(hs) == len(classes)
    assert len(calls) == (len(classes) if per_vector else 1)


def test_h0_gluings_rejects_a_vector_of_the_wrong_length():
    # every vector is checked, on tori whose rank is eliminated once too
    X = standard_curve(2, F7)
    for md in ((1, 1), (4, 1), (-1, 3), (-2, -2)):
        with pytest.raises(ValueError, match="number of nodes"):
            list(h0_gluings(X, md, [[1, 2, 3], [1, 2]]))


@st.composite
def gluing_cases(draw, ctx, values):
    """A class of md in [-1, g+1]^2 on a curve of genus 1-4 whose branch
    points are drawn from values and oo; random gluing units, the last 1."""
    g = draw(st.integers(1, 4))
    pool = [ProjPoint.finite(ctx, a) for a in values]
    pool.append(ProjPoint.infinity(ctx))
    rng = Rng(draw(st.integers(0, 10 ** 6)))
    X = BinaryCurve(ctx, list(zip(rng.distinct(pool, g + 1),
                                  rng.distinct(pool, g + 1))))
    md = (draw(st.integers(-1, g + 1)), draw(st.integers(-1, g + 1)))
    if ctx.is_prime_field():
        unit = st.integers(1, ctx.p - 1)
    else:
        unit = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.integers(1, 4))
    c = draw(st.lists(unit, min_size=g, max_size=g)) + [ctx.one]
    return LineBundle(X, md, c)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]).flatmap(
    lambda p: gluing_cases(PrimeField(p), range(p))))
def test_unreduced_gluing_rows_eliminate_like_reduced_ones(L):
    """Over F_p rows_for_gluing leaves -c_j·v unreduced; rank_rows and
    kernel_basis read them as the rows reduced mod p."""
    ctx = L.ctx
    rows = rows_for_gluing(L)
    reduced = [[x % ctx.p for x in row] for row in rows]
    ncols = max(L.md[0] + 1, 0) + max(L.md[1] + 1, 0)
    assert rank_rows(ctx, rows) == rank_rows(ctx, reduced)
    assert kernel_basis(ctx, rows, ncols) == kernel_basis(ctx, reduced, ncols)


@settings(max_examples=30, deadline=None)
@given(gluing_cases(Rationals(), sorted({Fraction(a, b) for a in range(-4, 5)
                                         for b in (1, 2)})))
def test_gluing_rows_over_q_are_the_field_products(L):
    """Over Q row j is E1(p_j), then (-c_j)·v for each v of E2(q_j), entry
    for entry and type for type as the field context multiplies them."""
    ctx = L.ctx
    e1, e2 = gluing_profile(L.curve, L.md)
    want = [[*a, *[ctx.mul(ctx.neg(cj), v) for v in b]]
            for a, b, cj in zip(e1, e2, L.c)]
    assert [list(map(repr, row)) for row in rows_for_gluing(L)] == \
        [list(map(repr, row)) for row in want]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sections_satisfy_gluing_conditions(seed):
    rng = Rng(seed)
    X = random_curve(2, F11, rng)
    L = random_bundle(X, (rng.below(3), rng.below(3)), rng)
    space = SectionSpace(L)
    for s in range(space.dim):
        for j, (p, q) in enumerate(X.nodes):
            lhs = space.value_at(s, 1, p)
            rhs = F11.mul(L.c[j], space.value_at(s, 2, q))
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adding_a_point_moves_h0_by_at_most_one(seed):
    rng = Rng(seed)
    X = random_curve(2, F11, rng)
    L = random_bundle(X, (rng.below(4) - 1, rng.below(4) - 1), rng)
    pt = rng.choice(X.smooth_points(1))
    P = from_divisor(X, EffectiveDivisor(X, [(1, pt, 1)]))
    n, m = h0(L), h0(tensor(L, P))
    assert n <= m <= n + 1


# ------------------------------------------------------ vanishing orders

def test_vanishing_at_points_cuts_dimensions():
    X = standard_curve(3, F11)
    w = canonical_bundle(X)
    p = X.smooth_points(1)[0]
    D1 = EffectiveDivisor(X, [(1, p, 1)])
    assert h0_vanishing(w, D1) == 2  # g - 1
    q = X.smooth_points(2)[0]
    D2 = EffectiveDivisor(X, [(1, p, 1), (2, q, 1)])
    assert h0_vanishing(w, D2) in (1, 2)


def test_point_divisor_merges_repeated_points():
    X = standard_curve(3, F11)
    a = X.smooth_points(1)[0]
    D = point_divisor(X, [(1, a), (1, a)])
    E = EffectiveDivisor(X, [(1, a, 2)])
    assert D.entries == E.entries
    w = canonical_bundle(X)
    assert h0_vanishing(w, D) == h0_vanishing(w, E)


def test_vanishing_multiplicity_guard_small_characteristic():
    # mult-2 conditions use first derivatives; in F_5 a degree-5 monomial
    # block cannot be told apart from degree 0, so the call must refuse
    X = standard_curve(2, F5)
    L = LineBundle(X, (5, 0), [1, 1, 1])
    p = X.smooth_points(1)[0]
    D = EffectiveDivisor(X, [(1, p, 2)])
    with pytest.raises(ValueError):
        h0_vanishing(L, D)
    # mult 1 is always fine
    h0_vanishing(L, EffectiveDivisor(X, [(1, p, 1)]))


def test_no_columns_means_no_sections():
    # d1, d2 <= -1: the gluing rows have width 0, so their rank is 0, the
    # kernel is {0} and vanishing rows add nothing
    X = standard_curve(2, F7)
    D = point_divisor(X, [(1, ProjPoint.finite(F7, 3)),
                          (2, ProjPoint.finite(F7, 5))])
    for md in ((-1, -1), (-2, -1)):
        L = LineBundle(X, md, [1, 1, 1])
        assert h0(L) == 0
        assert SectionSpace(L).dim == 0
        assert h0_vanishing(L, D) == 0


def test_vanishing_equals_tensor_by_dual_divisor_class():
    X = random_curve(2, F11, Rng(12))
    L = random_bundle(X, (2, 2), Rng(13))
    p1 = X.smooth_points(1)[2]
    D = EffectiveDivisor(X, [(1, p1, 1)])
    P = from_divisor(X, D)
    assert h0_vanishing(L, D) == h0(tensor(L, dual(P)))


# ------------------------------------------------------------- descent

def test_descend_unique_case():
    X = random_curve(3, F7, Rng(21))
    Y, removed = normalize_at(X, [3])
    # a degree-(1,1) bundle on Y generically has a section not vanishing
    # at either branch point: descent pins the gluing uniquely
    for M in enumerate_bundles(Y, (1, 1)):
        if h0(M) == 0:
            continue
        res = descend(M, removed)
        if res.exists and res.unique:
            assert res.bundle.curve.genus == 3
            assert h0(res.bundle) == h0(M)
            return
    raise AssertionError("no unique descent found in the scan")


def test_descend_nonexistent_case():
    X = random_curve(3, F7, Rng(21))
    Y, removed = normalize_at(X, [3])
    found = False
    for M in enumerate_bundles(Y, (1, 0)):
        if h0(M) == 0:
            continue
        res = descend(M, removed)
        if not res.exists:
            assert res.bundle is None
            found = True
    assert found, "expected some section to vanish at exactly one branch"


def _branch_values(M, pair):
    S = SectionSpace(M)
    p, q = pair
    return ([S.value_at(s, 1, p) for s in range(S.dim)],
            [S.value_at(s, 2, q) for s in range(S.dim)])


def test_descend_fails_unless_values_are_proportional():
    """No scalar c gives v = c·w, with v and w the basis values at the two
    branch points: v = 0 != w; v and w nonzero, not proportional; and v
    zero where w is first nonzero, the ratio taken there being 0. The
    first two occur in verify lemma-e's grid (standard genus-3 curve over
    F_5, random genus-3 curve over F_7 at the suite's seed)."""
    X = standard_curve(3, F5)
    Y, removed = normalize_at(X, [3])
    M = LineBundle(Y, (1, 0), [1, 1, 1])
    assert _branch_values(M, removed[0]) == ([0], [1])
    assert not descend(M, removed).exists

    X = BinaryCurve(F7, [(ProjPoint.finite(F7, a), ProjPoint.finite(F7, b))
                         for a, b in ((5, 4), (0, 0), (1, 1))]
                    + [(ProjPoint.infinity(F7), ProjPoint.infinity(F7))])
    Y, removed = normalize_at(X, [3])
    M = LineBundle(Y, (1, 1), [3, 4, 1])
    assert _branch_values(M, removed[0]) == ([1, 4], [1, 0])
    assert not descend(M, removed).exists

    X = standard_curve(2, F5)
    Y, removed = normalize_at(X, [0])
    M = LineBundle(Y, (2, 1), [1, 1])
    assert _branch_values(M, removed[0]) == ([1, 0, 0], [0, 0, 1])
    assert not descend(M, removed).exists


def test_descend_base_point_case():
    # force every section to vanish at both branch points: descent exists
    # for every gluing, flagged as non-unique. Needs h0 = 1, so genus 2
    # and a non-conjugate pair (a conjugate pair would give the pencil).
    X = standard_curve(3, F7)
    Y, _ = normalize_at(X, [3])
    assert Y.genus == 2
    p = ProjPoint.infinity(F7)
    q = ProjPoint.finite(F7, 3)
    D = EffectiveDivisor(Y, [(1, p, 1), (2, q, 1)])
    M = from_divisor(Y, D)
    assert h0(M) == 1
    res = descend(M, [(p, q)])
    assert res.exists and not res.unique


def test_neutral_pair_matches_descent_existence():
    X = random_curve(3, F7, Rng(22))
    Y, removed = normalize_at(X, [0])
    (p, q) = removed[0]
    checked = 0
    for M in enumerate_bundles(Y, (1, 1)):
        if h0(M) == 0:
            continue
        res = descend(M, removed)
        assert neutral_pair(M, (1, p), (2, q)) == res.exists
        checked += 1
    assert checked > 0


def _neutral_by_definition(M, p, q):
    X = M.curve
    return (h0_vanishing(M, point_divisor(X, [p]))
            == h0_vanishing(M, point_divisor(X, [q]))
            == h0_vanishing(M, point_divisor(X, [p, q])))


def _lemma_e_tori():
    """(Y, md, removed) of verify lemma-e's default grid: genus 3 at p = 5,
    7, node 3 separated, every md of degree 1 and 2 it checks."""
    rng = Rng(DEFAULT_SEED)
    for p in (5, 7):
        ctx = PrimeField(p)
        X = (random_curve(3, ctx, rng.spawn()) if p >= 6
             else standard_curve(3, ctx))
        Y, removed = normalize_at(X, [3])
        for d in (1, 2):
            for md in balanced_set(d, 2):
                if min(md) >= -1:
                    yield Y, md, removed


def _lemma_e_grid():
    """(M, pair) on verify lemma-e's default grid: every class of its tori
    with h0 >= 1."""
    for Y, md, removed in _lemma_e_tori():
        for c, _ in torus_h0(Y, md, at_least=1):
            yield LineBundle(Y, md, c), removed[0]


def test_neutral_pair_is_its_definition_on_the_lemma_e_grid():
    checked = found = 0
    for M, (p, q) in _lemma_e_grid():
        other = next(pt for pt in M.curve.smooth_points(1) if pt != p)
        for a, b in (((1, p), (2, q)), ((1, p), (1, other))):
            want = _neutral_by_definition(M, a, b)
            assert neutral_pair(M, a, b) == want
            found += want
            checked += 1
    assert checked > 100 and 0 < found < checked


def _q_points(X, comp, k):
    branch = set(X.branch_points(comp))
    return [pt for pt in (ProjPoint.finite(X.ctx, Fraction(n, 2))
                          for n in range(-k - 8, 0)) if pt not in branch][:k]


def test_neutral_pair_is_its_definition_on_divisor_bundles():
    """Random divisor bundles over F_11 and Q, and over Q a pair of base
    points: D of degree 2 on a genus-4 curve has h0(O(D)) = 1, so its
    single section vanishes on D."""
    Qf = Rationals()
    base_pairs = 0
    for seed in range(4):
        for ctx in (F11, Qf):
            rng = Rng(100 + seed)
            X = random_curve(4, ctx, rng.spawn())
            pts = {comp: (X.smooth_points(comp) if ctx is F11
                          else _q_points(X, comp, 6)) for comp in (1, 2)}
            d1 = 1 + seed % 3
            D = EffectiveDivisor(X, [(1, pt, 1) for pt in pts[1][:d1]]
                                 + [(2, pts[2][0], 1)])
            M = from_divisor(X, D)
            cand = [(1, pts[1][0]), (1, pts[1][-1]), (2, pts[2][0]),
                    (2, pts[2][-1])]
            for i, a in enumerate(cand):
                for b in cand[i + 1:]:
                    assert neutral_pair(M, a, b) == _neutral_by_definition(
                        M, a, b)
            if d1 == 1 and ctx is Qf:
                assert h0(M) == 1
                a, b = (1, pts[1][0]), (2, pts[2][0])
                assert h0_vanishing(M, point_divisor(X, [a, b])) == 1
                assert neutral_pair(M, a, b)
                base_pairs += 1
    assert base_pairs > 0


def test_neutral_pair_errors_are_unchanged():
    X = random_curve(3, F7, Rng(22))
    M = random_bundle(X, (2, 2), Rng(23))
    p = (1, X.smooth_points(1)[0])
    with pytest.raises(ValueError, match="neutral pair needs distinct points"):
        neutral_pair(M, p, p)
    node = X.nodes[0][0]
    message = re.escape(f"divisor point {node!r} sits on a node")
    for a, b in ((p, (1, node)), ((1, node), p)):
        with pytest.raises(ValueError, match=message):
            neutral_pair(M, a, b)


def test_descend_rejects_branch_collisions():
    X = standard_curve(2, F7)
    Y, removed = normalize_at(X, [2])
    M = trivial(Y)
    with pytest.raises(ValueError):
        descend(M, [(Y.nodes[0][0], removed[0][1])])  # reuses a node point


def _untouched():
    raise AssertionError("a gluing vector was read")
    yield


def test_regluing_pairs_are_checked_before_any_class():
    """A point that two pairs share, or a point on a node of Y, raises
    ValueError whatever the bundle: `descend` raises on every class, and
    `descend_gluings` at the call, before it reads a vector. Sharing p
    used to read exists=False on all 6 classes of md (1,1) here, where
    descent fails, and to raise only from the reglued curve where it
    succeeds."""
    X = random_curve(3, F7, Rng(21))
    Y, removed = normalize_at(X, [2, 3])
    (p, q), (p2, q2) = removed
    classes = list(enumerate_bundles(Y, (1, 1)))
    assert len(classes) == 6 and all(h0(M) >= 1 for M in classes)
    repeat = "regluing pairs repeat a branch point"
    collide = "regluing point collides with an existing node"
    node_p, node_q = Y.nodes[0]
    for pairs, message in (([(p, q), (p, q2)], repeat),
                           ([(p, q), (p2, q)], repeat),
                           ([(p, q), (p, q)], repeat),
                           ([(node_p, q)], collide),
                           ([(p, node_q)], collide),
                           ([(p2, q2), (node_p, q)], collide)):
        for M in classes:
            with pytest.raises(ValueError, match=re.escape(message)):
                descend(M, pairs)
        with pytest.raises(ValueError, match=re.escape(message)):
            descend_gluings(Y, (1, 1), pairs, _untouched())


def _base_pair(M, p, q) -> bool:
    # p and q are both base points of M: twisting by either keeps h0
    X, n = M.curve, h0(M)
    return (h0_vanishing(M, point_divisor(X, [(1, p)])) == n
            == h0_vanishing(M, point_divisor(X, [(2, q)])))


def _check_descents(Y, md, pairs, classes) -> Counter:
    """descend_gluings on the classes' gluing vectors, each times 3 (no
    canonical form), against the definitions and against `descend` class
    by class; returns the tally of (exists, unique)."""
    ctx = Y.ctx
    lam = ctx.from_int(3)
    vectors = [[ctx.mul(lam, x) for x in M.c] for M in classes]
    results = list(descend_gluings(Y, md, pairs, vectors))
    assert len(results) == len(classes)
    tally = Counter()
    for M, res in zip(classes, results):
        assert res == descend(M, pairs)
        assert res.exists == all(_neutral_by_definition(M, (1, p), (2, q))
                                 for p, q in pairs)
        if res.exists:
            assert res.unique == (not any(_base_pair(M, p, q)
                                          for p, q in pairs))
            assert res.bundle.curve.nodes == Y.nodes + tuple(pairs)
            assert h0(res.bundle) == h0(M)
        else:
            assert res.bundle is None and not res.unique
        tally[res.exists, res.unique] += 1
    return tally


def test_descend_gluings_is_its_definition():
    """Every class with h0 >= 1 of verify lemma-e's tori at p = 5 and 7 (by
    generic h0, not the torus walk), a two-pair regluing of genus 3 onto
    genus 1, and one-vector cases over Q, one of them a pair of base
    points."""
    tally = Counter()
    for Y, md, removed in _lemma_e_tori():
        classes = [M for M in enumerate_bundles(Y, md) if h0(M) >= 1]
        tally += _check_descents(Y, md, removed, classes)
    assert tally[True, True] > 0 and tally[False, False] > 0

    X = random_curve(3, F7, Rng(21))
    Y, removed = normalize_at(X, [0, 3])
    tally = Counter()
    for md in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2)):
        classes = [M for M in enumerate_bundles(Y, md) if h0(M) >= 1]
        tally += _check_descents(Y, md, removed, classes)
    assert tally[True, True] > 0 and tally[False, False] > 0

    Qf = Rationals()
    tally = Counter()
    for seed in range(3):
        X = random_curve(3, Qf, Rng(300 + seed))
        for S in ([3], [1, 2]):
            Y, removed = normalize_at(X, S)
            for md in ((1, 1), (2, 1), (1, 2)):
                c = [Fraction(seed + j + 2, j + 1) for j in range(Y.genus)]
                M = LineBundle(Y, md, c + [1])
                tally += _check_descents(Y, md, removed, [M])
        # the one section of O(p + q) on a genus-2 Y vanishes at p and q
        Y, removed = normalize_at(X, [3])
        (p, q), = removed
        M = from_divisor(Y, EffectiveDivisor(Y, [(1, p, 1), (2, q, 1)]))
        assert h0(M) == 1
        assert _check_descents(Y, M.md, removed, [M]) == {(True, False): 1}
    assert tally[True, True] > 0


def _first_descent():
    X = random_curve(3, F7, Rng(21))
    Y, removed = normalize_at(X, [3])
    for M in enumerate_bundles(Y, (1, 1)):
        if h0(M) >= 1 and descend(M, removed).exists:
            return M, removed
    raise AssertionError("no descent in the scan")


def test_descend_raises_when_the_neutral_check_disagrees(monkeypatch):
    """A planted fault: the rank of M's gluing rows with both vanishing rows
    reads one too high, so the pair looks not neutral where the section
    values descend."""
    M, removed = _first_descent()
    real = cohomology.rank_rows
    both = len(M.curve.nodes) + 2
    monkeypatch.setattr(cohomology, "rank_rows", lambda ctx, rows: real(
        ctx, rows) + (len(rows) == both))
    with pytest.raises(RuntimeError, match=re.escape(
            "descent check failed: neutral pairs False, descent True")):
        descend(M, removed)


def test_descend_raises_when_the_closing_h0_disagrees(monkeypatch):
    """A planted fault: the closing rank on the reglued curve reads one too
    high, so the descended bundle seems to lose a section."""
    M, removed = _first_descent()
    n = h0(M)
    real = cohomology.echelon
    monkeypatch.setattr(cohomology, "echelon",
                        lambda rows, ncols, p: real(rows, ncols, p) + 1)
    with pytest.raises(RuntimeError, match=re.escape(
            f"descent check failed: h0 = {n - 1} != h0(M) = {n}")):
        descend(M, removed)


# ------------------------------------------------------------ base locus

def test_base_locus_requires_sections():
    X = standard_curve(2, F7)
    L = LineBundle(X, (-1, -1), [1, 1, 1])
    with pytest.raises(ValueError):
        base_locus(L)


def test_base_locus_of_trivial_is_empty():
    X = standard_curve(2, F7)
    bl = base_locus(trivial(X))
    assert bl.smooth_points == () and bl.nodes == () and bl.full_components == ()


def test_base_locus_recovers_divisor_support():
    X = random_curve(3, F11, Rng(30))
    p = X.smooth_points(1)[1]
    q = X.smooth_points(2)[3]
    D = EffectiveDivisor(X, [(1, p, 1), (2, q, 1)])
    L = from_divisor(X, D)
    assert h0(L) == 1
    bl = base_locus(L)
    assert set(bl.smooth_points) == {(1, p), (2, q)}
    assert bl.nodes == ()


def test_base_locus_full_component_and_nodes():
    # md = (-1, g+1): the only sections vanish identically on side 1, and
    # every node is forced into the base locus
    X = standard_curve(2, F7)
    L = LineBundle(X, (-1, 3), [1, 1, 1])
    assert h0(L) == 1
    bl = base_locus(L)
    assert bl.full_components == (1,)
    assert bl.nodes == (0, 1, 2)


def test_base_locus_where_branch_points_fill_the_line():
    # g = p: the g+1 branch points of each component are all of P^1(F_p),
    # so no smooth point is rational; the nodes and full components are
    # pinned from the gcd and root search of earlier versions
    for p, md, c, nodes, full in [
            (5, (3, 1), [2, 1, 1, 1, 1, 1], (0,), ()),
            (5, (-1, 6), [1] * 6, (0, 1, 2, 3, 4, 5), (1,)),
            (5, (2, 2), [1] * 6, (), ()),
            (7, (2, 2), [1] * 8, (7,), ()),
            (7, (-1, 8), [1] * 8, tuple(range(8)), (1,))]:
        X = random_curve(p, PrimeField(p), Rng(1))
        assert X.smooth_points(1) == X.smooth_points(2) == []
        L = LineBundle(X, md, c)
        assert h0(L) >= 1
        assert base_locus(L) == BaseLocus((), nodes, full), (p, md)
    X = random_curve(7, PrimeField(7), Rng(1))
    assert base_locus(canonical_bundle(X)) == BaseLocus((), (), ())


def test_base_locus_over_a_large_prime_tests_only_the_gcd_roots(monkeypatch):
    # O(x) on component 1 at p = 1,000,003: the finite candidates are the
    # roots of the gcd, found in plain ints, not every x in F_p
    F = PrimeField(1_000_003)
    X = standard_curve(4, F)
    x = ProjPoint.finite(F, 500)
    L = from_divisor(X, point_divisor(X, [(1, x)]))
    calls = []
    value_at = SectionSpace.value_at

    def counted(self, *args):
        calls.append(args)
        return value_at(self, *args)

    monkeypatch.setattr(SectionSpace, "value_at", counted)
    assert base_locus(L).smooth_points == ((1, x),)
    assert len(calls) <= 10


def _rational_point_bundle(a):
    """O(a) on component 1 of the genus-3 curve over Q with nodes (0,0),
    (1,1), (oo,oo), (2,5): md (1, 0), c_j = det(p_j, a)."""
    Q = Rationals()
    pts = [ProjPoint.finite(Q, Fraction(0)), ProjPoint.finite(Q, Fraction(1)),
           ProjPoint.infinity(Q), ProjPoint.finite(Q, Fraction(2))]
    X = BinaryCurve(Q, list(zip(pts, pts[:3] + [ProjPoint.finite(Q, 5)])))
    a = ProjPoint.finite(Q, Fraction(a))
    return LineBundle(X, (1, 0), [det(Q, p, a) for p, _ in X.nodes]), a


def test_base_locus_rational_root_search_is_bounded():
    # the divisor search trial-divides up to sqrt|a0|: at a = 10**20 + 7
    # it would run for hours, and it raises before it starts
    L, a = _rational_point_bundle(10 ** 5 + 7)
    assert base_locus(L) == BaseLocus(((1, a),), (), ())
    L, _ = _rational_point_bundle(10 ** 20 + 7)
    with pytest.raises(ValueError,
                       match=f"search bound {RATIONAL_ROOT_BOUND}$"):
        base_locus(L)
    # both ends under the bound, but 2 * 576 * 256 candidates
    num = 2 ** 5 * 3 ** 3 * 5 ** 2 * 7 * 11 * 13
    den = 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    assert max(num, den) <= RATIONAL_ROOT_BOUND
    L, _ = _rational_point_bundle(Fraction(num, den))
    with pytest.raises(ValueError,
                       match=f"candidate bound {ROOT_CANDIDATE_BOUND}$"):
        base_locus(L)


def test_base_locus_balanced_rational_gcd_resolves():
    # component 2's gcd has a0 = 1982808 and an = 2274930: both ends are
    # far under the bound although |a0*an| is about 4.5e12
    Q = Rationals()
    nodes = [((-3, 1), (3, 1)), ((2, 1), (-1, 3)), ((4, 3), (-3, 2)),
             ((-2, 1), (2, 3))]
    X = BinaryCurve(Q, [(ProjPoint.finite(Q, Fraction(*a)),
                         ProjPoint.finite(Q, Fraction(*b))) for a, b in nodes]
                    + [(ProjPoint.infinity(Q), ProjPoint.infinity(Q))])
    c = [Fraction(18), Fraction(-8, 3), Fraction(-2), Fraction(10, 3), Q.one]
    L = LineBundle(X, (1, 3), c)
    pt = ProjPoint.finite(Q, Fraction(33426, 3611))
    assert base_locus(L) == BaseLocus(((1, pt),), (), ())


def test_base_locus_large_prime_skips_the_scan(monkeypatch):
    # the canonical bundle is base-point-free, so the gcd of each
    # component's forms is constant and only nodes and oo are tested
    X = standard_curve(4, PrimeField(1000003))
    calls = []
    value_at = SectionSpace.value_at
    monkeypatch.setattr(SectionSpace, "value_at",
                        lambda self, *a: calls.append(a) or value_at(self, *a))
    assert base_locus(canonical_bundle(X)) == BaseLocus((), (), ())
    assert len(calls) <= 4 * (len(X.nodes) + 2)


# The oracle below goes through h0_vanishing, so it is independent of the
# SectionSpace evaluation in base_locus: a smooth point x is a base point
# of L iff h0(L(-x)) = h0(L).

def _base_locus_case(ctx, seed):
    """L = O(D) (x) T on a curve with finite branch points only, so oo is a
    smooth point of both components. D has 1-3 points and is pushed through
    oo half the time; T is trivial, canonical (K(x) has x as a base point
    and h0 = g >= 2) or O(E). Returns L and the smooth points to check:
    every smooth point over F_p, a grid of small rationals plus oo over Q
    (D is drawn from them, so its support is included)."""
    rng = Rng(seed)
    if ctx.is_prime_field():
        values = [ctx.from_int(a) for a in range(ctx.p)]
    else:
        values = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2)})
    g = 2 + rng.below(2)
    X = BinaryCurve(ctx, [(ProjPoint.finite(ctx, a), ProjPoint.finite(ctx, b))
                          for a, b in zip(rng.distinct(values, g + 1),
                                          rng.distinct(values, g + 1))])
    inf = ProjPoint.infinity(ctx)
    smooth = [(comp, pt) for comp in (1, 2)
              for pt in [ProjPoint.finite(ctx, a) for a in values] + [inf]
              if pt not in X.branch_points(comp)]
    pts = rng.distinct(smooth, 1 + rng.below(3))
    through_inf = (1 + rng.below(2), inf)
    if rng.below(2) and through_inf not in pts:
        pts[0] = through_inf
    kind = rng.below(3)
    if kind == 0:
        T = trivial(X)
    elif kind == 1:
        T = canonical_bundle(X)
    else:
        T = from_divisor(X, point_divisor(X, rng.distinct(smooth, 2)))
    return tensor(from_divisor(X, point_divisor(X, pts)), T), smooth


def _check_base_locus(L, candidates):
    """Every reported smooth base point passes the oracle; every candidate
    that passes is reported, unless it lies on a full component, where all
    points pass and none is listed. Returns the reported points."""
    X = L.curve
    n = h0(L)
    bl = base_locus(L)

    def is_base(comp, pt):
        return h0_vanishing(L, point_divisor(X, [(comp, pt)])) == n

    assert all(is_base(comp, pt) for comp, pt in bl.smooth_points)
    for comp, pt in candidates:
        base = is_base(comp, pt)
        if comp in bl.full_components:
            assert base and (comp, pt) not in bl.smooth_points
        else:
            assert base == ((comp, pt) in bl.smooth_points), (comp, pt)
    return bl.smooth_points


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([7, 11, 13]), st.integers(0, 10 ** 6))
def test_base_locus_matches_vanishing_oracle_over_fp(p, seed):
    _check_base_locus(*_base_locus_case(PrimeField(p), seed))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_base_locus_matches_vanishing_oracle_over_q(seed):
    _check_base_locus(*_base_locus_case(Rationals(), seed))


def test_base_locus_oracle_cases_occur():
    """Fixed seeds: the oracle confirms a base point at oo and a base point
    shared by h0 >= 2 sections, over F_11 and over Q."""
    for ctx in (F11, Rationals()):
        shapes = set()
        for seed in range(30):
            L, candidates = _base_locus_case(ctx, seed)
            points = _check_base_locus(L, candidates)
            if any(pt.is_infinity() for _, pt in points):
                shapes.add("infinity")
            if points and h0(L) >= 2:
                shapes.add("shared")
        assert shapes == {"infinity", "shared"}, (ctx, shapes)
