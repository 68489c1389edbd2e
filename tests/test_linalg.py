from fractions import Fraction
from itertools import combinations, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from bincurve.fields import PrimeField, Rationals
from bincurve.linalg import echelon, kernel_basis, rank_rows

F7 = PrimeField(7)
Q = Rationals()


def test_rank_known_matrices():
    assert rank_rows(F7, [[1, 2], [2, 4]]) == 1          # second row = 2x first
    assert rank_rows(F7, [[1, 2], [3, 4]]) == 2
    assert rank_rows(F7, [[0, 0], [0, 0]]) == 0
    assert rank_rows(F7, [[1, 2, 3]]) == 1
    # entries are field elements, so reduce on the way in
    assert rank_rows(F7, [[F7.from_int(7), 0], [0, 1]]) == 1
    assert rank_rows(Q, [[Fraction(7), Fraction(0)],
                         [Fraction(0), Fraction(1)]]) == 2


def test_identity_and_transpose():
    I3 = [[int(i == j) for j in range(3)] for i in range(3)]
    assert rank_rows(F7, I3) == 3
    m = [[1, 2, 3], [4, 5, 6]]
    assert rank_rows(F7, [list(c) for c in zip(*m)]) == rank_rows(F7, m) == 2


def test_kernel_vectors_annihilate():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(F7, rows, 3)
    assert len(basis) == 2  # nullity = 3 - rank = 2
    for v in basis:
        for row in rows:
            s = sum(r * x for r, x in zip(row, v)) % 7
            assert s == 0


def test_kernel_of_full_rank_is_empty():
    assert kernel_basis(F7, [[1, 0], [0, 1]], 2) == []
    assert kernel_basis(F7, [], 2) != []  # no constraints: full space
    # no columns: rows of width 0 have rank 0 and the kernel is {0}
    assert kernel_basis(F7, [[]] * 3, 0) == []
    assert rank_rows(F7, [[]] * 3) == 0


mat_strategy = st.lists(
    st.lists(st.integers(0, 6), min_size=3, max_size=3), min_size=1, max_size=5)


@given(mat_strategy)
def test_rank_nullity(rows):
    r = rank_rows(F7, [list(row) for row in rows])
    basis = kernel_basis(F7, [list(row) for row in rows], 3)
    assert r + len(basis) == 3


@given(mat_strategy)
def test_rank_equals_transpose_rank(rows):
    assert rank_rows(F7, rows) == rank_rows(F7, [list(c) for c in zip(*rows)])


@given(mat_strategy)
def test_rank_and_kernel_match_brute_force_count(rows):
    # the rows kill exactly 7^(3 - rank) of the 343 vectors of F_7^3
    killed = sum(all(sum(a * x for a, x in zip(row, v)) % 7 == 0
                     for row in rows)
                 for v in product(range(7), repeat=3))
    assert killed == 7 ** (3 - rank_rows(F7, rows))
    assert killed == 7 ** len(kernel_basis(F7, rows, 3))


def test_rational_elimination_is_exact():
    # Hilbert-like matrix: floating point would lose this rank
    rows = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    assert rank_rows(Q, rows) == 4
    rows.append([sum(r[j] for r in rows) for j in range(4)])
    assert rank_rows(Q, [row[:] for row in rows]) == 4


def _det(m):
    # Leibniz formula in exact arithmetic, independent of the elimination
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in combinations(range(n), 2))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _minor_rank(rows, ncols, p):
    """Largest k with a nonzero k x k minor (mod p when p > 0)."""
    best = 0
    for k in range(1, min(len(rows), ncols) + 1):
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ncols), k):
                d = _det([[rows[i][j] for j in ci] for i in ri])
                if (d.numerator % p if p else d):
                    best = k
                    break
            if best == k:
                break
        if best < k:
            break
    return best


# few distinct values, so that small and rank-deficient minors are common
q_entry = st.one_of(
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2),
                     Fraction(0)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3))
fp_entry = st.integers(0, 6)


def _matrices(entry):
    return st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.lists(entry, min_size=m, max_size=m), max_size=4),
        st.just(m)))


@settings(max_examples=100, deadline=None)
@given(_matrices(fp_entry))
def test_rank_over_f7_equals_largest_nonzero_minor(mat):
    rows, ncols = mat
    r = _minor_rank(rows, ncols, 7)
    assert rank_rows(F7, rows) == r
    assert len(kernel_basis(F7, rows, ncols)) == ncols - r


@settings(max_examples=100, deadline=None)
@given(_matrices(q_entry))
def test_rank_over_q_equals_largest_nonzero_minor_exactly(mat):
    rows, ncols = mat
    r = _minor_rank(rows, ncols, 0)
    assert rank_rows(Q, rows) == r
    ech = [list(row) for row in rows]
    assert echelon(ech, ncols, 0) == r
    # elimination stays exact: no entry turns into a float, every echelon
    # entry is an int, every kernel entry is a Fraction
    assert all(type(x) is int for row in ech for x in row)
    assert all(any(row) for row in ech[:r])
    assert not any(any(row) for row in ech[r:])
    basis = kernel_basis(Q, rows, ncols)
    assert len(basis) == ncols - r
    assert all(type(x) is Fraction for v in basis for x in v)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_matrices(fp_entry).map(lambda m: (F7, m)),
                 _matrices(q_entry).map(lambda m: (Q, m))),
       st.randoms(use_true_random=False))
def test_kernel_basis_is_canonical_under_row_permutation_and_duplication(
        case, rnd):
    ctx, (rows, ncols) = case
    want = kernel_basis(ctx, rows, ncols)
    shuffled = [list(row) for row in rows]
    rnd.shuffle(shuffled)
    assert kernel_basis(ctx, shuffled, ncols) == want
    if rows:
        extra = [list(rnd.choice(rows)) for _ in range(rnd.randint(1, 3))]
        doubled = shuffled + extra
        rnd.shuffle(doubled)
        assert kernel_basis(ctx, doubled, ncols) == want


# --- big-number Q inputs against the Fraction elimination -------------------

def _fraction_echelon(rows, ncols):
    """Oracle: Gaussian elimination on Fractions, one pivot inverse a step."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n, r = len(rows), 0
    for col in range(ncols):
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = 1 / prow[col]
        for ri in rows[r + 1:]:
            f = ri[col] * inv
            if f:
                for j in range(col, ncols):
                    ri[j] -= f * prow[j]
        r += 1
    return rows[:r]


def _fraction_kernel(rows, ncols):
    """Oracle: canonical kernel basis by back-substitution on Fractions."""
    ech = _fraction_echelon(rows, ncols)
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in reversed(list(zip(ech, pivots))):
            acc = sum(row[j] * v[j] for j in range(pc + 1, ncols))
            v[pc] = -acc / row[pc]
        basis.append(v)
    return basis


big_q_entry = st.one_of(
    st.just(0),
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 12)))


@st.composite
def _dependent_q_matrices(draw):
    """1-6 rows of 1-8 big entries; a later row may be a multiple of an
    earlier one or the sum of two, so that rank deficits are common."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "multiple", "sum"])
                    if rows else st.just("new"))
        if kind == "new":
            rows.append(draw(st.lists(big_q_entry, min_size=ncols,
                                      max_size=ncols)))
        elif kind == "multiple":
            a = draw(st.sampled_from(rows))
            m = draw(big_q_entry)
            rows.append([m * x for x in a])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(_dependent_q_matrices())
def test_big_q_elimination_matches_the_fraction_oracle(mat):
    rows, ncols = mat
    want = _fraction_echelon(rows, ncols)
    r = len(want)
    assert rank_rows(Q, rows) == r
    # the echelon contract: pivot rows first, leading columns increasing,
    # then zero rows; entries stay exact
    ech = [list(row) for row in rows]
    assert echelon(ech, ncols, 0) == r
    assert all(type(x) in (int, Fraction) for row in ech for x in row)
    leads = [next(j for j, x in enumerate(row) if x) for row in ech[:r]]
    assert leads == sorted(set(leads))
    assert leads == [next(j for j, x in enumerate(row) if x) for row in want]
    assert not any(any(row) for row in ech[r:])
    # the canonical kernel basis is unique, so it matches exactly
    basis = kernel_basis(Q, rows, ncols)
    assert basis == _fraction_kernel(rows, ncols)
    assert all(type(x) is Fraction for v in basis for x in v)
