from fractions import Fraction
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from bincurve.fields import PrimeField, Rationals
from bincurve.linalg import kernel_basis, rank_mod_bounded, rank_rows

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
    assert killed == 7 ** (3 - rank_mod_bounded([list(r) for r in rows],
                                                3, 7, 3))
    assert killed == 7 ** len(kernel_basis(F7, rows, 3))


def test_rank_mod_bounded_early_exit():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # cap below the true rank: reports cap+1 ("too big") without finishing
    assert rank_mod_bounded([r[:] for r in rows], 3, 7, 1) == 2
    assert rank_mod_bounded([r[:] for r in rows], 3, 7, 3) == 3


def test_rational_elimination_is_exact():
    # Hilbert-like matrix: floating point would lose this rank
    rows = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    assert rank_rows(Q, rows) == 4
    rows.append([sum(r[j] for r in rows) for j in range(4)])
    assert rank_rows(Q, [row[:] for row in rows]) == 4
