"""Section spaces of line bundles on binary curves.

Everything reduces to one matrix: row j expresses the gluing condition
f(p_j) = c_j·h(q_j) on the monomial coefficients of the form pair (f, h).
h0 is its nullity; twists down by effective divisors add vanishing rows.
The monomial evaluations at the nodes depend only on (curve, md), so
`gluing_profile` builds them once per pair and every generic h0, section
space and torus walk on that torus reads the same table. Generic h0 is one
primitive, `h0_gluings`. A gluing vector only scales the rows of the h
block by units, so where one block is empty or has rank n (the node count)
no vector can change the rank; that block's own rows are eliminated once
per torus. Every other torus gets one row assembly and one elimination per
gluing vector. `h0(L)` is its one-vector case. Descent runs per torus too:
`descend_gluings` builds what depends only on (Y, md, pairs) once and
eliminates per gluing vector; `descend(M, pairs)` is its one-vector case.
h1 comes from Riemann-Roch by definition, which keeps Serre duality an
actual cross-check of the canonical-bundle construction rather than a
tautology; the Serre suite's dual side (`suites.serre_dual`) inverts each
unit once per curve, not once per gluing entry.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import factorial, perm
from operator import mul

from .bundles import EffectiveDivisor, LineBundle
from .curve import BinaryCurve, ProjPoint
from .fields import FieldCtx
from .linalg import echelon, kernel_basis, modulus, primitive_row, rank_rows

# over Q, base_locus trial-divides the end coefficients a0, an of a gcd and
# tests every ±(divisor of a0)/(divisor of an); it raises ValueError when
# max(|a0|, |an|) passes RATIONAL_ROOT_BOUND or the candidates pass
# ROOT_CANDIDATE_BOUND
RATIONAL_ROOT_BOUND = 10 ** 12
ROOT_CANDIDATE_BOUND = 10 ** 5


def monomial_values(ctx: FieldCtx, d: int, pt: ProjPoint):
    """Values of the d+1 degree-d monomials a^{d-i} b^i at rep(pt), i = 0..d."""
    if d < 0:
        return []
    if pt.is_infinity():
        return [ctx.one] + [ctx.zero] * d
    vals = [ctx.one]
    for _ in range(d):
        vals.append(ctx.mul(vals[-1], pt.a))
    vals.reverse()
    return vals


def derivative_row(ctx: FieldCtx, d: int, pt: ProjPoint, order: int):
    """Row of s-th formal derivatives of the monomials in pt's affine chart.

    Finite pt: chart coordinate t = a/b, monomial i -> t^{d-i}. At infinity:
    chart u = b/a, monomial i -> u^i, so the row is s!·delta_{i,s}.
    """
    if d < 0:
        return []
    if order == 0:
        return monomial_values(ctx, d, pt)
    if pt.is_infinity():
        row = [ctx.zero] * (d + 1)
        if order <= d:
            row[order] = ctx.from_int(factorial(order))
        return row
    row = []
    for i in range(d + 1):
        e = d - i
        if e < order:
            row.append(ctx.zero)
            continue
        row.append(ctx.mul(ctx.from_int(perm(e, order)),
                           ctx.pow(pt.a, e - order)))
    return row


# curve -> {md: profile}; an entry lives only as long as its curve object,
# and none is kept on the curve, so pickles and JSON of curves never see it
_PROFILES = weakref.WeakKeyDictionary()


def gluing_profile(X: BinaryCurve, md):
    """Per-node monomial evaluations (E1[j], E2[j]) shared by a whole md-torus.

    Built once per (curve object, md) and shared by generic h0, h0_vanishing,
    SectionSpace and the torus walk; the table is tuples, so no caller can
    change it.
    """
    md = (md[0], md[1])
    per_curve = _PROFILES.get(X)
    if per_curve is None:
        per_curve = _PROFILES[X] = {}
    profile = per_curve.get(md)
    if profile is None:
        d1, d2 = md
        profile = per_curve[md] = (
            tuple(tuple(monomial_values(X.ctx, d1, p)) for p, _ in X.nodes),
            tuple(tuple(monomial_values(X.ctx, d2, q)) for _, q in X.nodes))
    return profile


def column_split(md):
    """The column counts (k1, k2) of every matrix on md: the k1 = max(d1+1, 0)
    coefficients of f, then the k2 = max(d2+1, 0) coefficients of h."""
    return max(md[0] + 1, 0), max(md[1] + 1, 0)


def _gluing_rows(e1, e2, c):
    # row j = [E1[j] | -c_j · E2[j]], the one row builder (see rows_for_gluing)
    return [[*a, *[v * neg for v in b]]
            for a, b, neg in zip(e1, e2, [-cj for cj in c])]


def rows_for_gluing(L: LineBundle):
    """Gluing matrix rows: row j = [E_{d1}(p_j) | -c_j · E_{d2}(q_j)].

    Over F_p the entries are left unreduced: -c_j·v is zero only where v
    is, and `linalg` reduces every product it forms.
    """
    return _gluing_rows(*gluing_profile(L.curve, L.md), L.c)


def h0_gluings(X: BinaryCurve, md, gluings):
    """Generic h0 of each gluing vector of one md-torus, in order.

    Row j of the matrix is [E1(p_j) | -c_j·E2(q_j)], so c only scales the
    rows of the E2 block by units. In three cases the rank is the same for
    every c, and it is found once per call by eliminating one block's own
    rows:
    - k2 = 0: the matrix is E1;
    - k1 = 0: the matrix is E2 with unit-scaled rows, which keep its rank
      (ncols = 0 included);
    - either block alone has rank n, the row count: so has every matrix.
    A block of k < n columns cannot reach rank n, so it is eliminated only
    when k >= n or the other block is empty. Every other torus gives each
    vector its own gluing matrix, assembled from the shared `gluing_profile`
    table, and its own elimination; nothing else carries over, so this
    stays an oracle independent of the torus walk. No `LineBundle` is built,
    and a vector needs no canonical form: scaling c by a unit scales the
    h-block columns. Each entry must be a unit (over F_p any representative
    of one), and each vector's length is checked. `h0(L)` is the one-vector
    case.
    """
    e1, e2 = gluing_profile(X, md)
    n = len(e1)
    k1, k2 = column_split(md)
    ncols = k1 + k2
    p = modulus(X.ctx)
    rank = None
    for block, k, other in ((e1, k1, k2), (e2, k2, k1)):
        if k >= n or not other:
            r = echelon([list(row) for row in block], k, p)
            if r == n or not other:
                rank = r
                break
    for c in gluings:
        if len(c) != n:
            raise ValueError("gluing vector length != number of nodes")
        yield ncols - (echelon(_gluing_rows(e1, e2, c), ncols, p)
                       if rank is None else rank)


def _section_matrix(L: LineBundle, D: EffectiveDivisor | None = None):
    """Gluing rows, plus vanishing rows for D, and the column split (k1, k2)
    of `column_split`."""
    ctx = L.ctx
    d1, d2 = L.md
    k1, k2 = column_split(L.md)
    rows = rows_for_gluing(L)
    entries = D.entries if D is not None else ()
    for comp, pt, mult in entries:
        dcomp = d1 if comp == 1 else d2
        if mult >= 2 and ctx.is_prime_field() and ctx.p <= dcomp + 1:
            raise ValueError(
                f"field too small for derivative rows: need p > {dcomp + 1}")
        for order in range(mult):
            block = derivative_row(ctx, dcomp, pt, order)
            if comp == 1:
                rows.append(block + [ctx.zero] * k2)
            else:
                rows.append([ctx.zero] * k1 + block)
    return rows, k1, k2


def h0(L: LineBundle) -> int:
    return next(h0_gluings(L.curve, L.md, [L.c]))


def h0_vanishing(L: LineBundle, D: EffectiveDivisor) -> int:
    """h0 of L twisted down by D, via vanishing rows on the gluing matrix."""
    if not L.curve.same_curve(D.curve):
        raise ValueError("divisor lives on a different curve")
    rows, k1, k2 = _section_matrix(L, D)
    return k1 + k2 - echelon(rows, k1 + k2, modulus(L.ctx))


def h1(L: LineBundle) -> int:
    return h0(L) - L.degree + L.curve.genus - 1


@dataclass(frozen=True)
class SectionSpace:
    """Kernel basis of the gluing matrix, split into (f, h) parts."""

    bundle: LineBundle
    basis: tuple = field(init=False)

    def __post_init__(self):
        L = self.bundle
        rows, k1, k2 = _section_matrix(L)
        vecs = kernel_basis(L.ctx, rows, k1 + k2)
        object.__setattr__(
            self, "basis",
            tuple((tuple(v[:k1]), tuple(v[k1:])) for v in vecs))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def value_at(self, sec_index: int, comp: int, pt: ProjPoint):
        ctx = self.bundle.ctx
        coeffs = self.basis[sec_index][comp - 1]
        return _form_value(coeffs, monomial_values(ctx, len(coeffs) - 1, pt),
                           modulus(ctx))


def _form_value(coeffs, mons, p):
    # a form's value at a point, from the point's monomial values: over F_p
    # (p > 0) reduced once, over Q (p = 0) a Fraction
    acc = sum(map(mul, coeffs, mons))
    return acc % p if p else Fraction(acc)


def point_divisor(X: BinaryCurve, pts) -> EffectiveDivisor:
    return EffectiveDivisor(X, [(comp, pt, 1) for comp, pt in pts])


def neutral_pair(M: LineBundle, p, q) -> bool:
    """Do p and q impose the same vanishing conditions on H0(M)?

    p, q are (component, point) on the smooth locus. True iff
    h0(M-p) = h0(M-q) = h0(M-p-q). One matrix holds the gluing rows and the
    vanishing rows of p and q; the three ranks come from its slices.
    Coinciding points are rejected: the notion is only used for genuinely
    distinct regluing branch data.
    """
    if p == q:
        raise ValueError("neutral pair needs distinct points")
    rows, _, _ = _section_matrix(M, point_divisor(M.curve, [p, q]))
    *glue, row_p, row_q = rows
    return _neutral(M.ctx, glue, row_p, row_q)


def _neutral(ctx, glue, row_p, row_q) -> bool:
    # h0(M-p) = h0(M-q) = h0(M-p-q) as three ranks over M's gluing rows
    return (rank_rows(ctx, [*glue, row_p]) == rank_rows(ctx, [*glue, row_q])
            == rank_rows(ctx, [*glue, row_p, row_q]))


@dataclass(frozen=True)
class DescentResult:
    exists: bool
    bundle: LineBundle | None
    unique: bool


def _regluing_pairs(Y: BinaryCurve, pairs) -> list:
    """The pairs as (p, q) tuples. A point on a node of Y, or a point that
    two pairs share, raises ValueError, whatever the bundle."""
    pairs = [tuple(pr) for pr in pairs]
    for comp in (1, 2):
        pts = [pr[comp - 1] for pr in pairs]
        if not set(pts).isdisjoint(Y.branch_points(comp)):
            raise ValueError("regluing point collides with an existing node")
        if len(set(pts)) != len(pts):
            raise ValueError("regluing pairs repeat a branch point")
    return pairs


def descend_gluings(Y: BinaryCurve, md, pairs, gluings):
    """The `DescentResult` of each gluing vector of one md-torus of Y, in
    order: the bundle (md, c) on Y reglued at the node branch pairs
    (p_i on C1, q_i on C2), if possible.

    A bundle L on the reglued curve with h0(L) = h0(M) exists iff every pair
    is neutral; then each gluing scalar is the ratio s(p_i)/s(q_i) taken from
    the first basis section not vanishing at q_i (neutrality makes the ratio
    section-independent — checked). Pairs of base points accept any scalar,
    so uniqueness fails exactly when one occurs. New nodes are appended after
    the existing ones, in the order given.

    The pairs are checked, and everything that depends only on (Y, md,
    pairs) is built, when this is called: the monomials at each p_i and
    q_i (the section values' weights, the vanishing rows of the neutral
    check and the new nodes' gluing rows) and the reglued curve. Each
    vector gets its own eliminations: its kernel basis, the three ranks of
    each neutral check and the closing h0. As in `h0_gluings`, a vector
    needs no canonical form; each entry must be a unit. `descend(M, pairs)`
    is the one-vector case.
    """
    ctx = Y.ctx
    pairs = _regluing_pairs(Y, pairs)
    X = BinaryCurve(ctx, list(Y.nodes) + pairs)
    d1, d2 = md
    k1, k2 = column_split(md)
    ncols = k1 + k2
    e1, e2 = gluing_profile(Y, md)
    at_p = [monomial_values(ctx, d1, p) for p, _ in pairs]
    at_q = [monomial_values(ctx, d2, q) for _, q in pairs]
    vanishing = [(v + [ctx.zero] * k2, [ctx.zero] * k1 + w)
                 for v, w in zip(at_p, at_q)]
    p = modulus(ctx)

    def results():
        for c in gluings:
            if len(c) != len(e1):
                raise ValueError("gluing vector length != number of nodes")
            glue = _gluing_rows(e1, e2, c)
            basis = kernel_basis(ctx, glue, ncols)
            if not basis:
                raise ValueError("descend needs h0(M) >= 1")
            exists = True
            unique = True
            new_c = []
            for mp, mq in zip(at_p, at_q):
                v = [_form_value(s[:k1], mp, p) for s in basis]
                w = [_form_value(s[k1:], mq, p) for s in basis]
                vz = not any(v)
                wz = not any(w)
                if vz and wz:
                    # base point pair: condition f(p) = c·h(q) is vacuous.
                    # Take c's last entry, 1 on a canonical vector, so that
                    # a unit multiple of c gives the same bundle
                    new_c.append(c[-1] if c else ctx.one)
                    unique = False
                elif vz or wz:
                    exists = False
                else:
                    s0 = next(s for s, x in enumerate(w) if x)
                    cj = ctx.div(v[s0], w[s0])
                    if any(vs != ctx.mul(cj, ws) for vs, ws in zip(v, w)):
                        exists = False
                    else:
                        new_c.append(cj)

            # independent check: descent is possible iff every pair is neutral
            neutral = all(_neutral(ctx, glue, row_p, row_q)
                          for row_p, row_q in vanishing)
            if neutral != exists:
                raise RuntimeError(f"descent check failed: neutral pairs "
                                   f"{neutral}, descent {exists}")
            if not exists:
                yield DescentResult(False, None, False)
                continue
            # h0 on the reglued curve: M's gluing rows, then one row per new
            # node, so no monomial table is built for the reglued curve
            got = ncols - echelon(glue + _gluing_rows(at_p, at_q, new_c),
                                  ncols, p)
            if got != len(basis):
                raise RuntimeError(f"descent check failed: h0 = {got} != "
                                   f"h0(M) = {len(basis)}")
            yield DescentResult(True, LineBundle(X, md, [*c, *new_c]), unique)
    return results()


def descend(M: LineBundle, pairs) -> DescentResult:
    """Reglue node branch pairs (p_i on C1, q_i on C2) under M, if possible:
    `descend_gluings` of M's one gluing vector."""
    return next(descend_gluings(M.curve, M.md, pairs, [M.c]))


# ---------------------------------------------------------------------------
# base locus


def _poly_trim(ctx, coeffs):
    c = list(coeffs)
    while c and c[-1] == ctx.zero:
        c.pop()
    return c


def _poly_gcd(ctx, a, b):
    # a gcd up to a scalar; coefficients ascending, both trimmed
    while b:
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            q, shift = ctx.div(a[-1], b[-1]), len(a) - len(b)
            a = _poly_trim(ctx, a[:shift] + [
                ctx.sub(x, ctx.mul(q, y)) for x, y in zip(a[shift:], b)])
        a, b = b, a
    return a


def _root_mod(coeffs, x: int, p: int) -> bool:
    # Horner's rule in plain ints: does the ascending polynomial vanish at x?
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % p
    return acc == 0


def _divisors(n: int):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return sorted(set(out))


def _rational_candidates(g):
    """Candidates for the rational roots of a nonconstant g over Q, ascending.

    With a0 and an the lowest nonzero and the leading coefficient of the
    primitive integer multiple of g, the candidates are 0 if t divides g
    and ±(divisor of a0)/(divisor of an). The divisor search trial-divides
    up to sqrt|a0| and sqrt|an|, and each candidate costs an evaluation of
    every section, so past either bound it raises.
    """
    ints = primitive_row(g)
    k = next(i for i, x in enumerate(ints) if x)
    a0, an = abs(ints[k]), abs(ints[-1])
    if max(a0, an) > RATIONAL_ROOT_BOUND:
        raise ValueError(
            f"base locus over Q: coefficient {max(a0, an)} exceeds the "
            f"rational-root search bound {RATIONAL_ROOT_BOUND}")
    nums, dens = _divisors(a0), _divisors(an)
    if 2 * len(nums) * len(dens) > ROOT_CANDIDATE_BOUND:
        raise ValueError(
            f"base locus over Q: {2 * len(nums) * len(dens)} candidates "
            f"exceed the rational-root candidate bound {ROOT_CANDIDATE_BOUND}")
    cands = {Fraction(0)} if k else set()
    cands.update(Fraction(s * num, den)
                 for num in nums for den in dens for s in (1, -1))
    return sorted(cands)


@dataclass(frozen=True)
class BaseLocus:
    smooth_points: tuple  # (component, ProjPoint): finite ascending, then oo
    nodes: tuple          # node indices where every section vanishes
    full_components: tuple  # components on which every section is identically 0


def base_locus(L: LineBundle) -> BaseLocus:
    """Common vanishing locus of all global sections.

    A point is a base point when every basis section vanishes there; the
    nodes take the same test at their branch points on component 1. The
    smooth candidates on a component are its points off the nodes: the
    finite ones only if the gcd of its forms is not constant (then its
    roots in F_p, or over Q its rational-root candidates), then oo. Only
    points in the ground field are found, so geometric base points over
    extensions stay invisible.
    """
    ctx = L.ctx
    X = L.curve
    space = SectionSpace(L)
    if space.dim == 0:
        raise ValueError("base locus needs h0 >= 1")

    def vanishes(comp, pt):
        return all(space.value_at(s, comp, pt) == ctx.zero
                   for s in range(space.dim))

    nodes = tuple(j for j, (p, _) in enumerate(X.nodes) if vanishes(1, p))
    smooth = []
    full = []
    for comp in (1, 2):
        # monomial i is t^{d-i}: reversed gives ascending powers of t
        g = []
        for sec in space.basis:
            g = _poly_gcd(ctx, g, _poly_trim(ctx, reversed(sec[comp - 1])))
        if not g:
            full.append(comp)
            continue
        if len(g) == 1:  # constant gcd: no finite common root
            xs = ()
        elif ctx.is_prime_field():
            xs = [x for x in range(ctx.p) if _root_mod(g, x, ctx.p)]
        else:
            xs = _rational_candidates(g)
        cands = chain((ProjPoint.finite(ctx, x) for x in xs),
                      [ProjPoint.infinity(ctx)])
        branch = set(X.branch_points(comp))
        smooth += [(comp, pt) for pt in cands
                   if pt not in branch and vanishes(comp, pt)]
    return BaseLocus(tuple(smooth), nodes, tuple(full))
