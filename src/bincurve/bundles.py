"""Line bundles on binary curves via multidegree + gluing vector.

A bundle is (multidegree (d1,d2), one unit c_j per node): global sections are
pairs of homogeneous forms (f of degree d1, h of degree d2) with
f(p_j) = c_j * h(q_j) at the fixed representatives (a,1)/(1,0). Gluing
vectors are stored canonically (last coordinate = 1), so equality of classes
is literal equality and each md-torus is exactly (k*)^g.
"""
from __future__ import annotations

from fractions import Fraction

from .curve import (BinaryCurve, MoebiusMap, det, is_hyperelliptic_fast,
                    normalize_at)
from .fields import FieldCtx


class LineBundle:
    __slots__ = ("curve", "md", "c")

    def __init__(self, curve: BinaryCurve, md, c):
        ctx = curve.ctx
        d1, d2 = int(md[0]), int(md[1])
        # into the field first: over F_p, x and x + p are one element and a
        # multiple of p is zero, so it is caught as a non-unit below
        if ctx.is_prime_field():
            p = ctx.p
            c = tuple([x % p for x in c])
        else:
            c = tuple([Fraction(x) for x in c])
        if len(c) != len(curve.nodes):
            raise ValueError("gluing vector length != number of nodes")
        if ctx.zero in c:
            raise ValueError("gluing coordinates must be units")
        if c and c[-1] != ctx.one:
            # canonical form: divide through by the last coordinate
            last_inv = ctx.inv(c[-1])
            c = tuple(ctx.mul(x, last_inv) for x in c)
        self.curve = curve
        self.md = (d1, d2)
        self.c = c

    @property
    def ctx(self) -> FieldCtx:
        return self.curve.ctx

    @property
    def degree(self) -> int:
        return self.md[0] + self.md[1]

    def __eq__(self, other):
        return (isinstance(other, LineBundle)
                and self.curve.same_curve(other.curve)
                and self.md == other.md and self.c == other.c)

    def __hash__(self):
        return hash((self.md, self.c))

    def __repr__(self):
        return f"LineBundle(md={self.md}, c={self.c!r})"

    def to_json(self) -> dict:
        ctx = self.ctx
        return {"md": list(self.md), "c": [list(ctx.to_pair(x)) for x in self.c]}


def _is_int_json(x) -> bool:
    return isinstance(x, (int, str)) and not isinstance(x, bool)


def bundle_from_json(X: BinaryCurve, obj: dict) -> LineBundle:
    """Inverse of LineBundle.to_json; malformed input raises ValueError."""
    ctx = X.ctx
    if not isinstance(obj, dict):
        raise ValueError("bundle JSON must be an object with 'md' and 'c'")
    md, c = obj.get("md"), obj.get("c")
    if not (isinstance(md, list) and len(md) == 2
            and all(_is_int_json(d) for d in md)):
        raise ValueError(f"bundle 'md' must be [d1, d2], got {md!r}")
    n = len(X.nodes)
    if not (isinstance(c, list) and len(c) == n
            and all(isinstance(pair, list) and len(pair) == 2
                    and all(_is_int_json(x) for x in pair) for pair in c)):
        raise ValueError(f"bundle 'c' must be a list of {n} [num, den] "
                         f"pairs, got {c!r}")
    try:
        units = [ctx.from_pair(pair) for pair in c]
    except ZeroDivisionError:
        raise ValueError(f"bundle 'c' has a zero denominator: {c!r}") from None
    return LineBundle(X, (int(md[0]), int(md[1])), units)


def trivial(X: BinaryCurve) -> LineBundle:
    one = X.ctx.one
    return LineBundle(X, (0, 0), [one] * len(X.nodes))


def tensor(L: LineBundle, M: LineBundle) -> LineBundle:
    if not L.curve.same_curve(M.curve):
        raise ValueError("bundles live on different curves")
    ctx = L.ctx
    md = (L.md[0] + M.md[0], L.md[1] + M.md[1])
    return LineBundle(L.curve, md, [ctx.mul(a, b) for a, b in zip(L.c, M.c)])


def dual(L: LineBundle) -> LineBundle:
    ctx = L.ctx
    return LineBundle(L.curve, (-L.md[0], -L.md[1]), [ctx.inv(x) for x in L.c])


def power(L: LineBundle, n: int) -> LineBundle:
    ctx = L.ctx
    md = (n * L.md[0], n * L.md[1])
    return LineBundle(L.curve, md, [ctx.pow(x, n) for x in L.c])


def bundle_count(X: BinaryCurve) -> int:
    """Size of each multidegree torus over a finite field: (p-1)^g."""
    ctx = X.ctx
    if not ctx.is_prime_field():
        raise ValueError("enumeration needs a finite field")
    return (ctx.p - 1) ** max(X.genus, 0)


def gluing_at(X: BinaryCurve, index: int) -> tuple:
    """index -> canonical gluing tuple: base-(p-1) digits, first coordinate
    slowest.

    The last coordinate is pinned to 1, so indices `0 .. (p-1)^g - 1`
    enumerate each isomorphism class exactly once (lexicographic in the
    free coordinates, units ascending 1..p-1).
    """
    if not (0 <= index < bundle_count(X)):
        raise ValueError("index out of range")
    u = X.ctx.p - 1
    c = [1] if X.genus >= 0 else []
    for _ in range(max(X.genus, 0)):
        index, d = divmod(index, u)
        c.append(d + 1)
    c.reverse()
    return tuple(c)


def bundle_at(X: BinaryCurve, md, index: int) -> LineBundle:
    """The class of torus index `index` in multidegree md (see gluing_at)."""
    return LineBundle(X, md, gluing_at(X, index))


def enumerate_bundles(X: BinaryCurve, md):
    """All (p-1)^g classes of the given multidegree, in bundle_at order."""
    for i in range(bundle_count(X)):
        yield bundle_at(X, md, i)


class EffectiveDivisor:
    """Formal sum of smooth points; entries (component, point, multiplicity),
    a repeated point merged into its first entry."""

    def __init__(self, X: BinaryCurve, entries):
        branch = {1: set(X.branch_points(1)), 2: set(X.branch_points(2))}
        acc = {}
        for comp, pt, mult in entries:
            if comp not in (1, 2):
                raise ValueError("component must be 1 or 2")
            mult = int(mult)
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if pt in branch[comp]:
                raise ValueError(f"divisor point {pt!r} sits on a node")
            acc[(comp, pt)] = acc.get((comp, pt), 0) + mult
        self.curve = X
        self.entries = tuple((comp, pt, m) for (comp, pt), m in acc.items())

    def degree_on(self, comp: int) -> int:
        return sum(m for c, _, m in self.entries if c == comp)

    @property
    def multidegree(self):
        return (self.degree_on(1), self.degree_on(2))

    @property
    def degree(self) -> int:
        return self.degree_on(1) + self.degree_on(2)

    def __add__(self, other: "EffectiveDivisor") -> "EffectiveDivisor":
        if not self.curve.same_curve(other.curve):
            raise ValueError("divisors on different curves")
        return EffectiveDivisor(self.curve, self.entries + other.entries)

    def __repr__(self):
        return f"EffectiveDivisor({list(self.entries)!r})"


def from_divisor(X: BinaryCurve, D: EffectiveDivisor) -> LineBundle:
    """O_X(D): gluing c_j = A(p_j)/B(q_j), A and B the forms cutting out D.

    Each point contributes the homogeneous linear factor det(-, pt), so
    points at infinity need no special casing; at finite points this is the
    monic-polynomial ratio. The pair (A, B) itself is a section, so h0 >= 1
    always.
    """
    if not X.same_curve(D.curve):
        raise ValueError("divisor lives on a different curve")
    ctx = X.ctx
    c = []
    for p, q in X.nodes:
        num = ctx.one
        den = ctx.one
        for comp, pt, mult in D.entries:
            if comp == 1:
                num = ctx.mul(num, ctx.pow(det(ctx, p, pt), mult))
            else:
                den = ctx.mul(den, ctx.pow(det(ctx, q, pt), mult))
        c.append(ctx.div(num, den))
    return LineBundle(X, D.multidegree, c)


def apply_moebius(L: LineBundle, M1: MoebiusMap, M2: MoebiusMap) -> LineBundle:
    """Transport L to the coordinate-moved curve (h0 is preserved).

    With M1·rep(p_j) = mu_j·rep(p'_j) and M2·rep(q_j) = nu_j·rep(q'_j) the
    gluing transforms as c'_j = c_j · nu_j^{d2} · mu_j^{-d1}.
    """
    ctx = L.ctx
    d1, d2 = L.md
    nodes = []
    c = []
    for (p, q), cj in zip(L.curve.nodes, L.c):
        p2, mu = M1.apply_with_scale(p)
        q2, nu = M2.apply_with_scale(q)
        nodes.append((p2, q2))
        c.append(ctx.mul(cj, ctx.mul(ctx.pow(nu, d2), ctx.pow(mu, -d1))))
    return LineBundle(BinaryCurve(ctx, nodes), (d1, d2), c)


def canonical_bundle(X: BinaryCurve) -> LineBundle:
    """Dualizing bundle, md (g-1, g-1), from homogeneous residues.

    Sections are pairs of differentials with simple poles along the nodes and
    opposite residues there. On C1 such a differential is f·(x dy - y dx)/F
    with F = prod_k det((x, y), rep(p_k)); its residue at p_j is
    -f(rep(p_j)) / prod_{k != j} det(rep(p_j), rep(p_k)), the same expression
    at finite points and at infinity, and likewise on C2. Opposite residues
    force
        c_j = -prod_{k != j} det(p_j, p_k) / prod_{k != j} det(q_j, q_k),
    with det(u, v) = u.a·v.b - u.b·v.a (p_j - p_k when both are finite).
    At g = 0 the products are empty, so c = (-1), which is (1) in canonical
    form, on md (-1, -1). Verifies h0 = g before returning.
    """
    g = X.genus
    if g < 0:
        raise ValueError("canonical bundle construction needs g >= 0")
    ctx = X.ctx
    ps = X.branch_points(1)
    qs = X.branch_points(2)
    c = []
    for j in range(g + 1):
        num = ctx.one
        den = ctx.one
        for k in range(g + 1):
            if k != j:
                num = ctx.mul(num, det(ctx, ps[j], ps[k]))
                den = ctx.mul(den, det(ctx, qs[j], qs[k]))
        c.append(ctx.neg(ctx.div(num, den)))
    L = LineBundle(X, (g - 1, g - 1), c)

    from . import cohomology  # deferred: cohomology builds bundles via descend
    got = cohomology.h0(L)
    if got != g:
        raise RuntimeError(
            f"canonical bundle sanity check failed: h0 = {got} != {g}")
    return L


def hyperelliptic_class(X: BinaryCurve) -> LineBundle:
    """The degree-2 pencil class H of a hyperelliptic curve, md (1,1), h0 = 2.

    The double cover is t on C1 and psi^{-1} on C2, so H is the pullback of
    O(1): with N = matrix of psi^{-1} and N·rep(q_j) = mu_j·rep(p_j), linear
    forms pull back to pairs (l, l∘N) and the gluing is c_j = mu_j^{-1}.
    """
    flag, psi = is_hyperelliptic_fast(X)
    if not flag:
        raise ValueError("curve is not hyperelliptic")
    ctx = X.ctx
    N = psi.inverse()
    c = []
    for p, q in X.nodes:
        img, mu = N.apply_with_scale(q)
        if img != p:
            raise RuntimeError("hyperelliptic class: matching map does not "
                               "send q_j to p_j")
        c.append(ctx.inv(mu))
    L = LineBundle(X, (1, 1), c)

    from . import cohomology
    got = cohomology.h0(L)
    if got != 2:
        raise RuntimeError(
            f"hyperelliptic class sanity check failed: h0 = {got} != 2")
    return L


def restrict_to_normalization(L: LineBundle, S) -> LineBundle:
    """Pull back to the partial normalization Y_S: drop the gluing rows in S."""
    Y, _ = normalize_at(L.curve, S)
    drop = set(S)
    c = [cj for j, cj in enumerate(L.c) if j not in drop]
    return LineBundle(Y, L.md, c)
