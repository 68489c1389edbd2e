"""Binary curves: two projective lines glued at g+1 nodes.

A curve of arithmetic genus g is stored as the ordered list of node branch
pairs (p_j on C1, q_j on C2). Genus -1 (zero nodes, disconnected) and 0 are
legal values so partial normalizations stay in the same type.
"""
from __future__ import annotations

from .fields import FieldCtx, field_from_json, field_to_json
from .rng import Rng


class ProjPoint:
    """Point of P^1 in normal form: (a, 1) finite or (1, 0) = infinity."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    @classmethod
    def finite(cls, ctx: FieldCtx, a) -> "ProjPoint":
        return cls(a, ctx.one)

    @classmethod
    def infinity(cls, ctx: FieldCtx) -> "ProjPoint":
        return cls(ctx.one, ctx.zero)

    @classmethod
    def normalized(cls, ctx: FieldCtx, a, b) -> "ProjPoint":
        if b != ctx.zero:
            return cls(ctx.div(a, b), ctx.one)
        if a == ctx.zero:
            raise ValueError("(0,0) is not a projective point")
        return cls(ctx.one, ctx.zero)

    def is_infinity(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return "oo" if self.is_infinity() else f"({self.a})"


def det(ctx: FieldCtx, u: ProjPoint, v: ProjPoint):
    """u.a·v.b - u.b·v.a at the fixed representatives: the value at rep(u)
    of the degree-1 form vanishing exactly at v (u.a - v.a when both are
    finite)."""
    return ctx.sub(ctx.mul(u.a, v.b), ctx.mul(u.b, v.a))


def point_to_json(ctx: FieldCtx, pt: ProjPoint):
    return [ctx.fmt(pt.a), ctx.fmt(pt.b)]


def _is_point_json(obj) -> bool:
    return (isinstance(obj, list) and len(obj) == 2
            and all(isinstance(x, str) for x in obj))


def point_from_json(ctx: FieldCtx, obj) -> ProjPoint:
    a, b = ctx.parse(obj[0]), ctx.parse(obj[1])
    return ProjPoint.normalized(ctx, a, b)


class BinaryCurve:
    """X = C1 ∪ C2, rational components meeting at the listed nodes.

    nodes[j] = (p_j, q_j): branch point on C1 glued to branch point on C2.
    Node order is significant; all subset indexing below is 0-based.
    """

    def __init__(self, ctx: FieldCtx, nodes):
        self.ctx = ctx
        self.nodes = tuple((p, q) for p, q in nodes)
        ps = [p for p, _ in self.nodes]
        qs = [q for _, q in self.nodes]
        if len(set(ps)) != len(ps):
            raise ValueError("branch points on C1 not distinct")
        if len(set(qs)) != len(qs):
            raise ValueError("branch points on C2 not distinct")

    @property
    def genus(self) -> int:
        return len(self.nodes) - 1

    def branch_points(self, comp: int):
        if comp == 1:
            return [p for p, _ in self.nodes]
        if comp == 2:
            return [q for _, q in self.nodes]
        raise ValueError("component must be 1 or 2")

    def smooth_points(self, comp: int):
        """All F_p-rational smooth points on the given component (finite field only)."""
        ctx = self.ctx
        if not ctx.is_prime_field():
            raise ValueError("smooth point enumeration needs a finite field")
        branch = set(self.branch_points(comp))
        pts = [ProjPoint.finite(ctx, a) for a in range(ctx.p)]
        pts.append(ProjPoint.infinity(ctx))
        return [pt for pt in pts if pt not in branch]

    def same_curve(self, other: "BinaryCurve") -> bool:
        return self is other or (self.ctx == other.ctx
                                  and self.nodes == other.nodes)

    def to_json(self) -> dict:
        return {
            "field": field_to_json(self.ctx),
            "nodes": [[point_to_json(self.ctx, p), point_to_json(self.ctx, q)]
                      for p, q in self.nodes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BinaryCurve":
        """Inverse of to_json; malformed input raises ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("field"), dict) \
                or not isinstance(obj.get("nodes"), list):
            raise ValueError("curve JSON must be an object with a 'field' "
                             "object and a 'nodes' list")
        ctx = field_from_json(obj["field"])
        nodes = []
        for n in obj["nodes"]:
            if not (isinstance(n, list) and len(n) == 2
                    and all(_is_point_json(pt) for pt in n)):
                raise ValueError("each node must be [[a, b], [a, b]] with "
                                 f"string coordinates, got {n!r}")
            try:
                nodes.append((point_from_json(ctx, n[0]),
                              point_from_json(ctx, n[1])))
            except ZeroDivisionError:
                raise ValueError(f"node {n!r} divides by zero") from None
        return cls(ctx, nodes)

    def __repr__(self):
        return f"BinaryCurve(g={self.genus}, {list(self.nodes)!r})"


def normalize_at(X: BinaryCurve, S):
    """Separate the branches at the node subset S (0-based indices).

    Returns (Y, removed) where Y is the genus g-e binary curve keeping the
    other nodes in order and removed lists the (p_i, q_i) pairs in S order,
    ready to be reglued by cohomology.descend.
    """
    S = sorted(set(S))
    n = len(X.nodes)
    for i in S:
        if not (0 <= i < n):
            raise ValueError(f"node index {i} out of range")
    keep = [X.nodes[j] for j in range(n) if j not in set(S)]
    removed = [X.nodes[j] for j in S]
    return BinaryCurve(X.ctx, keep), removed


class MoebiusMap:
    """Fractional-linear map of P^1, a 2x2 invertible matrix up to scalar.

    Canonical form: first nonzero entry (row-major) scaled to 1.
    """

    def __init__(self, ctx: FieldCtx, m00, m01, m10, m11):
        det = ctx.sub(ctx.mul(m00, m11), ctx.mul(m01, m10))
        if det == ctx.zero:
            raise ValueError("degenerate (non-invertible) map")
        self.ctx = ctx
        lead = next(x for x in (m00, m01, m10, m11) if x != ctx.zero)
        inv = ctx.inv(lead)
        self.m = (ctx.mul(m00, inv), ctx.mul(m01, inv),
                  ctx.mul(m10, inv), ctx.mul(m11, inv))

    def apply_raw(self, pt: ProjPoint):
        """Image coordinates before normalization: M · (a, b)^T."""
        ctx = self.ctx
        m00, m01, m10, m11 = self.m
        a = ctx.add(ctx.mul(m00, pt.a), ctx.mul(m01, pt.b))
        b = ctx.add(ctx.mul(m10, pt.a), ctx.mul(m11, pt.b))
        return a, b

    def apply(self, pt: ProjPoint) -> ProjPoint:
        a, b = self.apply_raw(pt)
        return ProjPoint.normalized(self.ctx, a, b)

    def apply_with_scale(self, pt: ProjPoint):
        """(image point, mu) with M·rep(pt) = mu · rep(image).

        mu is the per-point scale factor that enters the gluing-vector
        transformation law for homogeneous forms.
        """
        ctx = self.ctx
        a, b = self.apply_raw(pt)
        img = ProjPoint.normalized(ctx, a, b)
        mu = b if b != ctx.zero else a
        return img, mu

    def inverse(self) -> "MoebiusMap":
        m00, m01, m10, m11 = self.m
        ctx = self.ctx
        return MoebiusMap(ctx, m11, ctx.neg(m01), ctx.neg(m10), m00)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self ∘ other."""
        ctx = self.ctx
        a, b, c, d = self.m
        e, f, g, h = other.m
        return MoebiusMap(ctx,
                          ctx.add(ctx.mul(a, e), ctx.mul(b, g)),
                          ctx.add(ctx.mul(a, f), ctx.mul(b, h)),
                          ctx.add(ctx.mul(c, e), ctx.mul(d, g)),
                          ctx.add(ctx.mul(c, f), ctx.mul(d, h)))

    def __eq__(self, other):
        return isinstance(other, MoebiusMap) and self.ctx == other.ctx and self.m == other.m

    def __repr__(self):
        return f"MoebiusMap{self.m!r}"


def _to_standard_triple(ctx, v1: ProjPoint, v2: ProjPoint, v3: ProjPoint) -> MoebiusMap:
    # sends v1,v2,v3 to (1,0),(0,1),(1,1); needs the three points distinct
    d12 = det(ctx, v1, v2)
    if d12 == ctx.zero:
        raise ValueError("points not distinct")
    inv = ctx.inv(d12)
    # [v1 v2]^{-1}
    n00, n01 = ctx.mul(v2.b, inv), ctx.neg(ctx.mul(v2.a, inv))
    n10, n11 = ctx.neg(ctx.mul(v1.b, inv)), ctx.mul(v1.a, inv)
    w1 = ctx.add(ctx.mul(n00, v3.a), ctx.mul(n01, v3.b))
    w2 = ctx.add(ctx.mul(n10, v3.a), ctx.mul(n11, v3.b))
    if w1 == ctx.zero or w2 == ctx.zero:
        raise ValueError("points not distinct")
    i1, i2 = ctx.inv(w1), ctx.inv(w2)
    return MoebiusMap(ctx, ctx.mul(i1, n00), ctx.mul(i1, n01),
                      ctx.mul(i2, n10), ctx.mul(i2, n11))


def moebius_through(a1, a2, a3, b1, b2, b3, ctx: FieldCtx) -> MoebiusMap:
    """The unique Moebius map with a_i -> b_i (each triple pairwise distinct)."""
    ta = _to_standard_triple(ctx, a1, a2, a3)
    tb = _to_standard_triple(ctx, b1, b2, b3)
    return tb.inverse().compose(ta)


def random_curve(g: int, ctx: FieldCtx, rng: Rng) -> BinaryCurve:
    """Seeded sample: g-2 random finite node pairs, then (0,0), (1,1), (oo,oo).

    The free branch coordinates are distinct per side and avoid {0, 1, oo}.
    Over F_p they come from {2, ..., p-1}, so this needs p >= g.
    """
    if g < 2:
        raise ValueError("random_curve needs g >= 2")
    if ctx.is_prime_field():
        if ctx.p < g:
            raise ValueError(f"field too small: p = {ctx.p} < g = {g}")
        pool = [ctx.from_int(a) for a in range(2, ctx.p)]
    else:
        pool = [ctx.from_int(a) for a in range(2, g + 18)]
    left = rng.distinct(pool, g - 2)
    right = rng.distinct(pool, g - 2)
    nodes = [(ProjPoint.finite(ctx, a), ProjPoint.finite(ctx, b))
             for a, b in zip(left, right)]
    nodes.append((ProjPoint.finite(ctx, ctx.zero), ProjPoint.finite(ctx, ctx.zero)))
    nodes.append((ProjPoint.finite(ctx, ctx.one), ProjPoint.finite(ctx, ctx.one)))
    nodes.append((ProjPoint.infinity(ctx), ProjPoint.infinity(ctx)))
    return BinaryCurve(ctx, nodes)


def standard_curve(g: int, ctx: FieldCtx) -> BinaryCurve:
    """Fixed curve with nodes (0,0), (1,1), ..., (g-1,g-1), (oo,oo).

    Identical branch data on both sides, so it is hyperelliptic for every
    g >= 2 (the matching map is the identity). Handy as a deterministic
    fixture; needs p >= g over a prime field.
    """
    if g < 0:
        raise ValueError("needs g >= 0")
    if ctx.is_prime_field() and ctx.p < g:
        raise ValueError("field too small")
    pts = [ProjPoint.finite(ctx, ctx.from_int(i)) for i in range(g)]
    pts.append(ProjPoint.infinity(ctx))
    return BinaryCurve(ctx, [(pt, pt) for pt in pts])


def random_moebius(ctx: FieldCtx, rng: Rng) -> "MoebiusMap":
    """Uniform-ish invertible map: random entries, rejected until det != 0."""
    if not ctx.is_prime_field():
        raise ValueError("random map needs a finite field")
    while True:
        a, b, c, d = (ctx.from_int(rng.below(ctx.p)) for _ in range(4))
        if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero:
            return MoebiusMap(ctx, a, b, c, d)


def random_hyperelliptic_curve(g: int, ctx: FieldCtx, rng: Rng) -> BinaryCurve:
    """Seeded hyperelliptic sample: random branch points glued along a
    random Moebius map, so the matching map exists by construction."""
    if g < 2:
        raise ValueError("needs g >= 2")
    if not ctx.is_prime_field():
        raise ValueError("needs a finite field")
    if ctx.p + 1 < g + 1:
        raise ValueError("field too small")
    psi = random_moebius(ctx, rng)
    pool = [ProjPoint.finite(ctx, ctx.from_int(a)) for a in range(ctx.p)]
    pool.append(ProjPoint.infinity(ctx))
    ps = rng.distinct(pool, g + 1)
    return BinaryCurve(ctx, [(p, psi.apply(p)) for p in ps])


def is_hyperelliptic_fast(X: BinaryCurve):
    """(flag, psi): does one Moebius map send every p_j to q_j?

    psi is pinned by the first three node pairs; the remaining pairs either
    all match it (hyperelliptic, psi returned) or not. Ground truth is the
    exhaustive multidegree-(1,1) pencil search, which tests compare against.
    """
    if X.genus < 2:
        raise ValueError("hyperelliptic test needs g >= 2")
    ps = X.branch_points(1)
    qs = X.branch_points(2)
    psi = moebius_through(ps[0], ps[1], ps[2], qs[0], qs[1], qs[2], X.ctx)
    for p, q in X.nodes[3:]:
        if psi.apply(p) != q:
            return False, None
    return True, psi
