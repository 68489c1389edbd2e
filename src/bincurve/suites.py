"""Verification suites: each one checks a cluster of statements end to end
and returns a deterministic, JSON-ready result.

Every suite is a pure function of its keyword arguments; all randomness
flows from the seed. Summaries never contain wall-clock data, so reports
are byte-identical across reruns and worker counts.
"""
from __future__ import annotations

import functools
import inspect
from dataclasses import asdict, dataclass
from itertools import product, tee

from . import cohomology
from .brill_noether import (BNQuery, DimPrediction, assemble_Wbar,
                            bn_enumerate, clifford_equality_classes,
                            clifford_index, growth_estimate, martens_bound,
                            pool_map, predicted_empty, reduce_curve_mod, rho,
                            torus_h0, verify_canonical_very_ample)
from .bundles import LineBundle, canonical_bundle, hyperelliptic_class
from .cohomology import h0_gluings
from .curve import (BinaryCurve, ProjPoint, is_hyperelliptic_fast,
                    normalize_at, random_curve, random_hyperelliptic_curve,
                    standard_curve)
from .fields import PrimeField, Rationals
from .picard import balanced_set
from .rng import DEFAULT_SEED, Rng


@dataclass
class SuiteResult:
    name: str
    passed: bool
    config: dict
    summary: dict

    def to_json(self):
        return {"suite": self.name, "passed": self.passed,
                "config": self.config, "summary": self.summary}


SUITES = {}


def _suite(name: str):
    """Register in SUITES, under `name`, a suite that returns (passed,
    summary). Its SuiteResult's config is the call's arguments over the
    signature's defaults, tuples as lists, less the plumbing `jobs`."""
    def register(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            config = {k: list(v) if isinstance(v, tuple) else v
                      for k, v in bound.arguments.items() if k != "jobs"}
            passed, summary = fn(*bound.args, **bound.kwargs)
            return SuiteResult(name, passed, config, summary)

        SUITES[name] = run
        return run
    return register


def _curve_grid(gs, ps, seed):
    """(where, X) per fixture, where = {"g", "p", "curve"}: per (g, p) the
    standard (hyperelliptic) curve and, if g >= 3 and p >= g + 3, a random
    one drawn from the cell's child rng, which every cell spawns. The
    p >= g + 3 gate picks the fixtures (`random_curve` needs only p >= g);
    moving it would change every report."""
    rng = Rng(seed)
    for g in gs:
        for p in ps:
            ctx = PrimeField(p)
            crng = rng.spawn()
            curves = [standard_curve(g, ctx)]
            if g >= 3 and p >= g + 3:
                curves.append(random_curve(g, ctx, crng))
            for ci, X in enumerate(curves):
                yield {"g": g, "p": p, "curve": ci}, X


@_suite("riemann")
def suite_riemann(gs=(1, 2, 3), ps=(5, 7), seed=DEFAULT_SEED):
    """h0 = d-g+1 for every balanced class with d >= 2g-1 (grid d <= 2g+2)."""
    checked = 0
    violations = []
    for where, X in _curve_grid(gs, ps, seed):
        g = X.genus
        for d in range(2 * g - 1, 2 * g + 3):
            for md in balanced_set(d, g):
                for c, n in torus_h0(X, md):
                    checked += 1
                    if n != d - g + 1:
                        violations.append(
                            {**where, "md": list(md),
                             "c": [str(x) for x in c],
                             "h0": n, "expected": d - g + 1})
    return not violations, {"classes_checked": checked,
                            "violations": violations[:10],
                            "n_violations": len(violations)}


@_suite("clifford")
def suite_clifford(gs=(1, 2, 3), ps=(5, 7), seed=DEFAULT_SEED):
    """h0 <= d/2+1 on 0 <= d <= 2g. For even d <= 2g-2 the classes with
    equality are exactly those `clifford_equality_classes` names, which
    must be at most one: O, w, or H^(d/2) on a hyperelliptic curve. Plus
    index-0 <=> hyperelliptic cross-checks."""
    checked = 0
    problems = []
    for where, X in _curve_grid(gs, ps, seed):
        g = X.genus
        for d in range(0, 2 * g + 1):
            hits = []
            for md in balanced_set(d, g):
                for c, n in torus_h0(X, md):
                    checked += 1
                    if 2 * n > d + 2:
                        problems.append({**where, "kind": "bound",
                                         "md": list(md), "h0": n})
                    elif 2 * n == d + 2 and d <= 2 * g - 2:
                        hits.append((md, c))
            # every class of degree 2g attains d/2+1 (Riemann): no equality
            # statement there
            if d % 2 == 0 and d <= 2 * g - 2:
                named = clifford_equality_classes(X, d)
                if hits != named or len(named) > 1:
                    problems.append({**where, "kind": "equality", "d": d,
                                     "n_hits": len(hits),
                                     "n_named": len(named)})
        if g >= 2:
            hyp, _ = is_hyperelliptic_fast(X)
            rep = clifford_index(X)
            if (rep.cliff == 0) != hyp:
                problems.append({**where, "kind": "index-vs-pencil",
                                 "cliff": rep.cliff, "hyp": hyp})
    return not problems, {"classes_checked": checked,
                          "problems": problems[:10],
                          "n_problems": len(problems)}


def serre_dual_gluing(w: LineBundle, c) -> list:
    """w_j / c_j, the gluing of w ⊗ L^-1 for L of gluing c, on md(w) - md(L).
    It is not canonicalised: generic h0 needs no canonical form."""
    ctx = w.ctx
    return [ctx.mul(wj, ctx.inv(cj)) for wj, cj in zip(w.c, c)]


@_suite("serre")
def suite_serre(gs=(1, 2, 3), ps=(5, 7), seed=DEFAULT_SEED):
    """h0(w ⊗ L^-1) = h0(L) - d + g - 1 on the full exhaustive grid; ties the
    residue-formula w to Riemann-Roch. The right side is the torus walk's
    h0 of L, the left side the generic h0 (`h0_gluings`) of the gluing
    `serre_dual_gluing` on md(w) - md, with no bundle built per class; so
    the two h0 paths are compared on every class too."""
    checked = 0
    violations = []
    for where, X in _curve_grid(gs, ps, seed):
        g = X.genus
        w = canonical_bundle(X)
        for d in range(0, 2 * g + 3):
            for md in balanced_set(d, g):
                walk, feed = tee(torus_h0(X, md))
                lhs_all = h0_gluings(
                    X, (g - 1 - md[0], g - 1 - md[1]),
                    (serre_dual_gluing(w, c) for c, _ in feed))
                for (c, n), lhs in zip(walk, lhs_all):
                    rhs = n - d + g - 1
                    checked += 1
                    if lhs != rhs:
                        violations.append(
                            {**where, "md": list(md),
                             "c": [str(x) for x in c],
                             "lhs": lhs, "rhs": rhs})
    return not violations, {"classes_checked": checked,
                            "violations": violations[:10],
                            "n_violations": len(violations)}


@_suite("empty")
def suite_empty(gs=(0, 1, 2, 3, 4), ps=(7,), seed=DEFAULT_SEED):
    """Every provably-empty (md, r) case has no class with h0 >= r+1, by the
    generic h0 (`h0_gluings`) of every class, each gluing vector a tuple of
    units with the last pinned to 1. The torus walk cannot be the oracle: it
    stops at the very rank floor `predicted_empty` reads, so it cannot
    disagree."""
    cases = 0
    violations = []
    for where, X in _curve_grid(gs, ps, seed):
        g = X.genus
        units = X.ctx.units()
        for d in range(-1, g + 3):
            for md in balanced_set(d, g):
                rs = [r for r in range(0, 3) if predicted_empty(md, r, g)]
                if not rs:
                    continue
                # every class of the torus once, in `enumerate_bundles` order
                classes = ((*u, 1) for u in product(units, repeat=g))
                hs = list(h0_gluings(X, md, classes))
                for r in rs:
                    cases += 1
                    n = sum(1 for h in hs if h >= r + 1)
                    if n != 0:
                        violations.append({**where, "md": list(md), "r": r,
                                           "count": n})
    return not violations, {"cases": cases, "violations": violations[:10],
                            "n_violations": len(violations)}


@_suite("lemma-e")
def suite_lemma_e(ps=(5, 7), seed=DEFAULT_SEED, g=3):
    """Degree-split bound h0 <= d1+d2+1-min(d2,g), its equality regime
    d2 >= g, and the descent dictionary on one-node regluings: the fiber
    over M contains exactly one (resp. zero, resp. all) classes matching
    h0(M) according to the descent result. The bound and the equality read
    the torus walk's h0; a fiber is the generic h0 (`h0_gluings`) of the
    p-1 vectors c + (u,) over each class M = (md, c) of Y the walk finds."""
    rng = Rng(seed)
    checked = 0
    problems = []
    for p in ps:
        ctx = PrimeField(p)
        # a fixture choice, as in _curve_grid: random_curve needs g >= 2 and
        # p >= g, so genus 0 and 1 take the standard curve
        X = (random_curve(g, ctx, rng.spawn()) if g >= 2 and p >= g + 3
             else standard_curve(g, ctx))
        # (a)+(b): bound and equality regime, exhaustive on a small grid
        for lo in range(-1, g + 2):
            for hi in range(lo, g + 2):
                bound = lo + hi + 1 - min(hi, g)
                for md in ((lo, hi), (hi, lo)):
                    for _, n in torus_h0(X, md):
                        checked += 1
                        if n > bound:
                            problems.append({"p": p, "kind": "bound",
                                             "md": list(md), "h0": n,
                                             "bound": bound})
                        if hi >= g and n != bound:
                            problems.append({"p": p, "kind": "equality",
                                             "md": list(md), "h0": n,
                                             "bound": bound})
        # (c): descent fibers over one reglued node; node g is the last
        # one, so regluing it onto Y gives back X itself
        Y, removed = normalize_at(X, [g])
        pair = removed[0]
        units = ctx.units()
        for d in (1, 2):
            for md in balanced_set(d, g - 1):
                if md[0] < -1 or md[1] < -1:
                    continue
                for c, hM in torus_h0(Y, md, at_least=1):
                    M = LineBundle(Y, md, c)
                    res = cohomology.descend(M, [pair])
                    hs = h0_gluings(X, md, [c + (unit,) for unit in units])
                    fiber = [unit for unit, h in zip(units, hs) if h == hM]
                    checked += 1
                    expected = 0 if not res.exists else 1 if res.unique else p - 1
                    ok = len(fiber) == expected
                    if res.exists and res.unique:
                        # gluing vectors canonicalize, so compare as bundles
                        want = LineBundle(X, md, c + (fiber[0],))
                        ok = ok and res.bundle == want
                    if not ok:
                        problems.append({"p": p, "kind": "descent-fiber",
                                         "md": list(md),
                                         "c": [str(x) for x in c],
                                         "fiber": len(fiber),
                                         "exists": res.exists,
                                         "unique": res.unique})
    return not problems, {"checked": checked, "problems": problems[:10],
                          "n_problems": len(problems)}


def _hyp_check(X: BinaryCurve) -> dict:
    """Worker: compare the matching-map test against the exhaustive pencil
    scan on one curve. Safe to run in a subprocess."""
    flag, _ = is_hyperelliptic_fast(X)
    rep = bn_enumerate(X, BNQuery((1, 1), 1), witness_cap=2)
    agree = flag == (rep.count > 0)
    witness_ok = None
    if flag and agree:
        H = hyperelliptic_class(X)
        witness_ok = rep.count == 1 and rep.witnesses[0] == H.c
    return {"hyp": flag, "count": rep.count, "agree": agree,
            "witness_ok": witness_ok}


@_suite("hyperelliptic")
def suite_hyperelliptic(gs=(3, 4), ps=(7, 11), n_random=150, n_special=50,
                        seed=DEFAULT_SEED, jobs=1):
    """Matching-map hyperellipticity test vs exhaustive degree-2 pencil scan.

    Seeded curves per (g, p): n_random generic ones plus n_special built
    hyperelliptic by construction, so both directions of the equivalence
    get exercised. When hyperelliptic, the scan must find exactly one class
    and it must be the constructed pencil. The per-curve checks of every
    combo go through one `pool_map` call; results keep their order.
    """
    rng = Rng(seed)
    combos = []
    curves = []
    for g in gs:
        for p in ps:
            ctx = PrimeField(p)
            crng = rng.spawn()
            start = len(curves)
            curves += [random_curve(g, ctx, crng) for _ in range(n_random)]
            curves += [random_hyperelliptic_curve(g, ctx, crng)
                       for _ in range(n_special)]
            combos.append((g, p, start, len(curves)))
    checked = pool_map(_hyp_check, curves, jobs)
    summary = []
    failures = 0
    for g, p, start, stop in combos:
        results = checked[start:stop]
        bad = [{"index": i, **res} for i, res in enumerate(results)
               if not res["agree"] or res["witness_ok"] is False]
        failures += len(bad)
        summary.append({"g": g, "p": p, "n": len(results),
                        "n_hyperelliptic": sum(r["hyp"] for r in results),
                        "failures": bad[:10], "n_failures": len(bad)})
    return failures == 0, {"combos": summary}


# W̄ dimension fixtures over Q: the branch points a_j and b_j of the two
# lines (None is oo), and whether the curve is hyperelliptic. "nonhyp4"
# swaps two of "hyp4"'s points on one side, breaking the matching map.
DIM_FIXTURES = {
    "hyp3": ((0, 1, 2, None), (0, 1, 2, None), True),
    "hyp4": ((0, 1, 2, 3, None), (0, 1, 2, 3, None), True),
    "nonhyp4": ((0, 1, 2, 3, None), (0, 1, 3, 2, None), False),
    "bn3": ((0, 1, 3, None), (2, 5, 9, 4), False),
    "bn4": ((0, 1, 3, 7, None), (2, 5, 9, 4, 11), False),
}
# One table of W̄ dimension rows, (fixture, d, r) under their suite. A
# row's prediction is `martens_bound` for martens, rho for bn.
DIM_ROWS = {
    "martens": (("hyp3", 2, 1), ("hyp4", 2, 1), ("hyp4", 3, 1),
                ("nonhyp4", 2, 1), ("nonhyp4", 3, 1)),
    "bn": (("bn3", 2, 1), ("bn3", 3, 1), ("bn3", 4, 2), ("bn4", 2, 1),
           ("bn4", 3, 1), ("bn4", 4, 1), ("bn4", 4, 2), ("bn4", 5, 2)),
}
DIM_PRIMES = (13, 23)


def dim_fixture(name: str) -> tuple:
    """(X over Q, hyperelliptic) for a DIM_FIXTURES name."""
    a, b, hyp = DIM_FIXTURES[name]
    Q = Rationals()

    def pt(v):
        return (ProjPoint.infinity(Q) if v is None
                else ProjPoint.finite(Q, Q.from_int(v)))
    return BinaryCurve(Q, [(pt(x), pt(y)) for x, y in zip(a, b)]), hyp


def check_dim_row(X: BinaryCurve, hyperelliptic: bool, d: int, r: int,
                  primes, pred: DimPrediction):
    """(estimate, problems): at each prime the reduced X must be as
    hyperelliptic as stated, and the `assemble_Wbar(Xp, d, r)` totals'
    `growth_estimate` must bear out `pred`."""
    problems = []

    def total(p):
        Xp = reduce_curve_mod(X, p)
        if is_hyperelliptic_fast(Xp)[0] != hyperelliptic:
            problems.append({"kind": "fixture", "p": p})
        return sum(assemble_Wbar(Xp, d, r).values())

    est = growth_estimate(primes, total)
    if not pred.holds(est):
        problems.append({"kind": "dimension"})
    return est, problems


def _dim_rows(suite: str, primes):
    rows, problems = [], []
    for name, d, r in DIM_ROWS[suite]:
        X, hyp = dim_fixture(name)
        g = X.genus
        if suite == "bn":
            k = rho(g, d, r)
            pred = DimPrediction("exact", k) if k >= 0 else DimPrediction("empty")
        else:
            pred = martens_bound(g, d, r, hyp)
        est, found = check_dim_row(X, hyp, d, r, primes, pred)
        where = {"fixture": name, "g": g, "d": d, "r": r}
        rows.append({**where, "prediction": asdict(pred),
                     "estimate": est.to_json()})
        problems += [{**where, **p} for p in found]
    return not problems, {"rows": rows, "problems": problems}


@_suite("martens")
def suite_martens(primes=DIM_PRIMES):
    """`martens_bound` on W̄, the whole compactified Jacobian, for g = 3
    and 4. Hyperelliptic genus 3's W̄^1_2 is the one point H at every
    prime. A pair mixing p <= 7 with p >= 11 fails on the non-hyperelliptic d = 3
    row, whose W̄ goes 1 -> 2 from p = 7 to 11; pairs on one side (5, 7 or
    11, 23) pass."""
    return _dim_rows("martens", primes)


# sampled verdict thresholds: the share of curves that must agree with rho
EMPTY_THRESHOLD_PCT = 90
NONEMPTY_THRESHOLD_PCT = 80


def _sampled(g, r, p, n_curves, seed, mds):
    """(block, scans): W^r verdicts per md on n_curves random genus-g
    curves over F_p, spawned from Rng(seed); scans holds (X, one report per
    md), each md scanned once per curve. A provably empty md must count zero
    on every curve. rho < 0: at least EMPTY_THRESHOLD_PCT % of the curves
    should have an empty locus (the statement excludes a thin special set,
    so unanimity is not expected). rho >= 1: at least NONEMPTY_THRESHOLD_PCT
    % nonempty. rho = 0: counts are reported with no verdict, since finitely
    many geometric points need not be rational."""
    rng = Rng(seed)
    ctx = PrimeField(p)
    scans = []
    for _ in range(n_curves):
        X = random_curve(g, ctx, rng.spawn())
        scans.append((X, [bn_enumerate(X, BNQuery(md, r), witness_cap=1)
                          for md in mds]))
    rows = []
    for j, md in enumerate(mds):
        d = md[0] + md[1]
        rh = rho(g, d, r)
        counts = [reports[j].count for _, reports in scans]
        n_empty = counts.count(0)
        n_nonempty = n_curves - n_empty
        if predicted_empty(md, r, g):
            ok = n_nonempty == 0
        elif rh < 0:
            ok = 100 * n_empty >= EMPTY_THRESHOLD_PCT * n_curves
        elif rh >= 1:
            ok = 100 * n_nonempty >= NONEMPTY_THRESHOLD_PCT * n_curves
        else:
            ok = None
        verdict = "report" if ok is None else "pass" if ok else "fail"
        rows.append({"d": d, "md": list(md), "p": p, "rho": rh,
                     "n_curves": n_curves, "n_empty": n_empty,
                     "n_nonempty": n_nonempty, "counts": counts,
                     "verdict": verdict})
    block = {"g": g, "r": r, "primes": [p], "n_curves": n_curves,
             "seed": seed, "mds": [list(md) for md in mds],
             "empty_threshold_pct": EMPTY_THRESHOLD_PCT,
             "nonempty_threshold_pct": NONEMPTY_THRESHOLD_PCT,
             "rows": rows,
             "passed": all(row["verdict"] != "fail" for row in rows)}
    return block, scans


@_suite("bn")
def suite_bn(seed=DEFAULT_SEED, n_curves=100):
    """Sampled existence/emptiness verdicts for r <= 2 against rho, and rho
    as the W̄ dimension at DIM_PRIMES. rho is the dimension on a general
    curve, while the rows' fixtures are fixed curves."""
    neg, _ = _sampled(4, 1, 11, n_curves, seed, [(1, 1)])
    pos, _ = _sampled(3, 1, 7, n_curves, seed, balanced_set(3, 3))
    pos_rows = [row for row in pos["rows"]
                if row["rho"] >= 1 and not predicted_empty(row["md"], 1, 3)
                and row["verdict"] == "pass"]
    zero, zero_scans = _sampled(3, 2, 7, min(n_curves, 50), seed, [(2, 2)])
    # rho = 0 gets no verdict from sampling, but this particular locus is
    # pinned: the only class with three sections in degree 2g-2 is canonical
    omega_ok = all(rep.count == 1
                   and rep.witnesses[0] == canonical_bundle(X).c
                   for X, (rep,) in zero_scans)
    dims_ok, dims = _dim_rows("bn", DIM_PRIMES)
    passed = (neg["passed"] and pos["passed"] and zero["passed"]
              and bool(pos_rows) and omega_ok and dims_ok)
    return passed, {
        "rho_negative": neg, "rho_positive": pos, "rho_zero": zero,
        "canonical_pinned": omega_ok, "rho_dimensions": dims}


@_suite("very-ample")
def suite_very_ample(seed=DEFAULT_SEED, gs=(3, 4), p=11, trials=15,
                     n_curves=2):
    """Canonical embedding separates points/tangents iff not hyperelliptic."""
    rng = Rng(seed)
    ctx = PrimeField(p)
    rows = []
    ok = True
    for g in gs:
        for kind in ("random", "hyperelliptic"):
            for _ in range(n_curves):
                if kind == "random":
                    X = random_curve(g, ctx, rng.spawn())
                else:
                    X = random_hyperelliptic_curve(g, ctx, rng.spawn())
                rep = verify_canonical_very_ample(X, rng.spawn(),
                                                  trials=trials)
                ok = ok and rep.passed
                rows.append({"g": g, "kind": kind,
                             "hyperelliptic": rep.hyperelliptic,
                             "very_ample": rep.very_ample,
                             "passed": rep.passed})
    return ok, {"rows": rows}
