"""Acceptance gate: one test per shipping criterion, quantitative thresholds
inlined, one PASS/FAIL line printed per criterion.

Criterion 4 checks the extremal-class uniqueness that holds: every class of
multidegree (d1, d2) with d2 < g has h0 <= d1+1, and on the diagonal (k, k),
0 <= k < g, of the standard curve exactly one class attains k+1 (trivial,
hyperelliptic, canonical at k = 0, 1, g-1).  Uniqueness off the diagonal is
false: with d1 = -1 every class attains h0 = 0, and for 0 <= d1 < d2 the
attaining classes form a positive-dimensional family, because the node
evaluations of degree-d1 forms fit into those of degree-d2 forms for many
gluings.
"""

import time

from bincurve import cohomology
from bincurve.brill_noether import assemble_Wbar, martens_bound
from bincurve.bundles import (canonical_bundle, enumerate_bundles,
                              hyperelliptic_class, trivial)
from bincurve.curve import standard_curve
from bincurve.fields import PrimeField
from bincurve.picard import (Ell0, closure_leq, enumerate_strata, h0_bar,
                             picard_type)
from bincurve.reports import canonical_json
from bincurve import suites


_SHARED = {}


def _verdict(num, tag, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return line


def test_01_riemann_range_exhaustive():
    t0 = time.perf_counter()
    res = suites.suite_riemann(gs=(1, 2, 3), ps=(5, 7))
    dt = time.perf_counter() - t0
    ok = res.passed and dt < 30.0
    line = _verdict(1, "riemann-exhaustive", ok,
                    f"{res.summary['classes_checked']} classes, {dt:.1f}s")
    assert ok, line + f" violations={res.summary['violations']}"


def test_02_clifford_bound_and_equality_cases():
    t0 = time.perf_counter()
    res = suites.suite_clifford(gs=(1, 2, 3), ps=(5, 7))
    dt = time.perf_counter() - t0
    ok = res.passed and dt < 60.0
    line = _verdict(2, "clifford-bound", ok,
                    f"{res.summary['classes_checked']} classes, {dt:.1f}s")
    assert ok, line + f" problems={res.summary['problems']}"


def test_03_serre_duality_crosscheck():
    res = suites.suite_serre(gs=(1, 2, 3), ps=(5, 7))
    # grid d in [0, 2g+2] covers every bundle from criteria 1 and 2
    ok = res.passed and res.summary["classes_checked"] > 0
    line = _verdict(3, "serre-duality", ok,
                    f"{res.summary['classes_checked']} classes")
    assert ok, line + f" violations={res.summary['violations']}"


def test_04_degree_split_extremal_class_unique():
    # For g=3, p in {5,7}, every md with -1 <= d1 <= d2 < g, checked
    # exhaustively.  A section (0, s2) has s2 vanishing at g+1 nodes with
    # d2 < g+1, so s2 = 0 and every class has h0 <= d+1-d2 = d1+1.  On the
    # diagonal at most one class attains it: the node evaluations of degree-k
    # forms are an MDS code of length g+1, which no non-scalar diagonal
    # gluing maps onto itself; with identical branch data on both sides the
    # all-ones gluing does.  With d1 = -1 all (p-1)^g classes attain 0.
    # Off-diagonal counts are reported, not asserted.
    g = 3
    bad = []
    off_diagonal = []
    grids = 0
    for p in (5, 7):
        ctx = PrimeField(p)
        X = standard_curve(g, ctx)
        named = {0: ("trivial", trivial(X)),
                 1: ("hyperelliptic", hyperelliptic_class(X)),
                 g - 1: ("canonical", canonical_bundle(X))}
        for d2 in range(-1, g):
            for d1 in range(-1, d2 + 1):
                target = d1 + 1
                hits = 0
                first = None
                for L in enumerate_bundles(X, (d1, d2)):
                    h = cohomology.h0(L)
                    if h > target:
                        bad.append({"p": p, "md": (d1, d2), "c": L.c,
                                    "h0": h, "bound": target})
                    elif h == target:
                        hits += 1
                        if first is None:
                            first = L
                grids += 1
                case = {"p": p, "md": (d1, d2), "n_attaining": hits}
                if d1 < 0:
                    if hits != (p - 1) ** g:
                        bad.append(case)
                elif d1 == d2:
                    if hits != 1:
                        bad.append(case)
                    elif first != named[d1][1]:
                        bad.append(dict(case, c=first.c,
                                        expected=named[d1][0]))
                else:
                    off_diagonal.append(f"p{p}{(d1, d2)}:{hits}")
    ok = not bad
    line = _verdict(4, "extremal-class-unique", ok,
                    f"{grids} (p, md) grids, {len(bad)} violations; "
                    f"off-diagonal attaining {' '.join(off_diagonal)}")
    assert ok, line + f"; first violations: {bad[:3]}"


def test_05_hyperelliptic_equivalence_800_curves():
    t0 = time.perf_counter()
    res = suites.suite_hyperelliptic(gs=(3, 4), ps=(7, 11),
                                     n_random=150, n_special=50, jobs=1)
    dt = time.perf_counter() - t0
    _SHARED["c5_jobs1"] = canonical_json(res.to_json())
    combos = res.summary["combos"]
    ok = (res.passed and dt < 300.0 and len(combos) == 4
          and all(c["n"] == 200 and c["n_failures"] == 0 for c in combos)
          and all(c["n_hyperelliptic"] >= 50 for c in combos))
    line = _verdict(5, "hyperelliptic-equivalence", ok,
                    f"4x200 curves, {dt:.1f}s")
    assert ok, line + f" combos={combos}"


def test_06_predicted_empty_loci_scan_to_zero():
    res = suites.suite_empty(gs=(0, 1, 2, 3, 4), ps=(7,))
    ok = res.passed and res.summary["cases"] >= 300
    line = _verdict(6, "predicted-empty", ok,
                    f"{res.summary['cases']} (md, r) cases")
    assert ok, line + f" violations={res.summary['violations']}"


def test_07_dimension_estimates():
    martens = suites.suite_martens()
    rows = {(row["fixture"], row["d"]): row["estimate"]
            for row in martens.summary["rows"]}
    hyp, non = rows["hyp4", 3], rows["nonhyp4", 3]
    # the genus-3 W̄^1_2 (martens' hyp3 row) is one point at p = 7, 11, 23
    X3, hyp3 = suites.dim_fixture("hyp3")
    theta, theta_problems = suites.check_dim_row(
        X3, hyp3, 2, 1, (7, 11, 23), martens_bound(3, 2, 1, hyp3))
    ok = (martens.passed and not theta_problems
          and rows["hyp3", 2]["counts"] == [1, 1]
          and list(theta.primes) == [7, 11, 23]
          and list(theta.counts) == [1, 1, 1]
          and hyp["kind"] == "ok" and hyp["rounded"] == 1
          and hyp["residual"] <= 0.35
          and (non["kind"] == "empty"
               or (non["kind"] == "ok" and non["rounded"] <= 0)))
    line = _verdict(
        7, "dimension-estimates", ok,
        f"theta counts {list(theta.counts)}, "
        f"hyp W̄ {hyp['counts']} -> {hyp['rounded']}, "
        f"non-hyp W̄ {non['counts']} -> {non['rounded']}")
    assert ok, (line + f" theta={theta_problems}"
                f" martens={martens.summary['problems']}")


def test_08_existence_thresholds():
    res = suites.suite_bn(n_curves=100)
    neg_rows = res.summary["rho_negative"]["rows"]
    pos_rows = res.summary["rho_positive"]["rows"]
    zero_rows = res.summary["rho_zero"]["rows"]
    # (a) rho = -2: at least 90 of 100 curves with an empty locus at p=11
    a = (len(neg_rows) == 1 and neg_rows[0]["n_curves"] == 100
         and neg_rows[0]["n_empty"] >= 90)
    # (b) rho = 1, d = 3: >= 80% nonempty for some balanced md
    b = any(row["rho"] >= 1 and row["verdict"] == "pass"
            and row["n_nonempty"] >= int(0.8 * row["n_curves"])
            for row in pos_rows)
    # (c) rho = 0, md (2,2), r = 2: exactly one class, pinned to canonical
    c = (res.summary["canonical_pinned"]
         and all(n == 1 for row in zero_rows for n in row["counts"]))
    ok = res.passed and a and b and c
    line = _verdict(
        8, "existence-thresholds", ok,
        f"empty {neg_rows[0]['n_empty']}/100; "
        f"nonempty max {max(r['n_nonempty'] for r in pos_rows)}/100; "
        f"canonical pinned {res.summary['canonical_pinned']}")
    assert ok, line + f" a={a} b={b} c={c}"


def _is_partial_order(keys) -> bool:
    return (all(closure_leq(a, a) for a in keys)
            and not any(a != b and closure_leq(a, b) and closure_leq(b, a)
                        for a in keys for b in keys)
            and not any(closure_leq(a, b) and closure_leq(b, c)
                        and not closure_leq(a, c)
                        for a in keys for b in keys for c in keys))


def test_09_strata_and_boundary_assembly():
    X2 = standard_curve(2, PrimeField(7))
    s22, s21 = enumerate_strata(X2, 2), enumerate_strata(X2, 1)
    problems = []
    if (len(s22) != 12 or picard_type(2, 2) != "neron"
            or any(isinstance(s, Ell0) for s in s22)):
        problems.append("g2d2-strata")
    if picard_type(1, 2) != "degeneration" or not isinstance(s21[-1], Ell0):
        problems.append("g2d1-ell0")
    if not (_is_partial_order(s22) and _is_partial_order(s21[:-1])):
        problems.append("partial-order")
    # W̄ sums the strata alone: at d <= r+g-1 the identified point has
    # h0_bar <= r (here (g, d, r) = (2, 1, 0) and (3, 2, 1))
    if (list(assemble_Wbar(X2, 1, 0)) != s21[:-1]
            or h0_bar(Ell0(1, 2)) > 0 or h0_bar(Ell0(2, 3)) > 1):
        problems.append("ell0-in-wbar")
    ok = not problems
    line = _verdict(9, "strata-assembly", ok,
                    f"12 strata at (g,d)=(2,2), "
                    f"{len(s21) - 1}+ell0 at d=1")
    assert ok, line + f" problems={problems}"


def test_10_parallel_reports_byte_identical():
    one = _SHARED.get("c5_jobs1")
    if one is None:
        one = canonical_json(suites.suite_hyperelliptic(
            gs=(3, 4), ps=(7, 11), n_random=150, n_special=50,
            jobs=1).to_json())
    eight = canonical_json(suites.suite_hyperelliptic(
        gs=(3, 4), ps=(7, 11), n_random=150, n_special=50,
        jobs=8).to_json())
    ok = one.encode("ascii") == eight.encode("ascii")
    line = _verdict(10, "parallel-determinism", ok,
                    f"{len(one)} canonical bytes, jobs 1 vs 8")
    assert ok, line
