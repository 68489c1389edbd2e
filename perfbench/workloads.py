"""The four benchmark workloads: seeded inputs, timed operations, checks.

`setup(seed, size, ref, workdir)` builds a workload's inputs from the seed
alone; `ops(state, round_index)` lists the operations of one round. A round
of torus-scan, class-sweep or sections is the same every time; a cli-cache
round differs from the last only in the curve seed of its cache-miss query,
because a miss needs a key the cache has never seen.

An operation's `run` is the timed call into bincurve. Its `check` runs
afterwards, untimed: it raises CheckFailed on a wrong output and otherwise
returns outcome counters, which depend only on what was computed (classes
decided, hits, bytes written), never on how.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from bincurve import (brill_noether, bundles, cli, cohomology, curve, picard,
                      suites)
from bincurve.fields import PrimeField, Rationals
from bincurve.rng import Rng

import oracle

WITNESS_CAP = 64


class CheckFailed(Exception):
    pass


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# torus-scan

# (g, p, n_curves, cases); a case is (md, r). Every operation is kept
# short (<= ~0.15 s) so that the probes run between operations sample the
# machine's contention throughout a round (see run.end_to_end). g=5 tori
# (7776 classes at p=7) cover the three
# regimes: all-hit md (3,3), r=1 (6 rows, 8 columns, so the rank bound never
# trips), provably empty md (0,4), r=1 (early exit every class), and sparse.
TORUS_LARGE = (5, 7, 1, [((3, 3), 1), ((0, 4), 1), ((2, 2), 1), ((1, 2), 1)])
# 10^4-class tori: sparse hits, hyperelliptic-type empties, all-hit.
TORUS_MEDIUM = (4, 11, 1, [((2, 2), 1), ((1, 2), 1), ((1, 1), 0),
                           ((1, 1), 1), ((3, 3), 1)])
# 216..1296-class tori, the sizes gate 5 scans: many cheap queries, so the
# fixed cost of a query shows in op_p50_ms.
TORUS_SMALL_GP = ((3, 7), (3, 11), (4, 7))
TORUS_SMALL_CASES = [((1, 1), 1), ((1, 2), 1), ((2, 2), 1), ((1, 1), 0),
                     ((2, 2), 2), ((0, 2), 1)]
ESTIMATE = (4, (2, 2), 1, (7, 11))   # g, md, r, primes of the Q-model


def seeded_curve(g, p, rng):
    """random_curve where the field allows (p >= g+3); otherwise g+1 node
    pairs of distinct points drawn from all of P^1(F_p) on each side."""
    ctx = PrimeField(p)
    if p >= g + 3:
        return curve.random_curve(g, ctx, rng)
    pts = [curve.ProjPoint.finite(ctx, a) for a in range(p)]
    pts.append(curve.ProjPoint.infinity(ctx))
    return curve.BinaryCurve(ctx, list(zip(rng.distinct(pts, g + 1),
                                           rng.distinct(pts, g + 1))))


def torus_queries(seed, size):
    """[(label, curve, md, r)] in round order; deterministic in the seed."""
    rng = Rng(seed)
    groups = []
    if size == "full":
        groups.append(TORUS_LARGE)
        groups.append(TORUS_MEDIUM)
        n_small = 2
    else:
        n_small = 1
    for g, p in TORUS_SMALL_GP:
        groups.append((g, p, n_small, TORUS_SMALL_CASES))
    out = []
    for g, p, n_curves, cases in groups:
        for ci in range(n_curves):
            X = seeded_curve(g, p, rng.spawn())
            for md, r in cases:
                out.append((f"g{g}p{p}c{ci}md{md[0]}{md[1]}r{r}", X, md, r))
    return out


def estimate_curve(seed):
    """Integer-model genus-4 curve whose reductions at both primes are
    smooth binary curves (redrawn from the seeded stream until they are)."""
    g, _, _, primes = ESTIMATE
    rng = Rng(seed ^ 0x5EED)
    while True:
        X = curve.random_curve(g, Rationals(), rng.spawn())
        try:
            for p in primes:
                brill_noether.reduce_curve_mod(X, p)
        except ValueError:
            continue
        return X


def split_query(queries):
    """The sharded query: md (2,2), r=1 on the largest torus below g=5."""
    cands = [q for q in queries if q[2] == (2, 2) and q[3] == 1
             and q[1].genus < 5]
    return max(cands, key=lambda q: (q[1].ctx.p - 1) ** q[1].genus)


def split_parts(total, u):
    """Smallest shard count >= 3 whose cuts all fall strictly inside a run
    of u = p-1 consecutive classes (the fiber of the last free coordinate)."""
    k = 3
    while any(lo % u == 0 for lo, _ in
              brill_noether.split_ranges(total, k)[1:]):
        k += 1
    return k


def setup_torus(seed, size, ref, workdir):
    queries = torus_queries(seed, size)
    return {"queries": queries, "estimate": estimate_curve(seed),
            "split": split_query(queries), "ref": ref}


def _bn_report_check(rep, want, total):
    expect(rep.count == want["count"],
           f"count {rep.count} != oracle {want['count']}")
    wits = [list(w) for w in rep.witnesses]
    expect(wits == want["witnesses"], "witness list differs from the oracle")
    expect(tuple(rep.index_range) == (0, total), "index range")
    return {"classes": total, "hits": rep.count}


def ops_torus(state, round_index):
    ref = state["ref"]
    ops = []
    for label, X, md, r in state["queries"]:
        total = (X.ctx.p - 1) ** X.genus
        q = brill_noether.BNQuery(md, r)

        def run(X=X, q=q):
            return brill_noether.bn_enumerate(X, q, witness_cap=WITNESS_CAP)

        def check(rep, want=ref["queries"][label], total=total):
            return _bn_report_check(rep, want, total)
        ops.append(Op("bn_enumerate", run, check))

    g, md, r, primes = ESTIMATE
    Xq = state["estimate"]

    def run_estimate():
        return brill_noether.estimate_dim(Xq, brill_noether.BNQuery(md, r),
                                          primes)

    def check_estimate(est):
        want = ref["estimate"]
        expect(list(est.counts) == want["counts"],
               f"estimate_dim counts {est.counts} != oracle {want['counts']}")
        expect(list(est.primes) == list(primes), "estimate_dim primes")
        return {"classes": sum((p - 1) ** g for p in primes),
                "hits": sum(est.counts)}
    ops.append(Op("estimate_dim", run_estimate, check_estimate))

    label, X, smd, sr = state["split"]
    total = (X.ctx.p - 1) ** X.genus
    n_parts = split_parts(total, X.ctx.p - 1)

    def run_split():
        q = brill_noether.BNQuery(smd, sr)
        shards = [brill_noether.bn_enumerate(X, q, witness_cap=WITNESS_CAP,
                                             index_range=rg)
                  for rg in brill_noether.split_ranges(total, n_parts)]
        return brill_noether.merge_reports(shards)

    def check_split(rep, want=ref["queries"][label]):
        return _bn_report_check(rep, want, total)
    ops.append(Op("split_merge", run_split, check_split))
    return ops


# ---------------------------------------------------------------------------
# class-sweep

SWEEP_SUITES = ("riemann", "clifford", "serre")


def sweep_grid(size):
    """[(suite, g, p)] of one round. At g=3, p=7 (the one cell with a random
    suite curve) only riemann and lemma-e run: clifford and serre there take
    0.5-1 s a call, too long to repeat often enough in a run."""
    if size == "small":
        cells = [(name, g, 5) for name in SWEEP_SUITES for g in (1, 2)]
        return cells + [("lemma-e", 2, 5)]
    cells = [(name, g, p) for name in SWEEP_SUITES for g in (1, 2, 3)
             for p in (5, 7) if (g, p) != (3, 7) or name == "riemann"]
    return cells + [("lemma-e", g, p) for g in (2, 3) for p in (5, 7)]


def _n_balanced(d, g):
    # integers d1 with (d-g-1)/2 <= d1 <= (d+g+1)/2
    return (d + g + 1) // 2 + (g + 1 - d) // 2 + 1


def pinned_classes(name, g, p):
    """classes_checked of one (g, p) cell, counted from the suite's grid
    definition; the suite fixtures are the standard curve plus, when
    g >= 3 and p >= g+3, one random curve."""
    n_curves = 2 if g >= 3 and p >= g + 3 else 1
    lo, hi = {"riemann": (2 * g - 1, 2 * g + 2), "clifford": (0, 2 * g),
              "serre": (0, 2 * g + 2)}[name]
    per_curve = sum(_n_balanced(d, g) for d in range(lo, hi + 1))
    return n_curves * per_curve * (p - 1) ** g


def setup_sweep(seed, size, ref, workdir):
    return {"seed": seed, "size": size, "ref": ref}


def ops_sweep(state, round_index):
    seed, ref = state["seed"], state["ref"]
    ops = []
    for name, g, p in sweep_grid(state["size"]):
        if name == "lemma-e":
            def run(g=g, p=p):
                return suites.SUITES["lemma-e"](ps=(p,), seed=seed, g=g)
            want = ref["lemma_e"][f"g{g}p{p}"]
            key = "checked"
        else:
            def run(name=name, g=g, p=p):
                return suites.SUITES[name](gs=(g,), ps=(p,), seed=seed)
            want = pinned_classes(name, g, p)
            key = "classes_checked"

        def check(res, name=name, want=want, key=key):
            expect(res.passed, f"suite {name} did not pass")
            got = res.summary[key]
            expect(got == want, f"{name} checked {got} != {want}")
            return {"classes": got, f"suite.{name}": got}
        ops.append(Op(f"suite_{name}", run, check))
    return ops


def lemma_e_grid(seed, size):
    """(label, Y, [md]) for each lemma-e cell, rebuilt the way the suite
    builds its curve, for the oracle's count of descent fibers."""
    out = []
    for name, g, p in sweep_grid(size):
        if name == "lemma-e":
            ctx = PrimeField(p)
            rng = Rng(seed)
            X = (curve.random_curve(g, ctx, rng.spawn()) if p >= g + 3
                 else curve.standard_curve(g, ctx))
            Y, _ = curve.normalize_at(X, [g])
            mds = [md for d in (1, 2) for md in picard.balanced_set(d, g - 1)
                   if md[0] >= -1 and md[1] >= -1]
            out.append((f"g{g}p{p}", g, p, Y, mds))
    return out


# ---------------------------------------------------------------------------
# sections

SECTION_CURVES = (("Q", 3), ("Q", 4), ("Q", 5), ("F11", 3), ("F11", 4),
                  ("F13", 5))


def _ctx(name):
    return Rationals() if name == "Q" else PrimeField(int(name[1:]))


def _free_points(X, comp, k, rng):
    """k distinct smooth points of one component, drawn from the seed."""
    ctx = X.ctx
    if ctx.is_prime_field():
        pool = X.smooth_points(comp)
    else:
        branch = set(X.branch_points(comp))
        pool = [pt for pt in (curve.ProjPoint.finite(ctx, Fraction(n, 2))
                              for n in range(-40, 0)) if pt not in branch]
    return rng.distinct(pool, k)


def section_inputs(seed, size):
    """[(label, X, D, D2, node)] per curve: D the divisor of the bundle,
    D2 a vanishing divisor with multiplicity-2 points, node the one that
    descend reglues."""
    rng = Rng(seed)
    specs = SECTION_CURVES if size == "full" else SECTION_CURVES[::3]
    out = []
    for name, g in specs:
        X = curve.random_curve(g, _ctx(name), rng.spawn())
        d1 = (g + 2) // 2
        d2 = g + 1 - d1
        pts1 = _free_points(X, 1, d1 + 1, rng)
        pts2 = _free_points(X, 2, d2 + 1, rng)
        D = bundles.EffectiveDivisor(
            X, [(1, pt, 1) for pt in pts1[:d1]] + [(2, pt, 1)
                                                   for pt in pts2[:d2]])
        D2 = bundles.EffectiveDivisor(X, [(1, pts1[-1], 2), (2, pts2[-1], 2)])
        node = rng.below(g + 1)
        out.append((f"{name}g{g}", X, D, D2, node))
    return out


def setup_sections(seed, size, ref, workdir):
    return {"inputs": section_inputs(seed, size), "ref": ref}


def ops_sections(state, round_index):
    ref = state["ref"]
    ops = []
    for label, X, D, D2, node in state["inputs"]:
        ctx = X.ctx
        g = X.genus
        want = ref["bundles"][label]
        box = {}

        def run_canonical(X=X):
            return bundles.canonical_bundle(X)

        def check_canonical(w, box=box, want=want, ctx=ctx):
            box["w"] = w
            expect([ctx.fmt(x) for x in w.c] == want["w_c"],
                   "canonical gluing differs from the reference")
            return {"classes": 1}
        ops.append(Op("canonical_bundle", run_canonical, check_canonical))

        def run_from_divisor(X=X, D=D):
            return bundles.from_divisor(X, D)

        def check_from_divisor(L, box=box, want=want, ctx=ctx):
            box["L"] = L
            expect(list(L.md) == want["md"], "from_divisor multidegree")
            expect([ctx.fmt(x) for x in L.c] == want["c"],
                   "from_divisor gluing differs from the reference")
            return {"classes": 1}
        ops.append(Op("from_divisor", run_from_divisor, check_from_divisor))

        def run_space(box=box):
            return cohomology.SectionSpace(box["L"])

        def check_space(S, want=want, ctx=ctx):
            basis = [[ctx.fmt(x) for x in f + h] for f, h in S.basis]
            expect(basis == want["basis"],
                   "section basis differs from the reference")
            return {"classes": 1, "sections": S.dim}
        ops.append(Op("section_space", run_space, check_space))

        def run_base(box=box):
            return cohomology.base_locus(box["L"])

        def check_base(bl, box=box, ctx=ctx, D=D):
            # every reported smooth base point is a common zero of the basis
            S = cohomology.SectionSpace(box["L"])
            for comp, pt in bl.smooth_points:
                for s in range(S.dim):
                    expect(S.value_at(s, comp, pt) == ctx.zero,
                           "a base point is not a common zero")
            return {"classes": 1, "base_points": len(bl.smooth_points)}
        ops.append(Op("base_locus", run_base, check_base))

        def run_vanishing(box=box, D2=D2):
            return cohomology.h0_vanishing(box["L"], D2)

        def check_vanishing(n, want=want):
            expect(n == want["h0_vanishing"],
                   f"h0_vanishing {n} != reference {want['h0_vanishing']}")
            return {"classes": 1}
        ops.append(Op("h0_vanishing", run_vanishing, check_vanishing))

        def run_serre(box=box):
            L = box["L"]
            dual_w = bundles.tensor(box["w"], bundles.dual(L))
            return cohomology.h0(dual_w), cohomology.h0(L)

        def check_serre(pair, box=box, want=want, g=g):
            lhs, h0L = pair
            d = box["L"].degree
            expect(lhs == h0L - d + g - 1,
                   f"Serre identity fails: {lhs} != {h0L} - {d} + {g} - 1")
            expect(h0L == want["h0"] and lhs == want["h0_serre"],
                   "h0 values differ from the reference")
            return {"classes": 2}
        ops.append(Op("serre", run_serre, check_serre))

        def run_descend(box=box, X=X, node=node):
            Y, removed = curve.normalize_at(X, [node])
            M = bundles.restrict_to_normalization(box["L"], [node])
            return cohomology.descend(M, removed), M

        def check_descend(out, want=want):
            res, M = out
            expect(res.exists == want["descend_exists"],
                   "descend existence differs from the h0 criterion")
            if res.exists:
                expect(oracle.h0_of(res.bundle) == oracle.h0_of(M),
                       "descended bundle lost sections")
            return {"classes": 1, "descended": int(res.exists)}
        ops.append(Op("descend", run_descend, check_descend))

        def run_strata(X=X, g=g):
            st = picard.enumerate_strata(X, g - 1)
            keys = [s for s in st if isinstance(s, picard.Stratum)]
            order = [[picard.closure_leq(a, b) for b in keys] for a in keys]
            return st, keys, order

        def check_strata(out, want=want):
            st, keys, order = out
            expect(len(st) == want["n_strata"],
                   f"{len(st)} strata != {want['n_strata']}")
            n = len(keys)
            for i in range(n):
                expect(order[i][i], "closure order is not reflexive")
                for j in range(i + 1, n):
                    expect(not (order[i][j] and order[j][i]),
                           "closure order is not antisymmetric")
            return {"classes": 0, "strata": len(st)}
        ops.append(Op("strata", run_strata, check_strata))
    return ops


# ---------------------------------------------------------------------------
# cli-cache

CACHE_ENTRIES = 5000        # pre-filled bn.jsonl lines (about 2.7 MB)
CLI_BN = (4, 11, "2,2", 1)  # g, p, md, r of the bn requests (10^4 classes)
CLI_HYP = ("3", "7", "4")   # verify hyperelliptic --g --p --n
CLI_H0 = (4, 11, "3,2")
CLI_STRATA = (4, 11, 3)


def cli_command(argv, env):
    """One bincurve request in a fresh interpreter: (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "bincurve.cli", *argv],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=150)
    return proc.returncode, proc.stdout


def cli_inprocess(argv, cache_dir):
    """The same request through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("BINCURVE_CACHE_DIR")
    os.environ["BINCURVE_CACHE_DIR"] = cache_dir
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if old is None:
            del os.environ["BINCURVE_CACHE_DIR"]
        else:
            os.environ["BINCURVE_CACHE_DIR"] = old
    return code, out.getvalue().encode("ascii")


def _prefill(path, seed):
    """CACHE_ENTRIES entries shaped like real bn reports, none of which any
    request of the run asks for (their keys hash a different namespace)."""
    import hashlib
    rng = Rng(seed ^ 0xCAC4E)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(CACHE_ENTRIES):
            key = hashlib.sha256(f"prefill:{seed}:{i}".encode()).hexdigest()
            wits = [[[str(1 + rng.below(10)), "1"] for _ in range(5)]
                    for _ in range(8)]
            value = {"witness_cap": WITNESS_CAP, "report": {
                "count": 8, "index_range": [0, 10000], "p": 11,
                "query": {"md": [2, 2], "r": 1}, "seed": None,
                "witness_cap": WITNESS_CAP, "witnesses": wits}}
            fh.write(json.dumps({"key": key, "value": value},
                                sort_keys=True, separators=(",", ":")) + "\n")


def cli_seed(seed, round_index):
    return seed * 1000 + round_index


def setup_cli(seed, size, ref, workdir):
    base = os.path.join(workdir, "cache-template")
    os.makedirs(base, exist_ok=True)
    template = os.path.join(base, "bn.jsonl")
    _prefill(template, seed)
    ref_dir = os.path.join(workdir, "cache-ref")
    os.makedirs(ref_dir, exist_ok=True)
    hyp_argv = ["verify", "hyperelliptic", "--g", CLI_HYP[0], "--p",
                CLI_HYP[1], "--n", CLI_HYP[2], "--seed", str(seed)]
    code, hyp_out = cli_inprocess(hyp_argv + ["--jobs", "1"], ref_dir)
    if code != 0:
        raise RuntimeError("verify hyperelliptic --jobs 1 failed in set-up")
    g, p, md = CLI_H0
    X = curve.random_curve(g, PrimeField(p), Rng(seed))
    L = bundles.LineBundle(X, tuple(int(t) for t in md.split(",")),
                           [1] * (g + 1))
    g2, p2, d2 = CLI_STRATA
    n_strata = oracle.n_strata(g2, d2)
    env = dict(os.environ)
    env["PYTHONPATH"] = oracle.SRC + (os.pathsep + env["PYTHONPATH"]
                                      if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return {"seed": seed, "workdir": workdir, "template": template,
            "hyp_argv": hyp_argv, "hyp_ref": hyp_out, "h0_ref": oracle.h0_of(L),
            "n_strata": n_strata, "env": env, "inprocess": False,
            "cache_dir": None}


def fresh_cache(state, tag):
    """A new cache directory holding a copy of the pre-filled file."""
    d = os.path.join(state["workdir"], f"cache-{tag}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    shutil.copyfile(state["template"], os.path.join(d, "bn.jsonl"))
    state["cache_dir"] = d


def ops_cli(state, round_index):
    seed = state["seed"]
    g, p, md, r = CLI_BN
    bn_argv = ["bn", "--random-genus", str(g), "--p", str(p), "--seed",
               str(cli_seed(seed, round_index)), "--md", md, "--r", str(r)]
    box = {}
    n_classes = (p - 1) ** g

    def request(argv):
        def run():
            if state["inprocess"]:
                return cli_inprocess(argv, state["cache_dir"])
            env = dict(state["env"], BINCURVE_CACHE_DIR=state["cache_dir"])
            return cli_command(argv, env)
        return run

    def report_of(out):
        return json.loads(out.decode("ascii"))["report"]

    def check_miss(res):
        code, out = res
        expect(code == 0, f"bn miss exited {code}")
        box["miss"] = out
        return {"classes": n_classes, "bytes": len(out),
                "hits": report_of(out)["count"]}

    def check_hit(res):
        code, out = res
        expect(code == 0, f"bn hit exited {code}")
        expect(out == box.get("miss"), "cache hit stdout != miss stdout")
        return {"classes": 0, "bytes": len(out)}

    def check_audit(res):
        code, out = res
        expect(code == 0, f"bn --audit exited {code}")
        audit = report_of(out).get("audit")
        expect(audit == {"checked": True, "match": True},
               f"audit did not report a match: {audit}")
        return {"classes": n_classes, "bytes": len(out)}

    def check_jobs(res):
        code, out = res
        expect(code == 0, f"bn --jobs 2 exited {code}")
        expect(out == box.get("miss"), "--jobs 2 stdout != --jobs 1 stdout")
        return {"classes": n_classes, "bytes": len(out)}

    def check_verify(res):
        code, out = res
        expect(code == 0, f"verify hyperelliptic exited {code}")
        expect(out == state["hyp_ref"],
               "verify --jobs 2 stdout != --jobs 1 stdout")
        n = sum(c["n"] for c in report_of(out)["summary"]["combos"])
        return {"classes": n * (int(CLI_HYP[1]) - 1) ** int(CLI_HYP[0]),
                "bytes": len(out)}

    def check_h0(res):
        code, out = res
        expect(code == 0, f"h0 exited {code}")
        got = report_of(out)["h0"]
        expect(got == state["h0_ref"], f"h0 {got} != {state['h0_ref']}")
        return {"classes": 1, "bytes": len(out)}

    def check_strata(res):
        code, out = res
        expect(code == 0, f"strata exited {code}")
        got = len(report_of(out)["strata"])
        expect(got == state["n_strata"],
               f"{got} strata != {state['n_strata']}")
        return {"classes": 0, "bytes": len(out)}

    hg, hp, hmd = CLI_H0
    sg, sp, sd = CLI_STRATA
    return [
        Op("bn_miss", request(bn_argv), check_miss),
        Op("bn_hit", request(bn_argv), check_hit),
        Op("bn_audit", request(bn_argv + ["--audit"]), check_audit),
        Op("bn_jobs2", request(bn_argv + ["--no-cache", "--jobs", "2"]),
           check_jobs),
        Op("verify_jobs2", request(state["hyp_argv"] + ["--jobs", "2"]),
           check_verify),
        Op("h0", request(["h0", "--random-genus", str(hg), "--p", str(hp),
                          "--seed", str(seed), "--md", hmd]), check_h0),
        Op("strata", request(["strata", "--random-genus", str(sg), "--p",
                              str(sp), "--seed", str(seed), "--d", str(sd)]),
           check_strata),
    ]


WORKLOADS = {
    "torus-scan": (setup_torus, ops_torus),
    "class-sweep": (setup_sweep, ops_sweep),
    "sections": (setup_sections, ops_sections),
    "cli-cache": (setup_cli, ops_cli),
}
