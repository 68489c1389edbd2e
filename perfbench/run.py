"""bincurve benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload torus-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each workload is a closed loop with
one client: the next operation starts when the last has returned. Whole
rounds of operations run until --seconds have passed (at least one round),
and every output is checked. --trace 0 prints the end-to-end metrics,
measured without any wrapper installed; --trace 1 runs untraced rounds for
half of --seconds, then the same rounds traced, and prints the per-layer
metrics with the tracing overhead. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it holds the details (tail percentile and sample count, class
counts, outcome counters, per-kind medians, errors).

Reference values come from perfbench/oracle.py, run once per seed as a
separate command and kept under perfbench/.work/, which also holds each
cli-cache run's private cache directory and the counters of earlier runs
of the same seed, against which this run's counters must agree exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPS = 9
TAIL_PERCENTILES = (99, 90, 75, 50)
PROBE_ITERATIONS = 10000
PROBE_REF_S = 1e-3       # timings are reported as if the probe took 1 ms
PROBE_INTERVAL_S = 0.02  # at most one probe per 20 ms of operations
ORACLE_WORKLOADS = ("torus-scan", "class-sweep", "sections")


def source_digest():
    """Hash of the program and benchmark sources: keys the cached oracle
    references and the stored counters, so an edit invalidates both."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "bincurve"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def reference(workload, seed, size, digest):
    if workload not in ORACLE_WORKLOADS:
        return {}
    path = os.path.join(WORK, "oracle", f"{workload}-{size}-{seed}-{digest}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--size", size, "--out", path],
                       env=child_env(), check=True, timeout=170)
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def import_seconds():
    """A fresh interpreter importing the package, as every CLI call does."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import bincurve.cli"],
                   env=child_env(), check=True, timeout=60)
    return perf_counter() - t0


def startup_ms(reps=5):
    """Median of (import bincurve.cli) minus a bare interpreter, in ms."""
    diffs = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(),
                       check=True, timeout=60)
        bare = perf_counter() - t0
        diffs.append(import_seconds() - bare)
    return 1e3 * statistics.median(diffs)


class Pass:
    """What one sequence of rounds produced."""

    def __init__(self):
        self.latencies = []       # (kind, position in round, seconds)
        self.outcomes = []        # per round: Counter of outcome counters
        self.layer_counts = []    # per round, traced passes only
        self.probes = []          # probe() durations, seconds
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall = 0.0

    @property
    def timed(self):
        return sum(dt for _, _, dt in self.latencies)


def run_rounds(workloads, ops_fn, state, seconds=None, n_rounds=None,
               tracer=None):
    """Whole rounds, or exactly `n_rounds`: another round starts while the
    run would end nearer to `seconds` with it than without it, so a run of
    long rounds takes the same number of rounds every time. Only `op.run`
    is timed; checks run paused and untimed. A probe runs before an
    operation when PROBE_INTERVAL_S has passed since the last one."""
    res = Pass()
    quiet = tracer.pause if tracer is not None else nullcontext
    t_start = perf_counter()
    last_probe = t_start - PROBE_INTERVAL_S
    r = 0

    def more():
        if n_rounds is not None:
            return r < n_rounds
        elapsed = perf_counter() - t_start
        return r == 0 or elapsed + elapsed / r / 2 < seconds

    while more():
        outcome = Counter()
        before = _layer_counts(tracer) if tracer is not None else None
        for pos, op in enumerate(ops_fn(state, r)):
            if perf_counter() - last_probe >= PROBE_INTERVAL_S:
                res.probes.append(probe())
                last_probe = perf_counter()
            res.attempted += 1
            t0 = perf_counter()
            try:
                value = op.run()
            except Exception as exc:  # a raising operation is a failed one
                res.latencies.append((op.kind, pos, perf_counter() - t0))
                res.failed += 1
                res.errors.append(f"{op.kind}: {exc!r}")
                continue
            res.latencies.append((op.kind, pos, perf_counter() - t0))
            try:
                with quiet():
                    outcome.update(op.check(value))
            except workloads.CheckFailed as exc:
                res.failed += 1
                res.errors.append(f"{op.kind}: {exc}")
                continue
            outcome[f"ops.{op.kind}"] += 1
        res.outcomes.append(dict(outcome))
        if tracer is not None:
            after = _layer_counts(tracer)
            res.layer_counts.append({k: after[k] - before.get(k, 0)
                                     for k in after})
        r += 1
    res.wall = perf_counter() - t_start
    return res


def _layer_counts(tracer):
    import tracing
    out = {}
    for name in tracing.COUNTERS:
        if name.endswith(".calls"):
            key = name[:-len(".calls")]
            out[name] = tracer.agg[key][0] if key in tracer.agg else 0
        else:
            out[name] = tracer.counts.get(name, 0)
    out["linalg.rank_mod_bounded.early_exits"] = tracer.counts.get(
        "linalg.rank_mod_bounded.early_exits", 0)
    out.pop("linalg.rank_mod_bounded.early_exit_ratio", None)
    return out


def tail(lat_ms):
    """(percentile, value, samples beyond): the highest of TAIL_PERCENTILES
    with at least ten samples above its nearest-rank value."""
    n = len(lat_ms)
    for q in TAIL_PERCENTILES:
        k = max(1, math.ceil(q * n / 100))
        if n - k >= 10 or q == TAIL_PERCENTILES[-1]:
            return q, lat_ms[k - 1], n - k
    raise AssertionError("unreachable")


def probe():
    """The reference loop: fixed pure-Python integer work, about 1 ms."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


def end_to_end(res):
    """End-to-end metrics of an untraced pass, plus details.

    On a shared 2-core VM, CPU contention from other tenants comes and goes
    over tens of seconds and moved whole 20 s runs by +-25%; neither medians
    nor minimums within a run remove that. The probe, interleaved with the
    operations, slows in step: between 20 s windows the mean round time
    divided by the median probe time stayed within 1.5% while the raw round
    time moved by 12%. So every timing is reported in probe time: raw
    seconds times PROBE_REF_S / (median probe seconds of this run), i.e. in
    seconds of a machine on which the probe takes PROBE_REF_S. The raw
    figures and the probe median are kept in the details.

    The latency percentiles are over all samples, each valued at the median
    latency of its operation (its position in the round) in this run: with
    a fixed mix of operations the 50th or 90th percentile often falls on the
    boundary between two operations' samples, where a raw percentile would
    pick up whichever extreme sample lands there.
    """
    scale = PROBE_REF_S / statistics.median(res.probes)
    by_pos = {}
    for _, pos, dt in res.latencies:
        by_pos.setdefault(pos, []).append(dt)
    typical = {pos: statistics.median(v) for pos, v in by_pos.items()}
    valued = sorted(1e3 * typical[pos] for _, pos, _ in res.latencies)
    q, tail_ms, beyond = tail(valued)
    raw = sorted(1e3 * dt for _, _, dt in res.latencies)
    raw_q, raw_tail, _ = tail(raw)
    classes = sum(o.get("classes", 0) for o in res.outcomes)
    timed = res.timed
    metrics = {
        "classes_per_s": (classes / (timed * scale), "1/s"),
        "ops_per_s": (len(raw) / (timed * scale), "1/s"),
        "op_p50_ms": (statistics.median(valued) * scale, "ms"),
        "op_tail_ms": (tail_ms * scale, "ms"),
    }
    details = {
        "tail_percentile": q, "tail_samples_beyond": beyond,
        "samples": len(raw), "classes": classes,
        "probe_median_ms": 1e3 * statistics.median(res.probes),
        "probes": len(res.probes),
        "raw": {"classes_per_s": classes / timed,
                "ops_per_s": len(raw) / timed,
                "op_p50_ms": statistics.median(raw),
                f"op_p{raw_q}_ms": raw_tail},
    }
    return metrics, details


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def counters_agree(key, record):
    """Compare this run's per-round counters with the stored ones of earlier
    runs of the same (workload, size, seed, sources); store the longer."""
    path = os.path.join(WORK, "counters", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    problems = []
    old = {}
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            old = json.load(fh)
    merged = dict(old)
    for field, rounds in record.items():
        prev = old.get(field, [])
        n = min(len(prev), len(rounds))
        if prev[:n] != rounds[:n]:
            problems.append(f"{field} differ from an earlier run of this seed")
        if len(rounds) > len(prev):
            merged[field] = rounds
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(merged, fh, sort_keys=True)
    os.replace(tmp, path)
    return problems


def rounds_identical(workload, per_round, what):
    # every round but cli-cache's repeats the same inputs
    if workload == "cli-cache" or all(r == per_round[0] for r in per_round):
        return []
    return [f"{what} differ between rounds of one run"]


def main(argv=None):
    ap = argparse.ArgumentParser(description="bincurve benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["torus-scan", "class-sweep", "sections",
                             "cli-cache"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full",
                    help="small: reduced inputs for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bincurve", "__init__.py")):
        print(f"perfbench: no bincurve sources at {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import tracing

    digest = source_digest()
    ref = reference(args.workload, args.seed, args.size, digest)
    setup_fn, ops_fn = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        if args.trace == 0:
            times, probes = [], []
            for _ in range(SETUP_REPS):
                probes += [probe() for _ in range(3)]
                t0 = perf_counter()
                import_seconds()
                state = setup_fn(args.seed, args.size, ref, workdir)
                times.append(perf_counter() - t0)
            if args.workload == "cli-cache":
                workloads.fresh_cache(state, "timed")
            res = run_rounds(workloads, ops_fn, state, seconds=args.seconds)
            problems += rounds_identical(args.workload, res.outcomes,
                                         "outcome counters")
            problems += counters_agree(
                f"{args.workload}-{args.size}-{args.seed}-{digest}",
                {"outcomes": res.outcomes})
            metrics, details = end_to_end(res)
            metrics["setup_s"] = (statistics.median(times) * PROBE_REF_S
                                  / statistics.median(probes), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            details.update({"error_rate": res.failed / max(res.attempted, 1),
                            "setup_runs_s": times})
        else:
            setup_tracer = tracing.Tracer()
            setup_tracer.install()
            try:
                state = setup_fn(args.seed, args.size, ref, workdir)
            finally:
                setup_tracer.uninstall()
            if args.workload == "cli-cache":
                state["inprocess"] = True
                workloads.fresh_cache(state, "untraced")
            plain = run_rounds(workloads, ops_fn, state,
                               seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            if args.workload == "cli-cache":
                workloads.fresh_cache(state, "traced")
            tracer.install()
            try:
                res = run_rounds(workloads, ops_fn, state,
                                 n_rounds=len(plain.outcomes), tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.dump(os.path.join(
                WORK, f"spans-{args.workload}-{args.seed}.json"))
            if plain.outcomes != res.outcomes:
                problems.append("outcome counters differ between the "
                                "untraced and the traced pass")
            problems += rounds_identical(args.workload, res.layer_counts,
                                         "layer counters")
            problems += counters_agree(
                f"{args.workload}-{args.size}-{args.seed}-{digest}",
                {"outcomes": res.outcomes, "layer_counts": res.layer_counts})
            suite_classes = Counter()
            for o in res.outcomes:
                for k, v in o.items():
                    if k.startswith("suite."):
                        suite_classes[k[len("suite."):]] += v
            metrics = tracing.layer_metrics(
                tracer, suite_classes,
                startup_ms() if args.workload == "cli-cache" else 0.0,
                res.timed / plain.timed, setup_tracer)
            res.attempted += plain.attempted
            res.failed += plain.failed
            res.errors = plain.errors + res.errors
            details = {"rounds": len(res.outcomes),
                       "untraced_timed_s": plain.timed,
                       "traced_timed_s": res.timed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = {}
    for kind, _, dt in res.latencies:
        kinds.setdefault(kind, []).append(1e3 * dt)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(res.outcomes), "timed_s": res.timed, "wall_s": res.wall,
        "per_kind_p50_ms": {k: statistics.median(v) for k, v in kinds.items()},
        "per_kind_ops": {k: len(v) for k, v in kinds.items()},
        "outcomes_round0": res.outcomes[0] if res.outcomes else {},
        "problems": problems, "errors": res.errors[:10]})
    for line in res.errors[:10] + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": res.failed == 0 and not problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
