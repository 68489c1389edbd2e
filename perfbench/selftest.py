"""Small-size self-test of every benchmark workload.

    python3 perfbench/selftest.py

For each workload, runs run.py at --size small for one second, untraced and
traced, and checks that it exits 0, that the last stdout line has exactly
the keys correct/attempted/failed/metrics, that correct is true with no
failed operation, and that the metric names and units are exactly those
BENCHMARK.json lists for the mode. Then checks that the checks bite: with
one oracle count altered, a torus-scan run reports correct: false. Last,
a copy holding only BENCHMARK.json and perfbench/ must exit non-zero
without printing a result. Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("torus-scan", "class-sweep", "sections", "cli-cache")
BAD_SEED = 424242


def run(cwd, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), \
        proc.stderr


def expect(cond, what):
    if not cond:
        print(f"selftest: FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists the four workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, res, err = run(ROOT, workload, 1, trace)
            what = f"{workload} --trace {trace}"
            expect(code == 0, f"{what} exited {code}: {err[-500:]}")
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(res)}")
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1, f"{what}: {err[-500:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted[trace], f"{what}: metric names or units "
                   f"{sorted(set(got) ^ set(wanted[trace]))}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   f"{what}: a metric value is not a number")
            print(f"selftest: ok {what}: {res['attempted']} operations")

    # a wrong reference must be caught
    sys.path.insert(0, HERE)
    import run as bench_run
    digest = bench_run.source_digest()
    bench_run.reference("torus-scan", BAD_SEED, "small", digest)
    path = os.path.join(bench_run.WORK, "oracle",
                        f"torus-scan-small-{BAD_SEED}-{digest}.json")
    counters = os.path.join(bench_run.WORK, "counters",
                            f"torus-scan-small-{BAD_SEED}-{digest}.json")
    try:
        with open(path, encoding="ascii") as fh:
            ref = json.load(fh)
        first = sorted(ref["queries"])[0]
        ref["queries"][first]["count"] += 1
        with open(path, "w", encoding="ascii") as fh:
            json.dump(ref, fh)
        code, res, _ = run(ROOT, "torus-scan", BAD_SEED, 0)
        expect(code == 0 and res["correct"] is False and res["failed"] >= 1,
               "an altered oracle count was not caught")
        print("selftest: ok altered reference is caught")
    finally:
        for stale in (path, counters):
            if os.path.exists(stale):
                os.remove(stale)

    # without the program the benchmark must refuse to report
    bare = os.path.join(bench_run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, res, _ = run(bare, "torus-scan", 1, 0)
        expect(code != 0 and res is None,
               "a checkout without src/ printed a result or exited 0")
        print("selftest: ok refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
