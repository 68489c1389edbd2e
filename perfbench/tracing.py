"""In-memory spans around bincurve's layer boundaries, for the traced run.

`Tracer.install()` replaces, from outside the package, each public function
a layer exposes with a wrapper that records a span (name, start, end,
parent) and the counters next to it; `uninstall()` puts the originals back.
A wrapper is installed under every name a caller looks up: `_scan_wr` calls
`brill_noether.rank_mod_bounded`, not `linalg.rank_mod_bounded`, and
`suites` holds its own references to `enumerate_bundles`, `tensor`, ... .
A name that no longer exists is skipped, so the traced run keeps working
when a later change moves code; the layer then reports zero calls.

Self time is a span's duration minus the time its child spans cover. Spans
are aggregated as they close; the first MAX_SPANS are also kept verbatim
and written out by `dump`.
"""
from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

MAX_SPANS = 50000
FIELD_METHODS = ("add", "sub", "mul", "neg", "inv", "div", "pow", "from_int")


class Tracer:
    def __init__(self):
        self.stack = []                          # [name, start, child_time]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = Counter()
        self.timers = Counter()                 # seconds, by kind
        self.spans = []
        self.paused = False
        self._in_field = False
        self._patches = []

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        name, start, child = self.stack.pop()
        dur = end - start
        a = self.agg[name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end,
                               parent[0] if parent is not None else None))

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        old, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = old

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans,
                       "fields": ["name", "start", "end", "parent"]}, fh)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, count_name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if tracer.paused:
                    item = next(it, StopIteration)
                else:
                    tracer.enter(name)
                    try:
                        item = next(it, StopIteration)
                    finally:
                        tracer.exit()
                if item is StopIteration:
                    return
                if not tracer.paused:
                    tracer.counts[count_name] += 1
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_field(self, kind, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused or tracer._in_field:
                return fn(*args, **kwargs)
            tracer._in_field = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.timers[kind] += perf_counter() - t0
                tracer.counts[f"fields.{kind}_ops"] += 1
                tracer._in_field = False
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_main(self, fn):
        # one span per request, named after the command it runs
        tracer = self

        def wrapper(argv=None):
            if tracer.paused or not argv:
                return fn(argv)
            with tracer.span(f"cli.main.{argv[0]}"):
                return fn(argv)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            own = attr in vars(owner)
            self._patches.append((owner, attr, vars(owner).get(attr), own))
            setattr(owner, attr, value)

    def _patch(self, targets, make):
        """Wrap `module:attr` (or `module:Class.attr`, `module:DICT[key]`)
        for each target that exists."""
        for target in targets:
            modname, path = target.split(":")
            owner = importlib.import_module(modname)
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                if attr.endswith("]"):
                    dname, key = attr[:-1].split("[")
                    owner = getattr(owner, dname)
                    attr = key
                    current = owner[attr]
                else:
                    current = getattr(owner, attr)
            except (AttributeError, KeyError):
                continue
            self._set(owner, attr, make(current))

    def install(self):
        span, gen = self._wrap, self._wrap_generator
        B, C, BD, LA = ("bincurve.brill_noether", "bincurve.cohomology",
                        "bincurve.bundles", "bincurve.linalg")
        S, CLI, CU, PI = ("bincurve.suites", "bincurve.cli", "bincurve.curve",
                          "bincurve.picard")

        def named(name, *targets, after=None):
            self._patch(targets, lambda fn: span(name, fn, after))

        named("linalg.rank_mod_bounded", f"{B}:rank_mod_bounded",
              f"{LA}:rank_mod_bounded", after=_after_rank_bounded)
        named("linalg.rank_rows", f"{C}:rank_rows", f"{LA}:rank_rows")
        named("linalg.kernel_basis", f"{C}:kernel_basis",
              f"{LA}:kernel_basis")
        named("brill_noether.bn_enumerate", f"{B}:bn_enumerate",
              f"{S}:bn_enumerate", f"{CLI}:bn_enumerate",
              after=_after_bn_enumerate)
        named("brill_noether.estimate_dim", f"{B}:estimate_dim",
              f"{S}:estimate_dim")
        named("brill_noether.merge_reports", f"{B}:merge_reports",
              f"{CLI}:merge_reports")
        named("cohomology.h0", f"{C}:h0", f"{CLI}:h0")
        named("cohomology.gluing_profile", f"{C}:gluing_profile")
        named("cohomology.section_space", f"{C}:SectionSpace.__post_init__")
        named("cohomology.base_locus", f"{C}:base_locus",
              f"{CLI}:base_locus")
        named("cohomology.h0_vanishing", f"{C}:h0_vanishing")
        named("cohomology.descend", f"{C}:descend")
        self._patch([f"{BD}:enumerate_bundles", f"{S}:enumerate_bundles",
                     f"{B}:enumerate_bundles"],
                    lambda fn: gen("bundles.enumerate_bundles",
                                   "bundles.classes_enumerated", fn))
        named("bundles.tensor_dual", f"{BD}:tensor", f"{BD}:dual",
              f"{S}:tensor", f"{S}:dual")
        named("bundles.canonical_bundle", f"{BD}:canonical_bundle",
              f"{S}:canonical_bundle", f"{B}:canonical_bundle")
        named("bundles.from_divisor", f"{BD}:from_divisor",
              f"{B}:from_divisor")
        named("curve.random_curve", f"{CU}:random_curve",
              f"{S}:random_curve", f"{B}:random_curve", f"{CLI}:random_curve")
        named("curve.is_hyperelliptic_fast", f"{CU}:is_hyperelliptic_fast",
              f"{S}:is_hyperelliptic_fast", f"{B}:is_hyperelliptic_fast")
        named("picard.enumerate_strata", f"{PI}:enumerate_strata",
              f"{S}:enumerate_strata", f"{B}:enumerate_strata",
              f"{CLI}:enumerate_strata")
        named("picard.closure_leq", f"{PI}:closure_leq", f"{S}:closure_leq")
        for suite in ("riemann", "clifford", "serre", "lemma-e",
                      "hyperelliptic"):
            named(f"suites.{suite}", f"{S}:SUITES[{suite}]")
        self._patch([f"{CLI}:main"], self._wrap_main)
        named("cache.lookup", "bincurve.cache:JsonlCache.lookup",
              after=_after_lookup)
        named("cache.store", "bincurve.cache:JsonlCache.store")
        named("reports.canonical_json", f"{CLI}:canonical_json",
              "bincurve.cache:canonical_json", "bincurve.reports:canonical_json",
              after=_after_canonical_json)
        self._patch(["bincurve.cache:json"],
                    lambda real: _CountingJson(self, real))
        self._patch([f"{CLI}:ProcessPoolExecutor",
                     f"{S}:ProcessPoolExecutor"],
                    lambda real: _pool_class(self))
        for cls in ("Rationals", "PrimeField"):
            kind = "q" if cls == "Rationals" else "fp"
            self._patch([f"bincurve.fields:{cls}.{m}" for m in FIELD_METHODS],
                        lambda fn, kind=kind: self._wrap_field(kind, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, old, own = self._patches.pop()
            if isinstance(owner, dict) or own:
                if isinstance(owner, dict):
                    owner[attr] = old
                else:
                    setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _after_rank_bounded(tracer, args, kwargs, result):
    max_rank = args[3] if len(args) > 3 else kwargs["max_rank"]
    if result > max_rank:
        tracer.counts["linalg.rank_mod_bounded.early_exits"] += 1


def _after_bn_enumerate(tracer, args, kwargs, rep):
    lo, hi = rep.index_range
    tracer.counts["brill_noether.classes"] += hi - lo
    tracer.counts["brill_noether.hits"] += rep.count


def _after_lookup(tracer, args, kwargs, value):
    cache = args[0]
    tracer.counts["cache.lookup_hits"] += value is not None
    try:
        tracer.counts["cache.file_bytes_total"] += os.path.getsize(cache.path)
    except OSError:
        pass


def _after_canonical_json(tracer, args, kwargs, text):
    tracer.counts["reports.bytes_out"] += len(text)


class _CountingJson:
    """Stands in for the `json` module inside bincurve.cache: every parsed
    cache line goes through `loads`."""

    def __init__(self, tracer, real):
        self._tracer, self._real = tracer, real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def loads(self, *args, **kwargs):
        if not self._tracer.paused:
            self._tracer.counts["cache.lines_scanned"] += 1
        return self._real.loads(*args, **kwargs)


def _pool_class(tracer):
    """ProcessPoolExecutor that times creation up to its first submit,
    when the workers are started."""

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_t0 = perf_counter()
            self._bench_started = False
            super().__init__(*args, **kwargs)
            tracer.counts["cli.pool.created"] += 1

        def submit(self, *args, **kwargs):
            fut = super().submit(*args, **kwargs)
            if not self._bench_started:
                self._bench_started = True
                tracer.timers["pool_create"] += (perf_counter()
                                                     - self._bench_t0)
            return fut
    return TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics

def _us(total, calls):
    return 1e6 * total / calls if calls else 0.0


def layer_metrics(tracer, suite_classes, startup_ms, overhead_ratio,
                  setup_tracer):
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)};
    a layer the workload does not reach reports 0."""
    agg, cnt = tracer.agg, tracer.counts
    m = {}

    def calls(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def per_call(metric, name, scale=1e6, unit="us"):
        m[metric] = (scale * total(name) / calls(name) if calls(name)
                     else 0.0, unit)

    def count(metric, value):
        m[metric] = (value, "count")

    def ratio(metric, num, den):
        m[metric] = (num / den if den else 0.0, "ratio")

    for layer in ("linalg.rank_mod_bounded", "linalg.rank_rows",
                  "linalg.kernel_basis"):
        per_call(f"{layer}.us_per_call", layer)
        count(f"{layer}.calls", calls(layer))
    ratio("linalg.rank_mod_bounded.early_exit_ratio",
          cnt["linalg.rank_mod_bounded.early_exits"],
          calls("linalg.rank_mod_bounded"))

    bn = "brill_noether.bn_enumerate"
    m[f"{bn}.self_s"] = (agg[bn][2] if bn in agg else 0.0, "s")
    per_call(f"{bn}.ms_per_call", bn, 1e3, "ms")
    count(f"{bn}.calls", calls(bn))
    count("brill_noether.classes", cnt["brill_noether.classes"])
    ratio("brill_noether.hit_ratio", cnt["brill_noether.hits"],
          cnt["brill_noether.classes"])
    per_call("brill_noether.estimate_dim.s", "brill_noether.estimate_dim",
             1.0, "s")
    count("brill_noether.estimate_dim.calls",
          calls("brill_noether.estimate_dim"))
    per_call("brill_noether.merge_reports.us", "brill_noether.merge_reports")
    count("brill_noether.merge_reports.calls",
          calls("brill_noether.merge_reports"))

    per_call("cohomology.h0.us_per_call", "cohomology.h0")
    count("cohomology.h0.calls", calls("cohomology.h0"))
    count("cohomology.gluing_profile.calls", calls("cohomology.gluing_profile"))
    ratio("cohomology.profile_reuse_ratio", calls("cohomology.h0"),
          calls("cohomology.gluing_profile"))
    for layer in ("section_space", "base_locus", "h0_vanishing", "descend"):
        per_call(f"cohomology.{layer}.us_per_call", f"cohomology.{layer}")
        count(f"cohomology.{layer}.calls", calls(f"cohomology.{layer}"))

    en = "bundles.enumerate_bundles"
    m[f"{en}.us_per_class"] = (_us(total(en),
                                   cnt["bundles.classes_enumerated"]), "us")
    count("bundles.classes_enumerated", cnt["bundles.classes_enumerated"])
    for layer in ("tensor_dual", "canonical_bundle", "from_divisor"):
        per_call(f"bundles.{layer}.us_per_call", f"bundles.{layer}")
        count(f"bundles.{layer}.calls", calls(f"bundles.{layer}"))

    q_t, fp_t = tracer.timers["q"], tracer.timers["fp"]
    ratio("fields.q_share", q_t, q_t + fp_t)
    count("fields.q_ops", cnt["fields.q_ops"])
    count("fields.fp_ops", cnt["fields.fp_ops"])

    sagg = setup_tracer.agg
    rc = sagg["curve.random_curve"] if "curve.random_curve" in sagg else None
    m["curve.random_curve.us"] = (_us(rc[1], rc[0]) if rc else 0.0, "us")
    count("curve.random_curve.calls", rc[0] if rc else 0)
    per_call("curve.is_hyperelliptic_fast.us_per_call",
             "curve.is_hyperelliptic_fast")
    count("curve.is_hyperelliptic_fast.calls",
          calls("curve.is_hyperelliptic_fast"))
    per_call("picard.enumerate_strata.us_per_call", "picard.enumerate_strata")
    count("picard.enumerate_strata.calls", calls("picard.enumerate_strata"))

    for suite in ("riemann", "clifford", "serre", "lemma-e"):
        m[f"suites.{suite}.s"] = (total(f"suites.{suite}"), "s")
        count(f"suites.{suite}.classes_checked", suite_classes.get(suite, 0))

    per_call("cache.lookup.ms_per_call", "cache.lookup", 1e3, "ms")
    count("cache.lookup.calls", calls("cache.lookup"))
    count("cache.lines_scanned", cnt["cache.lines_scanned"])
    m["cache.file_bytes"] = (cnt["cache.file_bytes_total"] / calls("cache.lookup")
                             if calls("cache.lookup") else 0.0, "bytes")
    ratio("cache.hit_ratio", cnt["cache.lookup_hits"], calls("cache.lookup"))
    per_call("cache.store.ms_per_call", "cache.store", 1e3, "ms")
    count("cache.store.calls", calls("cache.store"))

    m["cli.startup_ms"] = (startup_ms, "ms")
    for cmd in ("bn", "verify", "h0", "strata"):
        per_call(f"cli.main.{cmd}.ms_per_call", f"cli.main.{cmd}", 1e3, "ms")
        count(f"cli.main.{cmd}.calls", calls(f"cli.main.{cmd}"))
    created = cnt["cli.pool.created"]
    m["cli.pool.create_ms"] = (1e3 * tracer.timers["pool_create"] / created
                               if created else 0.0, "ms")
    count("cli.pool.created", created)

    per_call("reports.canonical_json.us_per_call", "reports.canonical_json")
    count("reports.canonical_json.calls", calls("reports.canonical_json"))
    count("reports.bytes_out", cnt["reports.bytes_out"])
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


# the counters a traced run must reproduce exactly, run after run
COUNTERS = ("linalg.rank_mod_bounded.calls", "linalg.rank_rows.calls",
            "linalg.kernel_basis.calls", "linalg.rank_mod_bounded.early_exit_ratio",
            "brill_noether.classes", "brill_noether.bn_enumerate.calls",
            "cohomology.h0.calls", "cohomology.gluing_profile.calls",
            "bundles.classes_enumerated", "fields.q_ops", "fields.fp_ops",
            "cache.lines_scanned", "cache.lookup.calls", "cli.pool.created",
            "reports.bytes_out")
