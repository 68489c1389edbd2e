"""Command-line front end.

Exit codes: 0 success, 1 verification/audit failure, 2 usage or bad input.
JSON goes to stdout (or --out); human-readable tables go to stderr. The
config echoed into each report deliberately omits --jobs, --out and
--no-cache so that reruns with different plumbing stay byte-identical.

Each request pays its imports in a fresh interpreter, so module scope holds
only what every command uses and each command imports its own modules:
`verify` loads them all, and only `--jobs N` > 1 loads the process pool.
"""
from __future__ import annotations

import argparse
import json
import sys

from .curve import BinaryCurve, random_curve
from .fields import PrimeField, Rationals, field_to_json
from .reports import canonical_json, envelope, text_table
from .rng import DEFAULT_SEED, Rng


def _parse_md(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--md wants 'd1,d2', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _parse_primes(text: str):
    primes = tuple(int(t) for t in text.split(",") if t)
    if not primes:
        raise argparse.ArgumentTypeError(f"no prime in {text!r}")
    return primes


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bincurve",
        description="Line bundles, cohomology and special divisors on "
                    "two-component nodal curves.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--curve", help="curve JSON file")
        source.add_argument("--random-genus", type=int, metavar="G",
                            help="seeded random curve instead of a file")
        field = p.add_mutually_exclusive_group()
        field.add_argument("--p", type=int, help="prime field F_p")
        field.add_argument("--field", choices=["Q"], help="rationals")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="write JSON report here, not stdout")

    p = sub.add_parser("h0", help="h0/h1 and base locus of one bundle")
    add_common(p)
    p.add_argument("--md", type=_parse_md)
    p.add_argument("--bundle", help="bundle JSON file (md + gluing)")

    p = sub.add_parser("strata", help="stratify degree-d compactified Picard")
    add_common(p)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name, e.g. riemann")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--g", type=int, help="restrict to one genus")
    p.add_argument("--p", type=int, help="restrict to one prime")
    p.add_argument("--n", type=_int_at_least(1), help="sample size override")
    p.add_argument("--trials", type=_int_at_least(1))
    p.add_argument("--primes", type=_parse_primes)
    p.add_argument("--out")

    p = sub.add_parser("clifford", help="Clifford index by exhaustive scan")
    add_common(p)

    p = sub.add_parser("bn", help="count/list W^r_md classes")
    add_common(p)
    p.add_argument("--md", type=_parse_md, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--witness-cap", type=_int_at_least(0), default=64)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--audit", action="store_true",
                   help="recompute on cache hit and compare")
    return ap


def _field_from_args(args):
    if getattr(args, "field", None) == "Q":
        return Rationals()
    if getattr(args, "p", None) is not None:
        return PrimeField(args.p)
    return None


def _load_curve(args) -> BinaryCurve:
    if getattr(args, "curve", None):
        with open(args.curve, encoding="utf-8") as fh:
            return BinaryCurve.from_json(json.load(fh))
    if getattr(args, "random_genus", None) is not None:
        ctx = _field_from_args(args)
        if ctx is None:
            raise ValueError("--random-genus needs --p or --field")
        return random_curve(args.random_genus, ctx, Rng(args.seed))
    raise ValueError("provide --curve FILE or --random-genus G")


def _curve_config(args, X: BinaryCurve) -> dict:
    src = {"file": args.curve} if getattr(args, "curve", None) else \
        {"random_genus": args.random_genus, "seed": args.seed}
    return {"curve": src, "field": field_to_json(X.ctx)}


def _emit(obj: dict, out: str | None, table: str | None = None) -> None:
    text = canonical_json(obj) + "\n"
    if table:
        print(table, file=sys.stderr)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_h0(args) -> int:
    from .bundles import LineBundle, bundle_from_json
    from .cohomology import base_locus, h0, h1
    X = _load_curve(args)
    if args.bundle:
        with open(args.bundle, encoding="utf-8") as fh:
            L = bundle_from_json(X, json.load(fh))
    elif args.md is not None:
        ones = [X.ctx.one] * (X.genus + 1)
        L = LineBundle(X, args.md, ones)
    else:
        raise ValueError("provide --bundle FILE or --md d1,d2")
    n0, n1 = h0(L), h1(L)
    locus = None
    if n0 >= 1:
        bl = base_locus(L)
        locus = {
            "smooth_points": [[comp, "inf" if pt.is_infinity()
                               else X.ctx.fmt(pt.a)]
                              for comp, pt in bl.smooth_points],
            "nodes": list(bl.nodes),
            "full_components": list(bl.full_components),
        }
    payload = {**L.to_json(), "h0": n0, "h1": n1, "base_locus": locus}
    cfg = {**_curve_config(args, X), "md": list(L.md)}
    _emit(envelope("h0", "section-space dimensions", cfg, payload), args.out)
    return 0


def cmd_strata(args) -> int:
    from .picard import Ell0, enumerate_strata, picard_type, strata_to_json
    X = _load_curve(args)
    strata = enumerate_strata(X, args.d)
    payload = {"d": args.d, "genus": X.genus,
               "picard_type": picard_type(args.d, X.genus),
               "strata": strata_to_json(strata)}
    rows = [("ell0", "-", "-") if isinstance(st, Ell0) else
            (",".join(map(str, st.S)) or "-", f"({st.md[0]},{st.md[1]})",
             st.dim) for st in strata]
    table = text_table(("S", "md", "dim"), rows)
    cfg = {**_curve_config(args, X), "d": args.d}
    _emit(envelope("strata", "compactified-Picard strata", cfg, payload),
          args.out, table)
    return 0


# verify overrides and the suite parameters each one sets; a flag that
# sets none of a suite's parameters is an error. gs and ps get a 1-tuple.
VERIFY_OVERRIDES = {"g": ("gs", "g"), "p": ("ps", "p"),
                    "n": ("n_curves", "n_random"), "trials": ("trials",),
                    "primes": ("primes",), "seed": ("seed",)}


def cmd_verify(args) -> int:
    import inspect
    from .suites import SUITES
    fn = SUITES.get(args.suite)
    if fn is None:
        raise ValueError(f"no suite {args.suite!r}; the suites are "
                         + ", ".join(sorted(SUITES)))
    accepted = inspect.signature(fn).parameters
    kwargs = {"jobs": args.jobs} if "jobs" in accepted else {}
    for flag, params in VERIFY_OVERRIDES.items():
        value = getattr(args, flag)
        if value is None:
            continue
        hit = [k for k in params if k in accepted]
        if not hit:
            raise ValueError(f"verify {args.suite} takes no --{flag}")
        for k in hit:
            kwargs[k] = (value,) if k in ("gs", "ps") else value
    res = fn(**kwargs)
    cfg = dict(res.config)
    table = text_table(("suite", "passed"),
                       [(res.name, "yes" if res.passed else "NO")])
    _emit(envelope("verify", res.name, cfg, res.to_json()), args.out, table)
    return 0 if res.passed else 1


def cmd_clifford(args) -> int:
    from .brill_noether import clifford_index
    X = _load_curve(args)
    rep = clifford_index(X)
    cfg = _curve_config(args, X)
    _emit(envelope("clifford", "clifford index over F_p", cfg, rep.to_json()),
          args.out)
    return 0


def _bn_shard(job):
    from .brill_noether import bn_enumerate
    X, q, cap, index_range = job
    return bn_enumerate(X, q, witness_cap=cap, index_range=index_range)


def _bn_compute(X: BinaryCurve, q, cap: int, jobs: int):
    from .brill_noether import merge_reports, pool_map, split_ranges
    from .bundles import bundle_count
    shards = [(X, q, cap, rg) for rg in split_ranges(bundle_count(X), jobs)]
    return merge_reports(pool_map(_bn_shard, shards, jobs))


def _is_report_of(value: dict, X: BinaryCurve, q, cap: int) -> bool:
    # a cached value is served only if BNReport.to_json writes it back byte
    # for byte, with witnesses that LineBundle keeps as they are (canonical
    # units, the last node pinned) and counts that fit this request
    from .brill_noether import BNReport
    from .bundles import LineBundle, bundle_count
    total = bundle_count(X)
    try:
        count = value["count"]
        wits = tuple(tuple(int(x) for x, _ in w) for w in value["witnesses"])
        if not (type(count) is int and 0 <= count <= total
                and len(wits) == min(count, cap)
                and all(LineBundle(X, q.md, w).c == w for w in wits)):
            return False
        rep = BNReport(q, X.ctx.p, count, wits, cap, (0, total))
        return canonical_json(rep.to_json()) == canonical_json(value)
    except (KeyError, TypeError, ValueError):
        return False


def cmd_bn(args) -> int:
    from .brill_noether import BNQuery
    from .cache import JsonlCache, bn_key
    X = _load_curve(args)
    q = BNQuery(args.md, args.r)
    cache = None if args.no_cache else JsonlCache()
    key = bn_key(X.to_json(), q.md, q.r, args.witness_cap)
    payload = cache.lookup(key) if cache is not None else None
    if payload is not None and not _is_report_of(payload, X, q,
                                                 args.witness_cap):
        payload = None  # a malformed entry is a miss: recompute and store
    audit = None
    if payload is not None and args.audit:
        fresh = _bn_compute(X, q, args.witness_cap, args.jobs).to_json()
        audit = {"checked": True, "match": fresh == payload}
        payload = fresh
    if payload is None:
        payload = _bn_compute(X, q, args.witness_cap, args.jobs).to_json()
        if cache is not None:
            cache.store(key, payload)
    if audit is not None:
        payload = {**payload, "audit": audit}
    cfg = {**_curve_config(args, X), "md": list(q.md), "r": q.r,
           "witness_cap": args.witness_cap, "audit": args.audit}
    table = text_table(("md", "r", "p", "count"),
                       [(f"({q.md[0]},{q.md[1]})", q.r, payload["p"],
                         payload["count"])])
    _emit(envelope("bn", "rational W^r locus", cfg, payload),
          args.out, table)
    if audit is not None and not audit["match"]:
        print("bn: cache entry disagreed with recomputation", file=sys.stderr)
        return 1
    return 0


COMMANDS = {"h0": cmd_h0, "strata": cmd_strata, "verify": cmd_verify,
            "clifford": cmd_clifford, "bn": cmd_bn}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:       # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"bincurve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
