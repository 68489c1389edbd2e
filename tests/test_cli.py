import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bincurve.cache import JsonlCache, bn_key
from bincurve.cli import COMMANDS, _load_curve, build_parser, main
from bincurve.curve import standard_curve
from bincurve.fields import PrimeField
from bincurve.suites import SUITES


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("BINCURVE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _bn_key_of(argv):
    """The cache key that `bincurve bn argv` looks up."""
    ns = build_parser().parse_args(list(argv))
    return bn_key(_load_curve(ns).to_json(), ns.md, ns.r, ns.witness_cap)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_h0_trivial_bundle_g2(capsys):
    code, rep, _ = run(capsys, "h0", "--random-genus", "2", "--p", "7",
                       "--md", "0,0")
    assert code == 0
    assert rep["command"] == "h0" and rep["version"]
    assert rep["report"]["h0"] == 1 and rep["report"]["h1"] == 2


def test_h0_from_files(tmp_path, capsys):
    X = standard_curve(3, PrimeField(7))
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps(X.to_json()))
    bundle_file = tmp_path / "bundle.json"
    bundle_file.write_text(json.dumps(
        {"md": [2, 2], "c": [["1", "1"]] * 4}))
    code, rep, _ = run(capsys, "h0", "--curve", str(curve_file),
                       "--bundle", str(bundle_file))
    assert code == 0
    assert rep["report"]["md"] == [2, 2]
    assert rep["report"]["h0"] >= 2


def test_h0_canonical_g3(tmp_path, capsys):
    # h0 = 3, h1 = 1 for the canonical class on genus 3
    from bincurve.bundles import canonical_bundle
    X = standard_curve(3, PrimeField(7))
    w = canonical_bundle(X)
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps(X.to_json()))
    bf = tmp_path / "b.json"
    bf.write_text(json.dumps(w.to_json()))
    code, rep, _ = run(capsys, "h0", "--curve", str(cf), "--bundle", str(bf))
    assert code == 0
    assert rep["report"]["h0"] == 3 and rep["report"]["h1"] == 1


def test_strata_counts_and_type(capsys):
    code, rep, err = run(capsys, "strata", "--random-genus", "2", "--p", "7",
                         "--d", "2")
    assert code == 0
    assert rep["report"]["picard_type"] == "neron"
    assert len(rep["report"]["strata"]) == 12
    # human table goes to stderr: a header, its underline, a row a stratum
    lines = err.splitlines()
    assert lines[0].split() == ["S", "md", "dim"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 12
    # the open strata (no node separated) read "-", their md and dim g = 2
    assert rows[:3] == [["-", "(0,2)", "2"], ["-", "(1,1)", "2"],
                        ["-", "(2,0)", "2"]]
    code, rep, err = run(capsys, "strata", "--random-genus", "2", "--p", "7",
                         "--d", "3")
    assert rep["report"]["picard_type"] == "degeneration"
    assert rep["report"]["strata"][-1] == {"ell0": True}
    rows = [line.split() for line in err.splitlines()[2:]]
    assert len(rows) == len(rep["report"]["strata"])
    assert rows[-1] == ["ell0", "-", "-"]


def test_verify_suite_passes_and_fails_exit_codes(capsys):
    code, rep, _ = run(capsys, "verify", "riemann", "--g", "2", "--p", "5")
    assert code == 0 and rep["report"]["passed"] is True
    assert rep["command"] == "verify" and rep["label"] == "riemann"


def test_verify_unknown_suite_exits_2_naming_the_suites(capsys):
    assert main(["verify", "nosuch"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "'nosuch'" in out.err and "riemann" in out.err


def test_verify_accepts_overrides(capsys):
    code, rep, _ = run(capsys, "verify", "riemann", "--g", "2", "--p", "7")
    assert code == 0
    assert rep["report"]["config"]["gs"] == [2]
    assert rep["report"]["config"]["ps"] == [7]


def test_bn_random_genus_5_over_f7(capsys):
    # random_curve needs p >= g, so --random-genus reaches g5 p7
    code, rep, _ = run(capsys, "bn", "--random-genus", "5", "--p", "7",
                       "--md", "2,2", "--r", "1", "--no-cache")
    assert code == 0
    assert rep["report"]["index_range"] == [0, 6 ** 5]
    assert rep["report"]["count"] == 6


def test_bn_cache_round_trip_and_no_cache(capsys):
    args = ("bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1")
    code1, rep1, _ = run(capsys, *args)
    code2, rep2, _ = run(capsys, *args)          # cache hit
    code3, rep3, _ = run(capsys, *args, "--no-cache")
    assert code1 == code2 == code3 == 0
    assert rep1 == rep2 == rep3


def test_bn_audit_detects_poisoned_cache(tmp_path, capsys):
    args = ("bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1")
    code, rep, _ = run(capsys, *args)
    assert code == 0
    # poison: overwrite the entry with a wrong count under the same key, of
    # the report's shape (the true count is 0)
    cache = JsonlCache()
    poisoned = dict(rep["report"], count=1, witnesses=[_witness("1", "1")])
    cache.store(_bn_key_of(args), poisoned)
    code2, rep2, err = run(capsys, *args)        # un-audited hit: wrong count
    assert rep2["report"]["count"] == 1
    code3, rep3, err3 = run(capsys, *args, "--audit")
    assert code3 == 1
    assert rep3["report"]["audit"] == {"checked": True, "match": False}
    assert rep3["report"]["count"] == rep["report"]["count"]
    assert "disagreed" in err3


def test_bn_audit_match_passes(capsys):
    args = ("bn", "--random-genus", "2", "--p", "7", "--md", "1,0", "--r", "0")
    run(capsys, *args)
    code, rep, _ = run(capsys, *args, "--audit")
    assert code == 0
    assert rep["report"]["audit"] == {"checked": True, "match": True}


def test_bn_sharded_equals_serial(capsys):
    base = ("bn", "--random-genus", "3", "--p", "7", "--md", "2,2", "--r", "1",
            "--no-cache")
    code1, rep1, _ = run(capsys, *base)
    code8, rep8, _ = run(capsys, *base, "--jobs", "8")
    assert code1 == code8 == 0
    assert rep1 == rep8


def test_abel_is_not_a_command(capsys):
    assert main(["abel", "--random-genus", "3", "--p", "7",
                 "--md", "1,1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "invalid choice" in out.err


def test_readme_names_every_command_and_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    sentence = re.search(r"^Commands: (.*?)\.\s", readme,
                         re.MULTILINE | re.DOTALL).group(1)
    commands, suites = re.split(r"\swith\s+suites\s", sentence)
    assert {name.split()[0] for name in re.findall(r"`([^`]+)`", commands)} \
        == set(COMMANDS)
    assert re.findall(r"`([^`]+)`", suites) == list(SUITES)


def test_readme_synopsis_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    synopsis = re.search(r"^```\n(bincurve <command> .*?)^```", readme,
                         re.MULTILINE | re.DOTALL).group(1)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {opt for sub in commands.values() for a in sub._actions
               if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings}
    assert "--d" in options and "--trials" in options
    assert not options - set(re.findall(r"--[a-z-]+", synopsis))


def test_negative_md_needs_the_equals_form(capsys):
    # argparse reads "-1,4" after a space as an option, not as the value
    base = ("bn", "--random-genus", "3", "--p", "7", "--r", "0", "--no-cache")
    assert main([*base, "--md", "-1,4"]) == 2
    assert "expected one argument" in capsys.readouterr().err
    code, rep, _ = run(capsys, *base, "--md=-1,4")
    assert code == 0
    assert rep["report"]["count"] == 216   # the whole (p-1)^g torus


def test_clifford_command(capsys):
    code, rep, _ = run(capsys, "clifford", "--random-genus", "2", "--p", "7")
    assert code == 0
    assert rep["report"]["cliff"] == 0


def test_out_writes_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["h0", "--random-genus", "2", "--p", "7", "--md", "1,1",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["report"]["h0"] == 2
    assert capsys.readouterr().out == ""   # JSON went to the file


def test_config_echo_omits_plumbing_flags(capsys):
    base = ("bn", "--random-genus", "2", "--p", "7", "--md", "1,1", "--r", "0")
    _, rep1, _ = run(capsys, *base, "--jobs", "4", "--no-cache")
    _, rep2, _ = run(capsys, *base)
    assert rep1["config"] == rep2["config"]
    assert "jobs" not in rep1["config"] and "no_cache" not in rep1["config"]


def test_usage_and_input_errors_exit_2(capsys, tmp_path):
    assert main(["h0", "--curve", "/does/not/exist.json", "--md", "1,1"]) == 2
    capsys.readouterr()
    assert main(["bogus-command"]) == 2
    capsys.readouterr()
    assert main(["h0", "--random-genus", "2", "--p", "7"]) == 2  # no bundle
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["h0", "--curve", str(bad), "--md", "1,1"]) == 2
    capsys.readouterr()
    assert main(["h0", "--random-genus", "2", "--md", "1,1"]) == 2  # no field
    capsys.readouterr()


@pytest.mark.parametrize("flags,message", [
    (["--random-genus", "3", "--field", "Q", "--p", "7"],
     "argument --p: not allowed with argument --field"),
    (["--random-genus", "3", "--p", "7", "--field", "Q"],
     "argument --field: not allowed with argument --p"),
    (["--curve", "{c11}", "--random-genus", "4", "--p", "7"],
     "argument --random-genus: not allowed with argument --curve"),
    (["--random-genus", "4", "--curve", "{c11}"],
     "argument --curve: not allowed with argument --random-genus"),
], ids=["field-then-p", "p-then-field", "curve-then-random",
        "random-then-curve"])
def test_conflicting_curve_and_field_flags_exit_2(tmp_path, capsys, flags,
                                                  message):
    # the synopsis is [--curve FILE | --random-genus G] [--p P | --field Q]
    c11 = tmp_path / "c11.json"
    c11.write_text(json.dumps(standard_curve(3, PrimeField(11)).to_json()))
    argv = [f.format(c11=c11) for f in flags]
    for command in (["h0", "--md", "1,1"], ["strata", "--d", "2"],
                    ["bn", "--md", "1,1", "--r", "0", "--no-cache"]):
        assert main(command[:1] + argv + command[1:]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert message in out.err and out.err.isascii()


@pytest.mark.parametrize("doc,message", [
    ({"field": {"type": "Fp", "p": 7}, "nodes": [[["0"]]]}, "each node"),
    ({"field": {"type": "Fp", "p": 7}, "nodes": 5}, "curve JSON"),
    ([{"field": {"type": "Fp", "p": 7}}], "curve JSON"),
    ({"field": {"type": "Fp", "p": [7]}, "nodes": []}, "field 'p'"),
    ({"field": {"type": "Fp", "p": 7.9}, "nodes": []}, "field 'p'"),
    # bool is an int in Python, and int(True) = 1 is not prime either
    ({"field": {"type": "Fp", "p": True}, "nodes": []}, "field 'p'"),
    ({"field": {"type": "Fp"}, "nodes": []}, "field 'p'"),
], ids=["short-node", "nodes-not-a-list", "top-level-list", "p-a-list",
        "p-a-float", "p-a-bool", "p-missing"])
def test_malformed_curve_json_exits_2(tmp_path, capsys, doc, message):
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps(doc))
    assert main(["h0", "--curve", str(cf), "--md", "1,1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


ONES = [["1", "1"]] * 3   # a valid gluing vector on a genus-2 curve


@pytest.mark.parametrize("doc", [
    {"md": [1, 1], "c": 5},
    [1, 2],
    {"md": "1,1", "c": ONES},
    {"md": [1, None], "c": ONES},
    {"c": ONES},
    {"md": [1, 1], "c": [["1", "1"]] * 2},
    {"md": [1, 1], "c": [["1"], ["1"], ["1"]]},
    {"md": [1, 1], "c": [["0", "1"], ["1", "1"], ["1", "1"]]},
    {"md": [1, 1], "c": [["1", "0"], ["1", "1"], ["1", "1"]]},
], ids=["c-not-a-list", "top-level-list", "md-a-string", "md-null-entry",
        "md-missing", "c-too-short", "c-short-pair", "c-zero-value",
        "c-zero-denominator"])
def test_malformed_bundle_json_exits_2(tmp_path, capsys, doc):
    bf = tmp_path / "b.json"
    bf.write_text(json.dumps(doc))
    assert main(["h0", "--random-genus", "2", "--p", "7",
                 "--bundle", str(bf)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err


def _rational_point_files(tmp_path, a):
    """Curve and bundle files: O(a) on component 1 of the genus-3 curve over
    Q with nodes (0,0), (1,1), (oo,oo), (2,5); md (1, 0), c_j = p_j - a."""
    cf, bf = tmp_path / "c.json", tmp_path / "b.json"
    pts = ("0", "1"), ("1", "1"), ("1", "0"), ("2", "1")
    cf.write_text(json.dumps({
        "field": {"type": "Q"},
        "nodes": [[list(p), list(q)] for p, q in
                  zip(pts, pts[:3] + (("5", "1"),))]}))
    c = [[str(-a), "1"], [str(1 - a), "1"], ["1", "1"], [str(2 - a), "1"]]
    bf.write_text(json.dumps({"md": [1, 0], "c": c}))
    return cf, bf


def test_h0_rational_base_point_past_the_search_bound_exits_2(
        tmp_path, capsys):
    a = 10 ** 5 + 7
    cf, bf = _rational_point_files(tmp_path, a)
    code, rep, _ = run(capsys, "h0", "--curve", str(cf), "--bundle", str(bf))
    assert code == 0
    assert rep["report"]["base_locus"]["smooth_points"] == [[1, str(a)]]
    cf, bf = _rational_point_files(tmp_path, 10 ** 20 + 7)
    assert main(["h0", "--curve", str(cf), "--bundle", str(bf)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert "rational-root search bound 1000000000000" in out.err
    assert out.err.isascii()


def test_bn_cache_entry_of_other_code_is_a_miss(capsys, monkeypatch):
    import bincurve.cache
    args = ("bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1")
    _, rep, _ = run(capsys, *args)
    real = bincurve.cache.code_digest
    monkeypatch.setattr(bincurve.cache, "code_digest", lambda: "0" * 64)
    stale = dict(rep["report"], count=1, witnesses=[_witness("1", "1")])
    JsonlCache().store(_bn_key_of(args), stale)
    _, rep_old, _ = run(capsys, *args)
    assert rep_old["report"]["count"] == 1   # served to its own code only
    # setattr, not undo(): undo would also drop the fixture's cache dir
    monkeypatch.setattr(bincurve.cache, "code_digest", real)
    _, rep_new, _ = run(capsys, *args)
    assert rep_new == rep


def test_bn_witness_caps_have_their_own_entries(capsys):
    args = ("bn", "--random-genus", "3", "--p", "7", "--md", "2,2", "--r", "1")
    cache = JsonlCache()
    _, rep64, _ = run(capsys, *args)
    _, rep2, _ = run(capsys, *args, "--witness-cap", "2")
    assert rep2["report"]["witness_cap"] == 2
    assert rep2["report"]["witnesses"] == rep64["report"]["witnesses"][:2]
    # two misses, two entries; both caps now hit
    assert len(Path(cache.path).read_text().splitlines()) == 2
    assert cache.lookup(_bn_key_of(args)) == rep64["report"]
    assert cache.lookup(_bn_key_of(args + ("--witness-cap", "2"))) == \
        rep2["report"]
    _, hit64, _ = run(capsys, *args)
    _, hit2, _ = run(capsys, *args, "--witness-cap", "2")
    assert (hit64, hit2) == (rep64, rep2)
    assert len(Path(cache.path).read_text().splitlines()) == 2


@pytest.mark.parametrize("shape", ["list", "int-value"])
def test_bn_skips_cache_lines_of_another_shape(capsys, shape):
    argv = ["bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    key = _bn_key_of(argv)
    bad = [key] if shape == "list" else {"key": key, "value": 5}
    with open(JsonlCache().path, "a") as fh:
        fh.write(json.dumps(bad) + "\n")
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == first and "Traceback" not in out.err


def _witness(first, last):
    # a g=3 witness as BNReport.to_json writes it, from its end coordinates
    return [[first, "1"], ["1", "1"], ["1", "1"], [last, "1"]]


@pytest.mark.parametrize("spoil", [
    lambda rep: {},
    lambda rep: {"p": 7, "count": "x"},
    lambda rep: dict(rep, p=11),
    lambda rep: dict(rep, witness_cap=2),
    lambda rep: dict(rep, query={"md": [1, 1], "r": 2}),
    lambda rep: dict(rep, count=True),
    lambda rep: dict(rep, count=1, witnesses=[["1", "1"]]),
    lambda rep: dict(rep, seed=None),
    lambda rep: dict(rep, count=4, witnesses=rep["witnesses"][:1]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("99", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("x", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("0", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("1", "2")]),
    lambda rep: dict(rep, count=217, witnesses=[_witness("1", "1")] * 64),
    lambda rep: dict(rep, p=7.0),
    lambda rep: dict(rep, witness_cap=64.0),
    lambda rep: dict(rep, query={**rep["query"], "r": 1.0}),
    lambda rep: dict(rep, count=1, witnesses=[_witness("03", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness(" 3", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("0_3", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness(3, "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("-3", "1")]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("3" * 5000, "1")]),
    lambda rep: dict(rep, count=1,
                     witnesses=[[["3", "2"]] + _witness("1", "1")[1:]]),
    lambda rep: dict(rep, count=1,
                     witnesses=[[["3", "1", "1"]] + _witness("1", "1")[1:]]),
    lambda rep: dict(rep, count=1, witnesses=[_witness("3", "1")[1:]]),
    lambda rep: dict(rep, count=1, witnesses=[{"c": "3"}]),
    lambda rep: dict(rep, count=1, witnesses="3"),
    lambda rep: dict(rep, index_range=[0, True]),
    lambda rep: dict(rep, count=-1, witnesses=[]),
], ids=["empty", "str-count", "other-p", "other-cap", "other-query",
        "bool-count", "bad-witness", "extra-field", "short-witnesses",
        "coordinate-99", "coordinate-x", "coordinate-0", "last-not-pinned",
        "count-above-torus", "float-p", "float-cap", "float-r",
        "coordinate-03", "coordinate-space", "coordinate-underscore",
        "coordinate-int", "coordinate-negative", "coordinate-5000-digits",
        "pair-denominator-2", "pair-of-three", "short-witness",
        "dict-witness", "str-witnesses", "bool-index-range",
        "negative-count"])
def test_bn_malformed_cache_value_is_a_miss(capsys, spoil):
    # a value that BNReport.to_json would not write for this request is
    # recomputed and stored again, and the output is a clean run's
    argv = ["bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1"]
    assert main(argv + ["--no-cache"]) == 0
    clean = capsys.readouterr().out
    report = json.loads(clean)["report"]
    key = _bn_key_of(argv)
    JsonlCache().store(key, spoil(report))
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == clean and "Traceback" not in out.err
    assert JsonlCache().lookup(key) == report


@pytest.mark.parametrize("flag,value", [("--jobs", "0"),
                                        ("--witness-cap", "-1")])
def test_bn_rejects_out_of_range_counts(capsys, flag, value):
    assert main(["bn", "--random-genus", "2", "--p", "7", "--md", "1,1",
                 "--r", "0", "--no-cache", flag, value]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "bn", "--n", "0"),
    ("verify", "hyperelliptic", "--n", "-3"),
    ("verify", "very-ample", "--trials", "-1"),
    ("verify", "very-ample", "--trials", "0"),
])
def test_count_flags_reject_zero_and_negative(capsys, argv):
    assert main(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be >= 1" in out.err


@pytest.mark.parametrize("argv,flag", [
    (("verify", "very-ample", "--primes", "7"), "--primes"),
    (("verify", "martens", "--g", "3"), "--g"),
    (("verify", "riemann", "--n", "5"), "--n"),
    (("verify", "lemma-e", "--trials", "2"), "--trials"),
    (("verify", "martens", "--seed", "3"), "--seed"),
])
def test_verify_rejects_flags_the_suite_does_not_take(capsys, argv, flag):
    assert main(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"verify {argv[1]} takes no {flag}" in out.err


@pytest.mark.parametrize("primes,message", [
    ("13,13", "need at least two distinct primes"),
    (",", "no prime in ','"),
])
def test_verify_martens_needs_two_distinct_primes(capsys, primes, message):
    assert main(["verify", "martens", "--primes", primes]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert message in out.err


@pytest.mark.parametrize("primes,hyp_counts", [
    ("11,23", [19, 43]), ("11,13", [19, 23])])
def test_verify_martens_at_other_prime_pairs(capsys, primes, hyp_counts):
    # the one-md count of the old check went 7 -> 19 and 7 -> 9 here and
    # read inconclusive; the W̄ totals round to 1 at every pair
    code, rep, err = run(capsys, "verify", "martens", "--primes", primes)
    assert code == 0, err
    row = rep["report"]["summary"]["rows"][2]
    assert (row["fixture"], row["d"]) == ("hyp4", 3)
    assert row["estimate"]["counts"] == hyp_counts
    assert row["estimate"]["rounded"] == 1


def test_verify_clifford_when_branch_points_fill_the_line(capsys):
    # g = p = 5: each side's six branch points are all of P^1(F_5), and the
    # suite pins its result to the canonical bundle
    code, rep, err = run(capsys, "verify", "clifford", "--g", "5", "--p", "5")
    assert code == 0, err
    assert rep["report"]["passed"] is True


def test_verify_accepts_plumbing_flags_everywhere(tmp_path, capsys):
    # riemann takes neither --jobs nor --out; both stay accepted
    out = tmp_path / "r.json"
    code = main(["verify", "riemann", "--g", "1", "--p", "5", "--seed", "3",
                 "--jobs", "2", "--out", str(out)])
    assert code == 0 and capsys.readouterr().out == ""
    assert json.loads(out.read_text())["report"]["config"]["gs"] == [1]


def test_random_curve_needs_field_but_file_does_not(tmp_path, capsys):
    X = standard_curve(2, PrimeField(11))
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps(X.to_json()))
    code, rep, _ = run(capsys, "h0", "--curve", str(cf), "--md", "1,1")
    assert code == 0
    assert rep["config"]["field"] == {"type": "Fp", "p": 11}


MODULES_AFTER = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from bincurve.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import bincurve
    code = 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def _modules_after(argv):
    """Exit code and sys.modules of a fresh interpreter after main(argv);
    with no argv, after `import bincurve` alone."""
    import bincurve
    src = os.path.dirname(os.path.dirname(os.path.abspath(bincurve.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_AFTER, json.dumps(list(argv))],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_import_bincurve_loads_no_submodule():
    _, modules = _modules_after([])
    assert "bincurve" in modules
    assert not {m for m in modules if m.startswith("bincurve.")}


@pytest.mark.parametrize("argv,unused", [
    (("h0", "--random-genus", "3", "--p", "7", "--md", "2,2"), set()),
    # strata only lists multidegrees: no bundle, no h0, no elimination
    (("strata", "--random-genus", "3", "--p", "7", "--d", "2"),
     {"bincurve.bundles", "bincurve.cohomology", "bincurve.linalg"}),
], ids=["h0", "strata"])
def test_h0_and_strata_load_no_scan_modules(argv, unused):
    code, modules = _modules_after(argv)
    assert code == 0
    assert not modules & {"bincurve.brill_noether", "bincurve.suites",
                          "bincurve.cache", *unused}


def test_bn_at_jobs_1_loads_no_pool(isolated_cache):
    argv = ("bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1")
    for _ in ("miss", "hit"):
        code, modules = _modules_after(argv)
        assert code == 0
        assert "bincurve.brill_noether" in modules
        assert not modules & {"bincurve.suites", "multiprocessing"}
    lines = (isolated_cache / "cache" / "bn.jsonl").read_text().splitlines()
    assert len(lines) == 1  # the second run was a hit


@pytest.mark.parametrize("argv,loaded,absent", [
    # the pool helper lives beside the shard/merge code: bn's pool loads
    # no suites, and only a pool of more than one worker loads the executor
    (("bn", "--random-genus", "3", "--p", "7", "--md", "1,1", "--r", "1",
      "--jobs", "2"), {"concurrent.futures.process"}, {"bincurve.suites"}),
    (("verify", "riemann", "--g", "1", "--p", "5"), {"bincurve.suites"},
     {"concurrent.futures.process", "multiprocessing"}),
    (("verify", "hyperelliptic", "--g", "3", "--p", "7", "--n", "1",
      "--jobs", "2"), {"bincurve.suites", "concurrent.futures.process"},
     set()),
], ids=["bn-jobs-2", "verify", "verify-jobs-2"])
def test_pool_and_verify_load_suites(argv, loaded, absent):
    code, modules = _modules_after(argv)
    assert code == 0
    assert loaded <= modules and not modules & absent
