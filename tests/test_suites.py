import json
import os

import pytest

from bincurve import brill_noether, cohomology, suites
from bincurve.brill_noether import DimPrediction, torus_h0
from bincurve.curve import random_curve, standard_curve
from bincurve.fields import PrimeField
from bincurve.picard import balanced_set
from bincurve.reports import canonical_json, envelope, text_table
from bincurve.rng import Rng
from bincurve.suites import SUITES, SuiteResult, _curve_grid


EXPECTED_SUITES = {"riemann", "clifford", "serre", "empty", "lemma-e",
                   "hyperelliptic", "martens", "bn", "very-ample"}


def test_registry_is_complete():
    assert set(SUITES) == EXPECTED_SUITES


def test_curve_grid_order_and_labels():
    # a passing report does not show which random curve a suite drew, so
    # pin the fixtures: every (g, p) cell spawns a child rng, and only
    # g=3, p=7 draws from its own, the 4th
    seed = 3
    F5, F7 = PrimeField(5), PrimeField(7)
    rng = Rng(seed)
    children = [rng.spawn() for _ in range(4)]
    want = [({"g": 2, "p": 5, "curve": 0}, standard_curve(2, F5)),
            ({"g": 2, "p": 7, "curve": 0}, standard_curve(2, F7)),
            ({"g": 3, "p": 5, "curve": 0}, standard_curve(3, F5)),
            ({"g": 3, "p": 7, "curve": 0}, standard_curve(3, F7)),
            ({"g": 3, "p": 7, "curve": 1}, random_curve(3, F7, children[3]))]
    got = list(_curve_grid((2, 3), (5, 7), seed))
    assert [where for where, _ in got] == [where for where, _ in want]
    assert all(X.same_curve(Y) for (_, X), (_, Y) in zip(got, want))
    # a grid that spawned only where it draws would use the 1st child
    assert not got[-1][1].same_curve(random_curve(3, F7, Rng(seed).spawn()))


def test_envelope_shape():
    env = envelope("verify", "riemann", {"seed": 1}, {"ok": True})
    assert set(env) == {"command", "label", "version", "config", "report"}
    assert env["version"]


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": [1, 2], "a": {"y": 1, "x": 2}})
    assert s == '{"a":{"x":2,"y":1},"b":[1,2]}'


def test_text_table_alignment():
    t = text_table(("name", "n"), [("a", 1), ("bb", 22)])
    lines = t.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "name" in lines[0] and "bb" in lines[3]


def test_riemann_suite_small_and_deterministic():
    r1 = SUITES["riemann"](gs=(2,), ps=(7,), seed=3)
    r2 = SUITES["riemann"](gs=(2,), ps=(7,), seed=3)
    assert isinstance(r1, SuiteResult) and r1.passed
    assert canonical_json(r1.to_json()) == canonical_json(r2.to_json())
    assert r1.summary["classes_checked"] > 0
    assert r1.config == {"gs": [2], "ps": [7], "seed": 3}


def test_clifford_suite_small():
    res = SUITES["clifford"](gs=(2,), ps=(5,), seed=3)
    assert res.passed and res.summary["n_problems"] == 0
    assert res.config == {"gs": [2], "ps": [5], "seed": 3}


def test_clifford_suite_catches_a_dropped_name(monkeypatch):
    # a planted fault: every degree loses the first class the theorem names
    real = suites.clifford_equality_classes
    monkeypatch.setattr(suites, "clifford_equality_classes",
                        lambda X, d: real(X, d)[1:])
    res = suites.suite_clifford(gs=(2,), ps=(5,))
    assert not res.passed
    assert [(pr["kind"], pr["d"]) for pr in res.summary["problems"]] == [
        ("equality", 0), ("equality", 2)]


def test_serre_suite_small():
    res = SUITES["serre"](gs=(1,), ps=(5,), seed=3)
    assert res.passed
    assert res.config == {"gs": [1], "ps": [5], "seed": 3}


def test_empty_suite_small():
    res = SUITES["empty"](gs=(2,), ps=(7,), seed=3)
    assert res.passed and res.summary["cases"] > 0
    assert res.config == {"gs": [2], "ps": [7], "seed": 3}


def test_empty_suite_catches_a_raised_floor(monkeypatch):
    # a planted fault: the rank floor of every two-block torus rises by one,
    # so predicted_empty names loci that are not empty; a walk stopping at
    # the same floor would count them all zero
    real = brill_noether.rank_floor
    monkeypatch.setattr(brill_noether, "rank_floor",
                        lambda md, n: real(md, n) + (min(md) >= 0))
    res = SUITES["empty"](gs=(2,), ps=(7,))
    assert not res.passed and res.summary["n_violations"] > 0


def test_empty_suite_catches_an_elimination_one_low(monkeypatch):
    # a planted fault: every elimination reads one rank low, so every class
    # reads one section too many; the first violations sit on one-block tori
    # (d = -1), whose rank h0_gluings eliminates once per torus
    real = cohomology.echelon
    monkeypatch.setattr(cohomology, "echelon",
                        lambda rows, ncols, p: real(rows, ncols, p) - 1)
    res = SUITES["empty"](gs=(2,), ps=(7,))
    assert not res.passed
    assert any(min(v["md"]) < 0 for v in res.summary["violations"])


@pytest.mark.parametrize("name,kwargs,field,kind,keys", [
    ("serre", {"gs": (1,), "ps": (5,)}, "violations", None,
     {"g", "p", "curve", "md", "c", "lhs", "rhs"}),
    ("empty", {"gs": (1,), "ps": (7,)}, "violations", None,
     {"g", "p", "curve", "md", "r", "count"}),
    ("lemma-e", {"ps": (5,), "g": 2}, "problems", "descent-fiber",
     {"p", "kind", "md", "c", "fiber", "exists", "unique"}),
])
def test_suites_catch_one_generic_h0_off_by_one(monkeypatch, name, kwargs,
                                                field, kind, keys):
    # a planted fault: the first class the suite hands to generic h0 reads
    # one section too many; the one problem record keeps its keys and JSON
    real = suites.h0_gluings
    planted = []

    def faulty(X, md, gluings):
        for h in real(X, md, gluings):
            if not planted:
                planted.append(md)
                h += 1
            yield h
    monkeypatch.setattr(suites, "h0_gluings", faulty)
    res = SUITES[name](**kwargs)
    assert planted and not res.passed
    assert res.summary[f"n_{field}"] == 1
    (record,) = res.summary[field]
    assert set(record) == keys and record.get("kind") == kind
    assert json.loads(canonical_json(res.to_json()))["summary"][field] == [
        record]


def test_lemma_e_suite_small():
    res = SUITES["lemma-e"](ps=(7,), seed=3)
    assert res.passed and res.summary["checked"] > 0
    assert res.config == {"ps": [7], "seed": 3, "g": 3}


def test_lemma_e_suite_low_genus():
    # random_curve needs g >= 2, so genus 0 and 1 take the standard curve
    for g, checked in ((0, 26), (1, 206)):
        res = SUITES["lemma-e"](g=g)
        assert res.passed and res.summary["checked"] == checked


def test_hyperelliptic_suite_small_jobs_identical():
    # two combos of 9 curves in one pool: chunks of 8 cross the boundary
    kw = dict(gs=(3,), ps=(7, 11), n_random=6, n_special=3, seed=3)
    r1 = SUITES["hyperelliptic"](jobs=1, **kw)
    r2 = SUITES["hyperelliptic"](jobs=2, **kw)
    assert r1.passed
    assert canonical_json(r1.to_json()) == canonical_json(r2.to_json())
    # jobs is plumbing: no config records it
    assert r1.config == r2.config == {"gs": [3], "ps": [7, 11],
                                      "n_random": 6, "n_special": 3,
                                      "seed": 3}
    combos = r1.summary["combos"]
    assert [(c["g"], c["p"]) for c in combos] == [(3, 7), (3, 11)]
    for combo in combos:
        assert combo["n"] == 9 and combo["n_hyperelliptic"] >= 3


def test_bn_suite_small():
    res = SUITES["bn"](n_curves=8, seed=3)
    assert res.passed
    assert res.summary["rho_negative"]["rows"][0]["verdict"] == "pass"
    assert res.config == {"seed": 3, "n_curves": 8}
    # the W̄ rows on fixed curves: empty for rho < 0, dimension rho else
    dims = res.summary["rho_dimensions"]
    assert dims["problems"] == []
    got = {(row["fixture"], row["d"], row["r"]):
           (row["prediction"], row["estimate"]["counts"])
           for row in dims["rows"]}
    assert len(got) == 8
    assert got["bn4", 4, 1] == ({"kind": "exact", "value": 2}, [497, 1567])
    assert got["bn3", 4, 2] == ({"kind": "exact", "value": 0}, [1, 1])
    assert got["bn4", 4, 2] == ({"kind": "empty", "value": None}, [0, 0])


def test_bn_rho_positive_rows_recount_on_the_class_path():
    """Every rho_positive row, recounted with torus_h0 (one yield per class
    with h0 >= 2), matches its counts. The curves are redrawn as the suite
    draws them: n_curves spawns of Rng(seed), genus 3 over F_7."""
    n_curves, seed = 3, 9
    block = SUITES["bn"](n_curves=n_curves, seed=seed).summary["rho_positive"]
    rng = Rng(seed)
    curves = [random_curve(3, PrimeField(7), rng.spawn())
              for _ in range(n_curves)]
    rows = block["rows"]
    assert [row["md"] for row in rows] == [list(md)
                                           for md in balanced_set(3, 3)]
    for row in rows:
        assert row["counts"] == [
            sum(1 for _ in torus_h0(X, row["md"], at_least=2))
            for X in curves]
    assert any(sum(row["counts"]) for row in rows)


def test_very_ample_suite_small():
    res = SUITES["very-ample"](gs=(3,), n_curves=1, trials=5, seed=3)
    assert res.passed
    kinds = {(r["kind"], r["hyperelliptic"]) for r in res.summary["rows"]}
    assert ("hyperelliptic", True) in kinds
    assert res.config == {"seed": 3, "gs": [3], "p": 11, "trials": 5,
                          "n_curves": 1}


def test_martens_suite():
    res = SUITES["martens"]()
    assert res.passed and res.summary["problems"] == []
    assert [(row["fixture"], row["g"], row["d"], row["r"])
            for row in res.summary["rows"]] == [
        ("hyp3", 3, 2, 1), ("hyp4", 4, 2, 1), ("hyp4", 4, 3, 1),
        ("nonhyp4", 4, 2, 1), ("nonhyp4", 4, 3, 1)]
    rows = {(row["fixture"], row["d"]): row for row in res.summary["rows"]}
    # hyperelliptic genus 3: W̄^1_2 is the one point H at every prime
    hyp3 = rows["hyp3", 2]
    assert hyp3["prediction"] == {"kind": "point", "value": 0}
    assert hyp3["estimate"]["counts"] == [1, 1]
    hyp, non = rows["hyp4", 3], rows["nonhyp4", 3]
    assert hyp["prediction"] == {"kind": "exact", "value": 1}
    assert hyp["estimate"]["counts"] == [23, 43]
    assert hyp["estimate"]["rounded"] == 1
    assert non["prediction"] == {"kind": "le", "value": 0}
    assert non["estimate"]["counts"] == [2, 2]
    assert rows["hyp4", 2]["estimate"]["counts"] == [1, 1]
    assert rows["nonhyp4", 2]["estimate"]["kind"] == "empty"
    assert res.config == {"primes": [13, 23]}


def test_theta_suite():
    # the theta row, first in verify martens: W̄^1_2 on hyperelliptic
    # genus 3 is the one point H, here at the small primes 7 and 11 too
    assert suites.DIM_ROWS["martens"][0] == ("hyp3", 2, 1)
    X, hyp = suites.dim_fixture("hyp3")
    pred = brill_noether.martens_bound(3, 2, 1, hyp)
    assert hyp and pred == DimPrediction("point", 0)
    est, problems = suites.check_dim_row(X, hyp, 2, 1, (7, 11), pred)
    assert problems == [] and est.counts == (1, 1)


def test_check_dim_row_catches_a_wrong_prediction():
    X, hyp = suites.dim_fixture("hyp4")  # W̄^1_3: 23 -> 43, dimension 1
    est, problems = suites.check_dim_row(X, hyp, 3, 1, (13, 23),
                                         DimPrediction("exact", 1))
    assert problems == [] and est.counts == (23, 43)
    for wrong in (DimPrediction("exact", 2), DimPrediction("exact", 0),
                  DimPrediction("le", 0), DimPrediction("empty")):
        _, problems = suites.check_dim_row(X, hyp, 3, 1, (13, 23), wrong)
        assert problems == [{"kind": "dimension"}]
    # a fixture stated with the wrong hyperellipticity is named per prime
    _, problems = suites.check_dim_row(X, False, 3, 1, (13, 23),
                                       DimPrediction("exact", 1))
    assert problems == [{"kind": "fixture", "p": 13},
                        {"kind": "fixture", "p": 23}]


def test_pool_map_caps_workers_at_cpu_count(monkeypatch):
    # a fake pool records its worker count and chunk size and maps in this
    # process, so that a large jobs starts no processes
    import concurrent.futures
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            started.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    items = list(range(7, -3, -1))
    out = brill_noether.pool_map(abs, items, jobs=10_000)
    assert out == [abs(x) for x in items]
    workers = min(10_000, os.cpu_count() or 1)
    # the chunk size of multiprocessing.Pool.map: ceil(n / (4·workers))
    assert started == [workers, -(-len(items) // (4 * workers))]
    assert brill_noether.pool_map(abs, list(range(800)), jobs=2)
    assert started[2:] == [min(2, workers), 800 // (4 * min(2, workers))]
    # one job maps in this process and starts no pool
    assert brill_noether.pool_map(abs, items, jobs=1) == out
    assert len(started) == 4
