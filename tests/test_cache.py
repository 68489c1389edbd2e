import hashlib
import json
import os

import pytest

import bincurve.cache
from bincurve.cache import ENV_VAR, JsonlCache, bn_key, cache_dir, code_digest
from bincurve.curve import standard_curve
from bincurve.fields import PrimeField


def test_store_lookup_round_trip(tmp_path):
    c = JsonlCache(str(tmp_path))
    assert c.lookup("nope") is None
    c.store("k1", {"count": 3})
    assert c.lookup("k1") == {"count": 3}
    assert c.lookup("k2") is None


def test_last_write_wins(tmp_path):
    c = JsonlCache(str(tmp_path))
    c.store("k", {"count": 1})
    c.store("k", {"count": 2})
    assert c.lookup("k") == {"count": 2}
    # append-only: both lines are still on disk
    lines = (tmp_path / "bn.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_torn_and_blank_lines_are_skipped(tmp_path):
    c = JsonlCache(str(tmp_path))
    c.store("k", {"count": 5})
    with open(c.path, "a") as fh:
        fh.write("\n{\"key\": \"k\", \"val")   # torn write
    assert c.lookup("k") == {"count": 5}
    with open(c.path, "ab") as fh:
        fh.write(b'\n{"key": "k", "value": {"count": "\xff"}}\n')  # not ASCII
    assert c.lookup("k") == {"count": 5}
    c.store("k", {"count": 6})
    assert c.lookup("k") == {"count": 6}


def test_env_var_overrides_location(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "elsewhere"))
    assert cache_dir() == str(tmp_path / "elsewhere")
    c = JsonlCache()
    c.store("k", {"count": 1})
    assert (tmp_path / "elsewhere" / "bn.jsonl").exists()


def test_bn_key_is_stable_and_discriminating():
    X = standard_curve(2, PrimeField(7))
    cj = X.to_json()
    k1 = bn_key(cj, (1, 1), 1, 64)
    k2 = bn_key(cj, (1, 1), 1, 64)
    assert k1 == k2 and len(k1) == 64
    assert bn_key(cj, (1, 1), 2, 64) != k1
    assert bn_key(cj, (1, 2), 1, 64) != k1
    assert bn_key(cj, (1, 1), 1, 8) != k1
    Y = standard_curve(2, PrimeField(11))
    assert bn_key(Y.to_json(), (1, 1), 1, 64) != k1


def test_code_digest_hashes_every_package_source(monkeypatch):
    package = os.path.dirname(os.path.abspath(bincurve.cache.__file__))
    names = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "cache.py" in names and "brill_noether.py" in names
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(package, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    assert code_digest() == h.hexdigest()
    # the digest is part of the key: other code, other key
    cj = standard_curve(2, PrimeField(7)).to_json()
    k1 = bn_key(cj, (1, 1), 1, 64)
    monkeypatch.setattr(bincurve.cache, "code_digest", lambda: "0" * 64)
    assert bn_key(cj, (1, 1), 1, 64) != k1


@pytest.mark.parametrize("line", ['["k"]', '{"key": "k", "value": 5}',
                                  '{"key": "k", "value": null}', '"k"'])
def test_entry_of_another_shape_is_skipped(tmp_path, line):
    c = JsonlCache(str(tmp_path))
    c.store("k", {"count": 5})
    with open(c.path, "a") as fh:
        fh.write(line + "\n")
    assert c.lookup("k") == {"count": 5}


def test_entries_are_canonical_json(tmp_path):
    c = JsonlCache(str(tmp_path))
    c.store("k", {"b": 1, "a": 2})
    raw = (tmp_path / "bn.jsonl").read_text().strip()
    assert raw == '{"key":"k","value":{"a":2,"b":1}}'
    assert json.loads(raw)["value"] == {"a": 2, "b": 1}


def test_key_text_inside_another_value_is_not_an_entry(tmp_path):
    # lookup parses only lines holding the key's text; a value may hold it too
    c = JsonlCache(str(tmp_path))
    c.store("k1", {"count": 1})
    c.store("k2", {"note": "k1", "key": "k1", "nested": {"key": "k3"}})
    assert c.lookup("k1") == {"count": 1}
    assert c.lookup("k2")["note"] == "k1"
    assert c.lookup("k3") is None
    c.store("k1", {"count": 2})
    c.store("k4", {"shadow": {"key": "k1", "value": {"count": 3}}})
    assert c.lookup("k1") == {"count": 2}
