"""Append-only JSON-lines cache for `bn` reports.

One line per entry: {"key": sha256-hex, "value": report}. Later lines win,
so corrections are appends, never rewrites. A lookup parses only the lines
that contain the key's JSON text, then compares the parsed key; a line that
does not parse as ASCII JSON, or is not an object whose value is an object,
is skipped.
The key hashes every input of the report (the curve JSON, which carries the
field, md, r and the witness cap) together with a digest of this package's
sources, so an entry written by other code is never served.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os

from .reports import canonical_json

ENV_VAR = "BINCURVE_CACHE_DIR"
CACHE_FILE = "bn.jsonl"


def cache_dir() -> str:
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "bincurve")


@functools.cache
def code_digest() -> str:
    """sha256 over the package's *.py files in name order, each hashed as
    its name, its length in bytes and its bytes; computed once per process."""
    package = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode("utf-8") + data)
    return h.hexdigest()


def bn_key(curve_json: dict, md, r: int, witness_cap: int) -> str:
    material = canonical_json({
        "curve": curve_json,
        "md": list(md),
        "r": r,
        "witness_cap": witness_cap,
        "code": code_digest(),
    })
    return hashlib.sha256(material.encode("ascii")).hexdigest()


class JsonlCache:
    def __init__(self, directory: str | None = None):
        self.directory = directory if directory is not None else cache_dir()
        self.path = os.path.join(self.directory, CACHE_FILE)

    def lookup(self, key: str) -> dict | None:
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return None
        # store writes the key as canonical JSON text, so a line without
        # that text cannot be its entry; only candidates are parsed
        needle = json.dumps(key, ensure_ascii=True).encode("ascii")
        value = None
        with fh:
            for line in fh:
                if needle not in line:
                    continue
                try:
                    entry = json.loads(line.decode("ascii"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    # a torn write, or a non-ASCII byte, which store never
                    # writes; later entries still count
                    continue
                # a line of another shape is skipped like a torn one
                if (isinstance(entry, dict) and entry.get("key") == key
                        and isinstance(entry.get("value"), dict)):
                    value = entry["value"]
        return value

    def store(self, key: str, value: dict):
        os.makedirs(self.directory, exist_ok=True)
        # a torn final line (crashed writer) must not swallow this entry:
        # terminate it first so the new line parses on its own
        lead = ""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    lead = "\n"
        except (FileNotFoundError, OSError):
            pass
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(lead + canonical_json({"key": key, "value": value}) + "\n")
