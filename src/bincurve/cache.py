"""Append-only JSON-lines cache for enumeration results.

One line per entry: {"key": sha256-hex, "value": {...}}. Later lines win,
so corrections are appends, never rewrites. A lookup parses only the lines
that contain the key's JSON text, then compares the parsed key. The key
hashes the canonical JSON of (curve, field, md, r, scan version), so an
entry written by another version of the torus scan is never served; the
value stores the witness cap and the report (count and capped witnesses).
"""
from __future__ import annotations

import hashlib
import json
import os

from .brill_noether import SCAN_VERSION
from .reports import canonical_json

ENV_VAR = "BINCURVE_CACHE_DIR"
CACHE_FILE = "bn.jsonl"


def cache_dir() -> str:
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "bincurve")


def bn_key(curve_json: dict, field_json: dict, md, r: int) -> str:
    material = canonical_json({
        "curve": curve_json,
        "field": field_json,
        "md": list(md),
        "r": r,
        "scan_version": SCAN_VERSION,
    })
    return hashlib.sha256(material.encode("ascii")).hexdigest()


class JsonlCache:
    def __init__(self, directory: str | None = None):
        self.directory = directory if directory is not None else cache_dir()
        self.path = os.path.join(self.directory, CACHE_FILE)

    def lookup(self, key: str):
        try:
            fh = open(self.path, "r", encoding="ascii")
        except FileNotFoundError:
            return None
        # store writes the key as canonical JSON text, so a line without
        # that text cannot be its entry; only candidates are parsed
        needle = json.dumps(key, ensure_ascii=True)
        value = None
        with fh:
            for line in fh:
                if needle not in line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write; later entries still count
                if entry.get("key") == key:
                    value = entry.get("value")
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
