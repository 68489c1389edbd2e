"""Every pinned CLI output of tests/golden.txt, byte for byte, in-process."""
import hashlib
from pathlib import Path

import pytest

from bincurve.cli import main

HERE = Path(__file__).parent


def _entries():
    for line in (HERE / "golden.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            digest, code, *argv = line.split()
            yield pytest.param(digest, int(code), argv, id="_".join(argv))


@pytest.mark.parametrize("digest,code,argv", _entries())
def test_golden(digest, code, argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(HERE / "data")
    monkeypatch.setenv("BINCURVE_CACHE_DIR", str(tmp_path))
    got_code = main(argv)
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (got, got_code) == (digest, code), f"got {got} {got_code}"
