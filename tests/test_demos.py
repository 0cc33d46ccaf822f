"""Smoke test of the narrative demos: each runs as its own process, exits 0
and prints exactly the text it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout
DEMO_DIGESTS = {
    "dyadic_bush.py":
        "4347ac0dd02b14a92caa35de40d40da2c48b9eabfe4acce04a355b2d97d2af4f",
    "segment_norms.py":
        "27ca9c7ff5f98f6297d62a6f5f919868640cc670b7e294eb69f85f129a2fe515",
    "sequence_checks.py":
        "1d39f2a96afc652cdf3a628064979f84092b2493fe4c63c1574c7e2dd08ea060",
    "tree_ranks.py":
        "2c61f108c1e16874353cd7a30952472e8cedb38ce804a87f49d8c6086764c647",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_DIGESTS
    )


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(name):
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
