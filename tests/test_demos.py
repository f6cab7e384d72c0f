"""Every demo runs to the end in its own process and prints the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tribranch

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout.  The output is the same under any
# PYTHONHASHSEED and on Python 3.10 to 3.13; a change here is a change of
# behaviour, so it must be deliberate.
STDOUT_SHA256 = {
    "01_surfaces_and_pants": "d39ae5bd252cafa6ecc4a89249806b0f26a99282c48a6d503ae3fe4cff93993e",
    "02_moves_and_search": "3fca2d1e91d16ca7cf87e6acd7adf970065662d579b03ceacbf004304aff6691",
    "03_homology_and_certificates": "f594c6690d080031f5bb81eccb0f24c4466c15944ba5c13d8479d75444e4d81b",
    "04_tribranched_complexes": "f021d26ba6e7aad461857c4dee6098f419b331fa18cdb062c0f653eac82dc746",
    "05_certify_pipeline": "536745592ae7f04574c74c227a4acf95cb5ac44f50760f2d7b0bd796d3b72ea9",
}


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(Path(tribranch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert b"Traceback" not in proc.stdout + proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
