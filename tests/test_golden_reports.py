"""Command line output on the fixtures and a seeded corpus, pinned by digest.

``golden_reports.json`` holds, for each spec and command, the exit code and
the sha256 of stdout and of stderr.  Every command runs in one scratch
directory with a relative spec name, because reports embed the spec path.
The corpus is the six fixtures, 60 outer specs drawn by
``genutils.random_outer_spec`` from a fixed seed, a copy of every sixth of
them with two closure targets swapped, which fails the path check, and 30
wider specs (up to six boundary circles and eight moves) from a second
seed.  Each
entry also records the sha256 of the spec file, so a drifting generator is
told apart from changed output.

Regenerate the digests with ``python tests/test_golden_reports.py`` only
when a report is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

from genutils import random_outer_spec
from tribranch.cli import main
from tribranch.schema import canonical_json, spec_to_json

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_reports.json"
SEED = 20261018
N_RANDOM = 60
WIDE_SEED = 20261019
N_WIDE = 30
COMMANDS = {
    "validate": ["validate"],
    "homology": ["homology"],
    "certify": ["certify"],
    "construct-outer": ["construct", "--mode", "outer", "--out", "complex.json"],
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def write_corpus(directory: Path) -> list:
    """Write the fixtures and the seeded specs into ``directory``; return their names."""
    names = []
    for fixture in sorted((HERE / "fixtures").iterdir()):
        shutil.copyfile(fixture, directory / fixture.name)
        names.append(fixture.name)
    rng = random.Random(SEED)
    for i in range(N_RANDOM):
        doc = spec_to_json(random_outer_spec(rng))
        variants = [(f"r{i:02d}.json", doc)]
        closure = doc["monodromy"]["pants_path"]["closure"]
        if i % 6 == 5 and len(closure) >= 2:
            broken = json.loads(json.dumps(doc))
            swapped = broken["monodromy"]["pants_path"]["closure"]
            first, second = sorted(swapped)[:2]
            swapped[first], swapped[second] = swapped[second], swapped[first]
            variants.append((f"x{i:02d}.json", broken))
        for name, spec_doc in variants:
            (directory / name).write_text(canonical_json(spec_doc), encoding="utf-8")
            names.append(name)
    rng = random.Random(WIDE_SEED)
    for i in range(N_WIDE):
        doc = spec_to_json(random_outer_spec(rng, b_max=6, max_moves=8))
        (directory / f"w{i:02d}.json").write_text(canonical_json(doc), encoding="utf-8")
        names.append(f"w{i:02d}.json")
    return names


def digests(directory: Path) -> dict:
    """Run every command on every spec of the corpus from inside ``directory``."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        out = {}
        for name in write_corpus(directory):
            entry = {"spec": hashlib.sha256((directory / name).read_bytes()).hexdigest()}
            for command, argv in COMMANDS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([argv[0], name] + argv[1:])
                entry[command] = [code, _sha(stdout.getvalue()), _sha(stderr.getvalue())]
            out[name] = entry
        return out
    finally:
        os.chdir(here)


def test_reports_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = digests(tmp_path)
    assert sorted(current) == sorted(golden)
    drifted = [name for name in golden if current[name]["spec"] != golden[name]["spec"]]
    assert not drifted, f"the corpus generator changed: {drifted}"
    changed = [
        (name, command)
        for name in golden
        for command in COMMANDS
        if current[name][command] != golden[name][command]
    ]
    assert not changed, f"output differs from the golden digests: {changed[:10]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = digests(Path(scratch))
    lines = [f"{json.dumps(name)}: {json.dumps(table[name], sort_keys=True)}"
             for name in sorted(table)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} specs x {len(COMMANDS)} commands to {GOLDEN}", file=sys.stderr)
