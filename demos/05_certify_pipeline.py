"""The full certification pipeline, programmatically and through the CLI.

Pipeline: rank certificate -> outer construction -> local models -> the four
essentiality conditions.  The positive fixture is a planar page with five
boundary circles and identity monodromy (first homology of the book is free
of rank four); the negative fixture is the one-holed torus book, whose
homology bound stops at two.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from tribranch import (
    MonodromyH1,
    OpenBookSpec,
    PantsPath,
    SurfaceSig,
    check_essential,
    check_local_models,
    construct_outer,
    rank_certificate,
    standard_decomposition,
    validate_spec,
)
from tribranch.schema import canonical_json, spec_to_json


def degenerate_spec(g, b, name):
    page = SurfaceSig(g, b)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    return OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page),
                        pants_path=path, name=name)


for g, b, name in [(0, 5, "rank-four planar book"),
                   (1, 1, "one-holed torus book")]:
    print("=" * 70)
    print(name)
    print("=" * 70)
    spec = degenerate_spec(g, b, name)
    cert = rank_certificate(spec)
    print(" ", cert.statement)
    tc = construct_outer(validate_spec(spec))
    print("  inventory:", tc.inventory())
    local = check_local_models(tc)
    print("  local models:", local.summary())
    report = check_essential(tc, cert, local)
    for cond in report.conditions:
        print(f"  condition ({cond.number}) [{cond.status}] {cond.witness}")
    for note in report.notes:
        print("  note:", note)
    print("  verdict:", report.verdict)
    print()

print("=" * 70)
print("Same thing through the command line")
print("=" * 70)
with tempfile.TemporaryDirectory() as tmp:
    spec_path = Path(tmp) / "spec.json"
    spec_path.write_text(canonical_json(spec_to_json(
        degenerate_spec(0, 5, "rank-four planar book"))))
    proc = subprocess.run(
        [sys.executable, "-m", "tribranch", "certify", str(spec_path), "--quiet"],
        capture_output=True, text=True,
    )
    print("  exit code:", proc.returncode)
    doc = json.loads(proc.stdout)
    print("  verdict:", doc["essentiality"]["verdict"])
    print("  conditions:", {c["condition"]: c["status"]
                            for c in doc["essentiality"]["conditions"]})
    print("  input hash:", doc["input"]["sha256"][:16], "...")
    print("  complex hash:", doc["complex_sha256"][:16], "...")
