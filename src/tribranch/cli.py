"""Batch command line front end.

Verbs::

    tribranch validate  SPEC
    tribranch construct SPEC --mode {naive,outer} --out FILE
    tribranch certify   SPEC
    tribranch homology  SPEC

Global flags: ``--report FILE`` (default: the JSON report goes to stdout),
``--quiet`` (suppress the human-readable summary, which goes to stderr).
Exit codes: 0 on success (for certify: verdict Essential), 1 on a domain
failure, 2 on an I/O or schema failure; never anything else.

Each verb compiles only the modules it runs.  Every verb loads ``schema``
and ``openbook`` (with ``intalg``, ``paths``, ``surfaces``, ``reports`` and
``errors`` under them); ``construct`` also loads ``complexes``, and
``certify`` loads ``complexes`` and ``essential``.  Those two are imported
inside their commands; ``certify`` imports each in the stage that runs it,
so a spec that fails to parse or validate compiles neither.  No verb loads
``search``, ``builders`` or ``snf``.

Reports are canonical JSON and byte-identical across repeated runs on the
same input.  ``certify --timings`` adds wall-clock times to the report, the
total and one entry per pipeline stage that ran, also when the run stops
early, and is therefore excluded from the determinism guarantee.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .errors import MonodromyError, SchemaError, TribranchError
from .openbook import rank_certificate, validate_spec
from .schema import (
    REPORT_FORMAT,
    canonical_json,
    complex_json,
    load_spec_file,
    sha256_hex,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SCHEMA = 2


def _base_report(command: str, path: str, digest: str, spec) -> dict:
    return {
        "format": REPORT_FORMAT,
        "command": command,
        "input": {"path": path, "sha256": digest},
        "name": spec.name,
        "page": {"genus": spec.page.genus, "boundary": spec.page.n_boundary},
        "timings": None,
    }


def _emit(report: dict, exit_code: int, args, human_lines) -> int:
    report["exit_code"] = exit_code
    text = canonical_json(report)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            print(f"cannot write report: {err}", file=sys.stderr)
            return EXIT_SCHEMA
    else:
        sys.stdout.write(text)
    if not args.quiet:
        for line in human_lines:
            print(line, file=sys.stderr)
    return exit_code


def cmd_validate(args) -> int:
    spec, digest = load_spec_file(args.spec)
    report = _base_report("validate", args.spec, digest, spec)
    result = validate_spec(spec).report
    report["validation"] = result.to_json()
    report["ok"] = result.ok
    lines = ["validation: clean"] if result.ok else [
        f"validation: {len(result.entries)} issue(s)"
    ] + [f"  - [{e.code}] {e.message}" for e in result.entries]
    return _emit(report, EXIT_OK if result.ok else EXIT_DOMAIN, args, lines)


def cmd_homology(args) -> int:
    spec, digest = load_spec_file(args.spec)
    report = _base_report("homology", args.spec, digest, spec)
    try:
        cert = rank_certificate(spec)
    except TribranchError as err:
        report["error"] = str(err)
        what = "invalid monodromy" if isinstance(err, MonodromyError) else "homology failed"
        return _emit(report, EXIT_DOMAIN, args, [f"{what}: {err}"])
    h1 = cert.h1
    report["homology"] = {
        "h1": h1.to_json(),
        "pretty": str(h1),
        "min_generators": cert.lower_bound,
    }
    report["certificate"] = cert.to_json()
    line = f"H_1(M) = {h1}; lower bound {cert.lower_bound}; {cert.verdict}"
    return _emit(report, EXIT_OK, args, [line])


def cmd_construct(args) -> int:
    from .complexes import construct_naive, construct_outer, euler_audit

    spec, digest = load_spec_file(args.spec)
    report = _base_report("construct", args.spec, digest, spec)
    report["mode"] = args.mode
    naive = args.mode == "naive"
    # The three-page complex never reads the pants path, so naive mode checks
    # only the page, the monodromy and the windings.
    checked = validate_spec(spec._replace(pants_path=None) if naive else spec)
    report["validation"] = checked.report.to_json()
    if not checked.report.ok:
        return _emit(report, EXIT_DOMAIN, args,
                     [f"spec invalid: {checked.report.summary()}"])
    try:
        tc = construct_naive(spec) if naive else construct_outer(checked)
    except TribranchError as err:
        report["error"] = str(err)
        return _emit(report, EXIT_DOMAIN, args, [f"construction failed: {err}"])
    inv = report["inventory"] = tc.inventory()
    text = complex_json(tc, inv)
    report["complex_sha256"] = sha256_hex(text.encode("utf-8"))
    audit = euler_audit(tc)
    report["euler_audit"] = audit.to_json()
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"cannot write complex: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    report["out_file"] = args.out
    lines = [
        f"wrote {args.out}: {inv['branches']} branches / {inv['blocks']} blocks "
        f"/ {inv['circles']} circles",
    ]
    return _emit(report, EXIT_OK, args, lines)


def cmd_certify(args) -> int:
    started = last = time.monotonic()
    stages = {}

    def lap(stage):
        nonlocal last
        now = time.monotonic()
        stages[stage] = round(now - last, 6)
        last = now

    def emit(exit_code, lines):
        # On every exit the timings cover the stages that completed.
        if args.timings:
            report["timings"] = {"seconds": round(last - started, 6), "stages": stages}
        return _emit(report, exit_code, args, lines)

    spec, digest = load_spec_file(args.spec)
    report = _base_report("certify", args.spec, digest, spec)
    lap("parse")
    checked = validate_spec(spec)
    report["validation"] = checked.report.to_json()
    lap("validate")
    if not checked.report.ok:
        return emit(EXIT_DOMAIN, [f"spec invalid: {checked.report.summary()}"])
    try:
        cert = rank_certificate(spec)
        report["certificate"] = cert.to_json()
        lap("homology")
        from .complexes import check_local_models, construct_outer

        tc = construct_outer(checked)
        lap("construct")
    except TribranchError as err:
        report["error"] = str(err)
        return emit(EXIT_DOMAIN, [f"certification failed: {err}"])
    local = check_local_models(tc)
    report["local_models"] = local.to_json()
    lap("local_models")
    if not local.ok:
        return emit(EXIT_DOMAIN, [f"local models dirty: {local.summary()}"])
    from .essential import ESSENTIAL, check_essential

    essentiality = check_essential(tc, cert, local)
    lap("essentiality")
    inventory = report["inventory"] = tc.inventory()
    report["complex_sha256"] = sha256_hex(complex_json(tc, inventory).encode("utf-8"))
    report["essentiality"] = essentiality.to_json()
    lap("serialization")
    verdict = essentiality.verdict
    lines = [
        f"condition ({c.number}) [{c.status}] {c.witness}"
        for c in essentiality.conditions
    ]
    lines.append(f"verdict: {verdict}")
    return emit(EXIT_OK if verdict == ESSENTIAL else EXIT_DOMAIN, lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``parse_args`` keeps no
    state between calls, so in-process callers of :func:`main` reuse it
    instead of paying for a build (about 1.2 ms with Python 3.11) per call."""
    parser = argparse.ArgumentParser(
        prog="tribranch",
        description=(
            "Construct tribranched surfaces in open book decompositions and "
            "emit machine-checkable essentiality certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="path to the JSON spec file")
        p.add_argument("--report", default=None, help="write the JSON report here "
                       "(default: stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress the human "
                       "summary on stderr")

    p_validate = sub.add_parser("validate", help="validate a spec file")
    common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_construct = sub.add_parser("construct", help="build a tribranched complex")
    common(p_construct)
    p_construct.add_argument("--mode", choices=("naive", "outer"), required=True)
    p_construct.add_argument("--out", required=True, help="output complex file")
    p_construct.set_defaults(func=cmd_construct)

    p_certify = sub.add_parser("certify", help="run the full certification pipeline")
    common(p_certify)
    p_certify.add_argument("--timings", action="store_true",
                           help="include wall-clock timings (breaks byte determinism)")
    p_certify.set_defaults(func=cmd_certify)

    p_homology = sub.add_parser("homology", help="first homology and rank certificate")
    common(p_homology)
    p_homology.set_defaults(func=cmd_homology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except TribranchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
