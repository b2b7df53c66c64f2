"""Batch command-line front end.

Exit codes: 0 success or affirmative result, 1 well-formed negative result,
2 usage or input error, 3 a rule-test that its covering budget stopped
before it found a counterexample or ran out of coverings.  Every subcommand
is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import io as pfio
from .covering import Budget, search_coverings, test_cofinal_validity
from .cores import compare_cores, compute_core, isominimal, longest_chain2, CoreMismatch
from .dot import export_dot
from .hierarchy import build_hierarchy, check_hierarchy_axioms
from .ordinals import format_term, parse_term
from .patterns import validate_structure

OK, NEGATIVE, USAGE, UNDECIDED = 0, 1, 2, 3


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e


def _load_pattern(path: str):
    return pfio.loads_pattern(_read(path))


def _load_hierarchy(path: str):
    return pfio.loads_hierarchy(_read(path))


def _load_host(path: str):
    """A hierarchy to search; relations that break a pattern clause could make
    a search affirm what does not hold, so they are an input error."""
    H = _load_hierarchy(path)
    violations = "; ".join(v.describe() for v in validate_structure(H.carrier, H.le1, H.le2))
    if violations:
        raise CliError(f"{path}: the relations are not a valid structure: {violations}")
    return H


def _emit(path, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    universe, le1, le2 = pfio.pattern_parts(pfio.parse_payload(_read(args.pattern)))
    violations = validate_structure(universe, le1, le2)
    if not violations:
        print("ok")
        return OK
    if args.format == "json":
        print(json.dumps([v.describe() for v in violations], indent=2))
    else:
        for v in violations:
            print(v.describe())
    return NEGATIVE


def cmd_build(args) -> int:
    carrier = pfio.loads_carrier(_read(args.carrier))
    top = parse_term(args.top)
    H = build_hierarchy(carrier, top)
    _emit(args.out, pfio.dumps_hierarchy(H))
    if args.out:
        print(
            f"built hierarchy on {len(carrier)} elements in "
            f"{len(H.build_log)} rounds: {args.out}"
        )
    return OK


def cmd_axioms(args) -> int:
    H = _load_hierarchy(args.hierarchy)
    report = check_hierarchy_axioms(H, window=args.window)
    doc = {
        "order": list(report.order_violations),
        "respect": list(report.respect_violations),
        "top": list(report.top_violations),
        "elementarity_diagnostic": [
            [k, format_term(a), format_term(b)]
            for k, a, b in report.elementarity_failures
        ],
        "limit_continuity_diagnostic": [
            [format_term(a), format_term(b)]
            for a, b in report.limit_continuity_failures
        ],
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for key in ("order", "respect", "top"):
            state = "ok" if not doc[key] else "FAILED"
            print(f"{key}: {state}")
            for line in doc[key]:
                print(f"  {line}")
        print(f"elementarity diagnostic failures: {len(doc['elementarity_diagnostic'])}")
        for k, a, b in doc["elementarity_diagnostic"]:
            print(f"  le{k} ({a}, {b})")
        print(f"limit continuity diagnostic failures: {len(doc['limit_continuity_diagnostic'])}")
        for a, b in doc["limit_continuity_diagnostic"]:
            print(f"  ({a}, {b})")
    return OK if report.passed_exact else NEGATIVE


def cmd_cover(args) -> int:
    P = _load_pattern(args.pattern)
    H = _load_host(args.hierarchy)
    found = 0
    for cov in search_coverings(P, H):
        found += 1
        if args.format == "json":
            print(pfio.render(pfio.covering_doc(cov)), end="")
        else:
            pairs = ", ".join(
                f"{format_term(a)} -> {format_term(b)}" for a, b in cov.assignment
            )
            print(f"covering {found}: {pairs}")
        if args.limit and found >= args.limit:
            break
    if found == 0:
        print("no coverings")
        return NEGATIVE
    return OK


def cmd_isominimal(args) -> int:
    P = _load_pattern(args.pattern)
    H = _load_host(args.hierarchy)
    report = isominimal(P, H)
    if report.realization is None:
        print("not covered")
        return NEGATIVE
    doc = {
        "realization": pfio.pattern_doc(report.realization),
        "unique_minimum": report.unique_minimum,
        "below_all_covers": report.below_all_covers,
        "isomorphic_to_input": report.isomorphic,
        "covers_enumerated": report.covers_enumerated,
    }
    if args.out:
        Path(args.out).write_text(pfio.render(doc))
    if args.format == "json" and not args.out:
        sys.stdout.write(pfio.render(doc))
    else:
        members = ", ".join(format_term(x) for x in report.realization.universe)
        print(f"realization: {{{members}}}")
        print(f"unique minimum: {report.unique_minimum}")
        print(f"below all covers: {report.below_all_covers}")
        print(f"isomorphic to input: {report.isomorphic}")
        print(f"covers enumerated: {report.covers_enumerated}")
    return OK


def cmd_core(args) -> int:
    H = _load_host(args.hierarchy)
    core = compute_core(H, args.bound)
    pfio.write_core(core, args.out)
    print(f"core with {len(core.members)} members: {args.out}")
    return OK


def cmd_compare(args) -> int:
    H1 = _load_host(args.left_hierarchy)
    H2 = _load_host(args.right_hierarchy)
    C1 = pfio.read_core(args.left, H1)
    C2 = pfio.read_core(args.right, H2)
    result = compare_cores(C1, C2)
    if isinstance(result, CoreMismatch):
        print("mismatch")
        print(result.describe())
        doc = {"result": "mismatch", "position": result.position}
    else:
        print("initial segment embedding")
        for a, b in result.mapping:
            print(f"  {format_term(a)} -> {format_term(b)}")
        doc = {
            "result": "initial-segment",
            "mapping": [[format_term(a), format_term(b)] for a, b in result.mapping],
        }
    print("---")
    print(json.dumps(doc, indent=2))
    return OK if doc["result"] == "initial-segment" else NEGATIVE


def cmd_chains(args) -> int:
    H = _load_hierarchy(args.hierarchy)
    chain = longest_chain2(H)
    if not chain:
        print("(empty)")
    else:
        print(" ".join(format_term(x, args.sugar) for x in chain))
    return OK


def cmd_rule_test(args) -> int:
    rule = pfio.loads_rule(_read(args.rule))
    H = _load_host(args.hierarchy)
    budget = Budget(max_coverings=args.max_coverings)
    verdict = test_cofinal_validity(rule.premise, rule.conclusion, H, budget)
    print(pfio.dumps_verdict(verdict), end="")
    if not verdict.exhaustive:
        return UNDECIDED
    return OK if verdict.valid else NEGATIVE


def cmd_export_dot(args) -> int:
    text = _read(args.input)
    doc = pfio.parse_payload(text)
    if "universe" in doc:
        obj = pfio.pattern_from_doc(doc)
    elif "carrier" in doc:
        obj = pfio.hierarchy_from_doc(doc)
    elif "members" in doc:
        H = _load_hierarchy(args.hierarchy) if args.hierarchy else None
        if H is None:
            raise CliError("core rendering needs --hierarchy for the host")
        obj = pfio.read_core(Path(args.input), H)
    else:
        raise CliError("input is not a pattern, hierarchy or core file")
    _emit(args.out, export_dot(obj, sugar=args.sugar))
    return OK


# -- wiring -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args reads it
    and leaves it unchanged, and every call gets a fresh namespace.  The
    subcommand name, args.command, selects the cmd_ handler (see main)."""
    parser = argparse.ArgumentParser(
        prog="patternforge",
        description="finite resemblance patterns over Cantor-normal-form ordinals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a pattern file")
    p.add_argument("pattern")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("build", help="build a hierarchy from a carrier file")
    p.add_argument("--carrier", required=True)
    p.add_argument("--top", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("axioms", help="check hierarchy hypotheses and diagnostics")
    p.add_argument("hierarchy")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("cover", help="enumerate coverings of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("isominimal", help="minimal realization of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("core", help="compute the core of a hierarchy")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="compare two cores positionally")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--left-hierarchy", required=True)
    p.add_argument("--right-hierarchy", required=True)

    p = sub.add_parser("chains", help="longest strict le2 chain")
    p.add_argument("hierarchy")
    p.add_argument("--sugar", action="store_true")

    p = sub.add_parser("rule-test", help="budgeted cofinal validity of a rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--max-coverings", type=int, default=None)

    p = sub.add_parser("export-dot", help="graph text for a pattern/hierarchy/core")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--sugar", action="store_true")
    p.add_argument("--hierarchy", default=None, help="host hierarchy for core files")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up by name on each call, not held by the cached
    # parser, so a later rebinding of cmd_<command> (a wrapper) takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (CliError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
