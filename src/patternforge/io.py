"""Versioned on-disk formats: patterns, carriers, hierarchies, coverings,
rule instances, cores and verdicts.

Every artifact starts with the header line ``patternforge-v1`` followed by a
canonical JSON document (carrier files carry newline-separated ordinal
strings instead).  Serialization is bit-exact: elements ascend in the term
order, relation pairs sort lexicographically by endpoints, reflexive pairs
are dropped on output and restored on input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .covering import CofinalVerdict, Covering, is_covering
from .cores import Core
from .hierarchy import Hierarchy, RoundStats
from .ordinals import ClosedSet, OrdinalTerm, format_term, parse_term
from .patterns import Pattern
from .rules import RuleInstance

HEADER = "patternforge-v1"


class FormatError(ValueError):
    """Malformed artifact file."""


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)


def render(doc) -> str:
    return HEADER + "\n" + _dumps(doc) + "\n"


def parse_payload(text: str):
    line, _, rest = text.partition("\n")
    if line.strip() != HEADER:
        raise FormatError(f"missing {HEADER} header")
    try:
        return json.loads(rest)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON payload: {e}") from e


def _terms(values: Iterable[str]) -> List[OrdinalTerm]:
    return [parse_term(v) for v in values]


def _pairs(values) -> List[Tuple[OrdinalTerm, OrdinalTerm]]:
    out = []
    for item in values:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise FormatError(f"relation entry {item!r} is not a pair")
        out.append((parse_term(item[0]), parse_term(item[1])))
    return out


# -- patterns ---------------------------------------------------------------


def pattern_doc(P: Pattern) -> Dict:
    return {
        "universe": [format_term(x) for x in P.universe],
        "le1": [[format_term(a), format_term(b)] for a, b in P.strict_le1()],
        "le2": [[format_term(a), format_term(b)] for a, b in P.strict_le2()],
    }


def pattern_parts(doc):
    """The universe, le1 and le2 of a pattern document, parsed but not checked
    against the pattern invariants."""
    try:
        universe = _terms(doc["universe"])
        le1 = _pairs(doc.get("le1", ()))
        le2 = _pairs(doc.get("le2", ()))
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad pattern document: {e}") from e
    return universe, le1, le2


def pattern_from_doc(doc) -> Pattern:
    return Pattern(*pattern_parts(doc))


def dumps_pattern(P: Pattern) -> str:
    return render(pattern_doc(P))


def loads_pattern(text: str) -> Pattern:
    return pattern_from_doc(parse_payload(text))


# -- carriers ---------------------------------------------------------------


def dumps_carrier(carrier: ClosedSet) -> str:
    return HEADER + "\n" + "\n".join(format_term(x) for x in carrier) + "\n"


def loads_carrier(text: str) -> ClosedSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise FormatError(f"missing {HEADER} header")
    terms = [parse_term(line) for line in lines[1:] if line.strip()]
    return ClosedSet(terms)


# -- hierarchies ------------------------------------------------------------


def hierarchy_doc(H: Hierarchy) -> Dict:
    body = {
        "carrier": [format_term(x) for x in H.carrier],
        "top": format_term(H.top),
        "le1": [[format_term(a), format_term(b)] for a, b in H.strict(1)],
        "le2": [[format_term(a), format_term(b)] for a, b in H.strict(2)],
        "build_log": {
            "rounds": len(H.build_log),
            "pruned": [list(r.as_tuple()) for r in H.build_log],
        },
    }
    body["hash"] = content_hash(body)
    return body


def content_hash(body: Mapping) -> str:
    stripped = {k: v for k, v in body.items() if k != "hash"}
    digest = hashlib.sha256(_dumps(stripped).encode()).hexdigest()
    return f"sha256:{digest}"


def hierarchy_hash(H: Hierarchy) -> str:
    return hierarchy_doc(H)["hash"]


def hierarchy_from_doc(doc) -> Hierarchy:
    try:
        carrier = ClosedSet(_terms(doc["carrier"]))
        top = parse_term(doc["top"])
        le1 = _pairs(doc["le1"])
        le2 = _pairs(doc["le2"])
        log = tuple(
            RoundStats(*entry) for entry in doc.get("build_log", {}).get("pruned", ())
        )
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad hierarchy document: {e}") from e
    if "hash" in doc and content_hash(doc) != doc["hash"]:
        raise FormatError("hierarchy content hash mismatch")
    refl = {(x, x) for x in carrier}
    return Hierarchy(
        carrier=carrier,
        top=top,
        le1=frozenset(le1) | frozenset(refl),
        le2=frozenset(le2) | frozenset(refl),
        build_log=log,
    )


def dumps_hierarchy(H: Hierarchy) -> str:
    return render(hierarchy_doc(H))


def loads_hierarchy(text: str) -> Hierarchy:
    return hierarchy_from_doc(parse_payload(text))


# -- coverings --------------------------------------------------------------


def covering_doc(cov: Covering) -> Dict:
    return {
        "pattern": pattern_doc(cov.source),
        "assignment": [
            [format_term(a), format_term(b)] for a, b in cov.assignment
        ],
    }


def covering_from_doc(doc, H: Hierarchy) -> Covering:
    P = pattern_from_doc(doc["pattern"])
    assignment = {a: b for a, b in _pairs(doc["assignment"])}
    if not is_covering(assignment, P, H):
        raise FormatError("assignment is not a covering of its pattern in the hierarchy")
    return Covering.from_map(P, H, assignment)


def dumps_covering(cov: Covering) -> str:
    return render(covering_doc(cov))


def loads_covering(text: str, H: Hierarchy) -> Covering:
    return covering_from_doc(parse_payload(text), H)


# -- rule instances ---------------------------------------------------------


def rule_doc(rule: RuleInstance) -> Dict:
    return {
        "premise": pattern_doc(rule.premise),
        "conclusion": pattern_doc(rule.conclusion),
        "kind": rule.kind,
    }


def rule_from_doc(doc) -> RuleInstance:
    try:
        return RuleInstance(
            premise=pattern_from_doc(doc["premise"]),
            conclusion=pattern_from_doc(doc["conclusion"]),
            kind=doc["kind"],
        )
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad rule document: {e}") from e


def dumps_rule(rule: RuleInstance) -> str:
    return render(rule_doc(rule))


def loads_rule(text: str) -> RuleInstance:
    return rule_from_doc(parse_payload(text))


# -- verdicts ---------------------------------------------------------------


def verdict_doc(verdict: CofinalVerdict) -> Dict:
    if verdict.valid:
        return {
            "verdict": "valid-on-sample",
            "coverings_checked": verdict.coverings_checked,
        }
    h, phi = verdict.counterexample
    return {
        "verdict": "counterexample",
        "coverings_checked": verdict.coverings_checked,
        "covering": covering_doc(h),
        "phi": [[format_term(k), format_term(v)] for k, v in phi.bounds],
    }


def dumps_verdict(verdict: CofinalVerdict) -> str:
    return render(verdict_doc(verdict))


# -- cores ------------------------------------------------------------------


def write_core(core: Core, path: Union[str, Path]) -> None:
    """Write the core file; witness patterns go beside it as referenced files."""
    path = Path(path)
    witnesses = []
    pattern_files: Dict[Pattern, str] = {}
    for i, (member, pat) in enumerate(core.witness):
        if pat not in pattern_files:
            ref = f"{path.name}.witness-{len(pattern_files):03d}.pattern"
            pattern_files[pat] = ref
            (path.parent / ref).write_text(dumps_pattern(pat))
        witnesses.append([format_term(member), pattern_files[pat]])
    doc = {
        "members": [format_term(m) for m in core.members],
        "size_bound": core.size_bound,
        "host_hash": hierarchy_hash(core.host),
        "witnesses": witnesses,
    }
    path.write_text(render(doc))


def read_core(path: Union[str, Path], host: Hierarchy) -> Core:
    path = Path(path)
    doc = parse_payload(path.read_text())
    expected = hierarchy_hash(host)
    if doc.get("host_hash") != expected:
        raise FormatError("core file does not match the given hierarchy")
    witness = []
    cache: Dict[str, Pattern] = {}
    for member, ref in doc["witnesses"]:
        # only a plain file name: a core file names nothing outside its
        # directory (no separator, hence no absolute path, and not . or ..)
        if not isinstance(ref, str) or ref in ("", ".", "..") or "/" in ref or "\\" in ref:
            raise FormatError(f"witness reference {ref!r} is not a plain file name")
        if ref not in cache:
            cache[ref] = loads_pattern((path.parent / ref).read_text())
        witness.append((parse_term(member), cache[ref]))
    return Core(
        host=host,
        members=tuple(parse_term(m) for m in doc["members"]),
        witness=tuple(witness),
        size_bound=doc["size_bound"],
    )
