import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patternforge
from patternforge import (
    ONE,
    OMEGA,
    Hierarchy,
    Pattern,
    ZERO,
    closure,
    compute_core,
    export_dot,
    find_isomorphism,
    format_term,
    make_generic,
    parse_term,
    search_coverings,
    trivial_pattern,
)
from patternforge import io as pfio
from patternforge import ordinals


def t(s):
    return parse_term(s)


# -- serialization round trips -------------------------------------------------


def test_pattern_roundtrip_bit_exact():
    P = Pattern(closure([ONE, t("w+1")]), le1=[(OMEGA, t("w+1"))])
    text = pfio.dumps_pattern(P)
    assert text.startswith("patternforge-v1\n")
    again = pfio.loads_pattern(text)
    assert again == P
    assert pfio.dumps_pattern(again) == text


def test_pattern_reflexive_pairs_omitted():
    P = trivial_pattern([ONE])
    doc = pfio.pattern_doc(P)
    assert doc["le1"] == [] and doc["le2"] == []


def test_pattern_reflexive_pairs_accepted_on_input():
    with_refl = (
        'patternforge-v1\n'
        '{"universe": ["0", "w^(0)"], "le1": [["0", "0"], ["w^(0)", "w^(0)"]], "le2": []}\n'
    )
    assert pfio.loads_pattern(with_refl) == trivial_pattern([ONE])


def test_pattern_pairs_sorted():
    P = Pattern(
        closure([ONE, t("w+1")]),
        le1=[(OMEGA, t("w+1")), (ONE, OMEGA), (ONE, t("w+1"))],
    )
    doc = pfio.pattern_doc(P)
    assert doc["le1"] == sorted(doc["le1"])


def test_carrier_roundtrip(hierarchy_big):
    text = pfio.dumps_carrier(hierarchy_big.carrier)
    assert pfio.loads_carrier(text) == hierarchy_big.carrier
    assert pfio.dumps_carrier(pfio.loads_carrier(text)) == text


def test_hierarchy_roundtrip_bit_exact(hierarchy_big):
    text = pfio.dumps_hierarchy(hierarchy_big)
    H = pfio.loads_hierarchy(text)
    assert H.le1 == hierarchy_big.le1
    assert H.le2 == hierarchy_big.le2
    assert H.build_log == hierarchy_big.build_log
    assert pfio.dumps_hierarchy(H) == text


def test_hierarchy_hash_detects_tampering(hierarchy_big):
    text = pfio.dumps_hierarchy(hierarchy_big)
    tampered = text.replace('"rounds": 2', '"rounds": 3')
    with pytest.raises(pfio.FormatError):
        pfio.loads_hierarchy(tampered)


def test_header_required():
    with pytest.raises(pfio.FormatError):
        pfio.loads_pattern('{"universe": ["0"], "le1": [], "le2": []}')


def test_covering_roundtrip(hierarchy_big):
    from patternforge import search_coverings

    P = trivial_pattern([ONE, OMEGA])
    cov = next(search_coverings(P, hierarchy_big))
    text = pfio.dumps_covering(cov)
    again = pfio.loads_covering(text, hierarchy_big)
    assert again.assignment == cov.assignment
    assert pfio.dumps_covering(again) == text


def test_rule_roundtrip(hierarchy_big):
    from patternforge import make_generic

    inst = make_generic(trivial_pattern([ONE]), trivial_pattern([ONE, OMEGA]))
    text = pfio.dumps_rule(inst)
    again = pfio.loads_rule(text)
    assert again.kind == inst.kind
    assert again.premise == inst.premise and again.conclusion == inst.conclusion
    assert pfio.dumps_rule(again) == text


def test_core_roundtrip(tmp_path, hierarchy_big):
    core = compute_core(hierarchy_big, 2)
    path = tmp_path / "big.core"
    pfio.write_core(core, path)
    again = pfio.read_core(path, hierarchy_big)
    assert again.members == core.members
    assert again.size_bound == core.size_bound
    for m in core.members:
        assert find_isomorphism(core.witness_for(m), again.witness_for(m)) is not None


def test_core_rejects_wrong_host(tmp_path, hierarchy_big, hierarchy_one):
    core = compute_core(hierarchy_big, 2)
    path = tmp_path / "big.core"
    pfio.write_core(core, path)
    with pytest.raises(pfio.FormatError):
        pfio.read_core(path, hierarchy_one)


def test_rule_kind_without_constructor_rejected():
    from patternforge import make_generic

    text = pfio.dumps_rule(make_generic(trivial_pattern([ONE]), trivial_pattern([ONE])))
    with pytest.raises(ValueError):
        pfio.loads_rule(text.replace('"generic"', '"reflect2_up"'))


@pytest.mark.parametrize("image", ["w+w", "w^(5)"])
def test_covering_loader_rejects_non_coverings(hierarchy_big, image):
    # a decomposable image of an indecomposable, and an image outside the carrier
    cov = next(search_coverings(trivial_pattern([ONE]), hierarchy_big))
    doc = pfio.covering_doc(cov)
    doc["assignment"] = [["0", "0"], ["w^(0)", format_term(t(image))]]
    with pytest.raises(pfio.FormatError):
        pfio.loads_covering(pfio.render(doc), hierarchy_big)


@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_core_witness_must_be_plain_file_name(tmp_path, hierarchy_big, where):
    core_dir = tmp_path / "cores"
    core_dir.mkdir()
    path = core_dir / "big.core"
    pfio.write_core(compute_core(hierarchy_big, 2), path)
    outside = tmp_path / "outside.pattern"
    outside.write_text(pfio.dumps_pattern(trivial_pattern([ONE])))
    ref = "../outside.pattern" if where == "parent" else str(outside)
    doc = pfio.parse_payload(path.read_text())
    doc["witnesses"] = [[member, ref] for member, _ in doc["witnesses"]]
    path.write_text(pfio.render(doc))
    with pytest.raises(pfio.FormatError):
        pfio.read_core(path, hierarchy_big)


def _witness_file(doc, directory, member, P):
    """Point member's witness entry at a new file holding P."""
    ref = f"extra-{len(list(directory.glob('extra-*')))}.pattern"
    (directory / ref).write_text(pfio.dumps_pattern(P))
    for entry in doc["witnesses"]:
        if entry[0] == member:
            entry[1] = ref


def _tamper(how, H, doc, directory):
    """Edit a core document of H at bound 2 (and the files beside it) into
    one that compute_core cannot produce."""
    outside = "w^(w^(5))"
    if how == "member outside carrier":
        doc["members"].append(outside)
        doc["witnesses"].append([outside, doc["witnesses"][-1][1]])
    elif how == "members descending":
        doc["members"].reverse()
        doc["witnesses"].reverse()
    elif how == "member repeated":
        doc["members"].append(doc["members"][-1])
        doc["witnesses"].append(doc["witnesses"][-1])
    elif how == "member without witness":
        doc["witnesses"].pop()
    elif how == "witness lacks its member":
        _witness_file(doc, directory, doc["members"][-1], H.restrict_pattern(closure([ONE])))
    elif how == "witness relations not the host's":
        # the witness of w+1 carries the host's strict pair (w, w+1)
        W = H.restrict_pattern(closure([t("w+1")]))
        assert W.strict_le1()
        _witness_file(doc, directory, "w^(w^(0))+w^(0)", trivial_pattern(W.universe))
    elif how == "witness outside the carrier":
        _witness_file(doc, directory, "0", trivial_pattern([t(outside)]))
    elif how == "witness above the size bound":
        for member in doc["members"]:
            _witness_file(doc, directory, member, H.restrict_pattern(H.carrier))
    else:
        doc["size_bound"] = how


CORE_TAMPERINGS = [
    ("member outside carrier", "outside the host carrier"),
    ("members descending", "not strictly ascending"),
    ("member repeated", "not strictly ascending"),
    ("member without witness", "do not name the core members"),
    ("witness lacks its member", "does not contain it"),
    ("witness relations not the host's", "not a substructure of the host"),
    ("witness outside the carrier", "not a substructure of the host"),
    ("witness above the size bound", "more than 2 indecomposables"),
] + [(bound, "size bound") for bound in ("2", 0, -1, 2.0, True, None)]


@pytest.mark.parametrize("how,reason", CORE_TAMPERINGS)
def test_core_loader_rejects_what_compute_core_cannot_produce(tmp_path, hierarchy_big, how, reason):
    path = tmp_path / "big.core"
    pfio.write_core(compute_core(hierarchy_big, 2), path)
    assert pfio.read_core(path, hierarchy_big).members  # untampered, it loads
    doc = pfio.parse_payload(path.read_text())
    _tamper(how, hierarchy_big, doc, tmp_path)
    path.write_text(pfio.render(doc))
    with pytest.raises(pfio.FormatError, match=reason):
        pfio.read_core(path, hierarchy_big)


# -- dot export ------------------------------------------------------------------


def test_dot_single_node():
    got = export_dot(trivial_pattern([]))
    assert got == 'digraph pattern {\n  rankdir=BT;\n  "0";\n}\n'


def test_dot_one_solid_edge():
    P = Pattern(closure([ONE]), le1=[(ZERO, ONE)])
    got = export_dot(P)
    assert '"0" -> "w^(0)";' in got
    assert "style=bold" not in got


def test_dot_transitive_reduction():
    P = Pattern(
        closure([t("2")]), le1=[(ZERO, ONE), (ONE, t("2")), (ZERO, t("2"))]
    )
    got = export_dot(P)
    assert '"0" -> "w^(0)";' in got
    assert '"0" -> "w^(0)+w^(0)";' not in got


def test_dot_hierarchy_golden(hierarchy_ladder):
    # pinned from the first verified run
    assert export_dot(hierarchy_ladder, sugar=True) == (
        "digraph hierarchy {\n"
        "  rankdir=BT;\n"
        '  "0";\n'
        '  "1";\n'
        '  "w";\n'
        '  "w^(1+1)";\n'
        '  "w" -> "w^(1+1)" [style=bold];\n'
        "}\n"
    )


# -- CLI ---------------------------------------------------------------------------


# The directory this test process imported patternforge from, absolute, so
# that a child started in a temporary directory runs the very same code even
# when the package is on the path only by a relative entry such as src.
PACKAGE_ROOT = str(Path(patternforge.__file__).resolve().parent.parent)

# Interpreter-level failures of the child; the CLI's own errors print
# "error: ..." and exit 2, so these never stand for a verdict.
CHILD_FAILURES = ("Traceback", "Error while finding module specification")


def run_cli(args, cwd):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    res = subprocess.run(
        [sys.executable, "-m", "patternforge.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    if any(marker in res.stderr for marker in CHILD_FAILURES):
        pytest.fail(f"patternforge.cli {args} did not run:\n{res.stderr}")
    return res


@pytest.fixture()
def workdir(tmp_path, hierarchy_big):
    (tmp_path / "big.carrier").write_text(pfio.dumps_carrier(hierarchy_big.carrier))
    (tmp_path / "big.hier").write_text(pfio.dumps_hierarchy(hierarchy_big))
    (tmp_path / "good.pattern").write_text(pfio.dumps_pattern(trivial_pattern([ONE])))
    bad = 'patternforge-v1\n{"universe": ["0", "w^(0)"], "le1": [], "le2": [["0", "w^(0)"]]}\n'
    (tmp_path / "bad.pattern").write_text(bad)
    (tmp_path / "garbage.pattern").write_text("not even a header\n")
    return tmp_path


def test_cli_validate_ok(workdir):
    res = run_cli(["validate", "good.pattern"], workdir)
    assert res.returncode == 0 and res.stdout.strip() == "ok"


def test_cli_validate_violations(workdir):
    res = run_cli(["validate", "bad.pattern"], workdir)
    assert res.returncode == 1
    assert "le2 not within le1" in res.stdout


def test_cli_validate_usage_error(workdir):
    res = run_cli(["validate", "garbage.pattern"], workdir)
    assert res.returncode == 2
    res = run_cli(["validate", "missing.pattern"], workdir)
    assert res.returncode == 2


def test_cli_validate_malformed_pair_is_usage_error(workdir):
    # a relation entry that is not a pair is an input error, not a verdict
    text = 'patternforge-v1\n{"universe": ["0", "w^(0)"], "le1": [5], "le2": []}\n'
    (workdir / "malformed.pattern").write_text(text)
    res = run_cli(["validate", "malformed.pattern"], workdir)
    assert res.returncode == 2
    assert "not a pair" in res.stderr


def test_cli_validate_non_string_term_is_usage_error(workdir):
    text = 'patternforge-v1\n{"universe": ["0", 5], "le1": [], "le2": []}\n'
    (workdir / "numeric.pattern").write_text(text)
    res = run_cli(["validate", "numeric.pattern"], workdir)
    assert res.returncode == 2
    assert "must be a string" in res.stderr


def test_cli_validate_oversized_integer_is_usage_error(workdir):
    big = ordinals.MAX_INTEGER + 1
    text = f'patternforge-v1\n{{"universe": ["0", "{big}"], "le1": [], "le2": []}}\n'
    (workdir / "huge.pattern").write_text(text)
    res = run_cli(["validate", "huge.pattern"], workdir)
    assert res.returncode == 2
    assert "exceeds" in res.stderr


def test_cli_validate_oversized_sum_is_usage_error(workdir):
    # every literal is within the bound, their sum is not
    big = ordinals.MAX_INTEGER
    text = f'patternforge-v1\n{{"universe": ["0", "{big}+{big}+{big}"], "le1": [], "le2": []}}\n'
    (workdir / "huge-sum.pattern").write_text(text)
    res = run_cli(["validate", "huge-sum.pattern"], workdir)
    assert res.returncode == 2
    assert "exceeds" in res.stderr


@pytest.fixture()
def invalid_host(workdir, hierarchy_omega2):
    """bad.hier has 1 le1 w le1 w^2 but not 1 le1 w^2, so le1 is not
    transitive; the cores and the rule beside it are the library's own."""
    C = closure([t("w+1"), t("w^(2)")])
    refl = {(x, x) for x in C}
    le1 = frozenset(refl | {(ONE, OMEGA), (OMEGA, t("w^(2)"))})
    bad = Hierarchy(C, t("w^(3)"), le1, frozenset(refl))
    (workdir / "bad.hier").write_text(pfio.dumps_hierarchy(bad))
    pfio.write_core(compute_core(bad, 1), workdir / "bad.core")
    (workdir / "small.hier").write_text(pfio.dumps_hierarchy(hierarchy_omega2))
    pfio.write_core(compute_core(hierarchy_omega2, 1), workdir / "small.core")
    ident = make_generic(trivial_pattern([ONE]), trivial_pattern([ONE]))
    (workdir / "ident.rule").write_text(pfio.dumps_rule(ident))
    return workdir


HOST_COMMANDS = {
    "cover": "cover --pattern good.pattern --hierarchy bad.hier",
    "isominimal": "isominimal --pattern good.pattern --hierarchy bad.hier",
    "core": "core --hierarchy bad.hier --bound 1 --out again.core",
    "compare-left": "compare --left bad.core --right small.core "
                    "--left-hierarchy bad.hier --right-hierarchy small.hier",
    "compare-right": "compare --left small.core --right bad.core "
                     "--left-hierarchy small.hier --right-hierarchy bad.hier",
    "rule-test": "rule-test --rule ident.rule --hierarchy bad.hier",
}


@pytest.mark.parametrize("command", sorted(HOST_COMMANDS))
def test_cli_host_commands_reject_invalid_hierarchy(invalid_host, command):
    res = run_cli(HOST_COMMANDS[command].split(), invalid_host)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "le1 not transitive" in res.stderr


def test_cli_readers_accept_invalid_hierarchy(invalid_host):
    res = run_cli(["axioms", "bad.hier"], invalid_host)
    assert res.returncode == 1
    assert "le1 not transitive" in res.stdout
    assert run_cli(["chains", "bad.hier"], invalid_host).returncode == 0
    assert run_cli(["export-dot", "bad.hier"], invalid_host).returncode == 0


def test_cli_main_in_process_repeats(workdir, capsys, monkeypatch):
    # the parser is built once per process; each call still parses its own
    # argv onto its own defaults and calls the handler bound now
    from patternforge import cli

    hier = str(workdir / "big.hier")
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as rejected:
        cli.main(["axioms", hier, "--format", "xml", "--window", "3"])
    assert rejected.value.code == 2
    capsys.readouterr()
    assert cli.main(["axioms", hier, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == []
    assert cli.main(["axioms", hier]) == 0
    plain = capsys.readouterr().out
    assert "order: ok" in plain and not plain.lstrip().startswith("{")
    assert plain == run_cli(["axioms", "big.hier"], workdir).stdout
    monkeypatch.setattr(cli, "cmd_axioms", lambda args: 7)
    assert cli.main(["axioms", hier]) == 7


def test_cli_build_deterministic(workdir):
    r1 = run_cli(
        ["build", "--carrier", "big.carrier", "--top", "w^(3)", "--out", "h1.hier"],
        workdir,
    )
    r2 = run_cli(
        ["build", "--carrier", "big.carrier", "--top", "w^(3)", "--out", "h2.hier"],
        workdir,
    )
    assert r1.returncode == r2.returncode == 0
    b1 = (workdir / "h1.hier").read_bytes()
    assert b1 == (workdir / "h2.hier").read_bytes()
    assert b1 == (workdir / "big.hier").read_bytes()


def test_cli_build_rejects_bad_top(workdir):
    res = run_cli(
        ["build", "--carrier", "big.carrier", "--top", "w+1", "--out", "x.hier"],
        workdir,
    )
    assert res.returncode == 2


def test_cli_axioms(workdir):
    res = run_cli(["axioms", "big.hier"], workdir)
    assert res.returncode == 0
    assert "order: ok" in res.stdout
    res = run_cli(["axioms", "big.hier", "--format", "json"], workdir)
    doc = json.loads(res.stdout)
    assert doc["order"] == [] and doc["respect"] == [] and doc["top"] == []


def test_cli_cover_positive_and_negative(workdir):
    res = run_cli(
        ["cover", "--pattern", "good.pattern", "--hierarchy", "big.hier"], workdir
    )
    assert res.returncode == 0
    assert res.stdout.count("covering ") == 3
    res = run_cli(
        ["cover", "--pattern", "good.pattern", "--hierarchy", "big.hier",
         "--format", "json"],
        workdir,
    )
    assert res.returncode == 0
    assert res.stdout.count('"assignment"') == 3
    res = run_cli(
        ["cover", "--pattern", "good.pattern", "--hierarchy", "big.hier",
         "--limit", "1"],
        workdir,
    )
    assert res.returncode == 0
    assert res.stdout.count("covering ") == 1
    impossible = Pattern(
        closure([t("w+1"), t("w+w")]),
        le1=[(t("w+1"), t("w+w"))],
        le2=[(t("w+1"), t("w+w"))],
    )
    (workdir / "impossible.pattern").write_text(pfio.dumps_pattern(impossible))
    res = run_cli(
        ["cover", "--pattern", "impossible.pattern", "--hierarchy", "big.hier"],
        workdir,
    )
    assert res.returncode == 1
    assert "no coverings" in res.stdout


def test_cli_isominimal(workdir):
    res = run_cli(
        ["isominimal", "--pattern", "good.pattern", "--hierarchy", "big.hier"],
        workdir,
    )
    assert res.returncode == 0
    assert "realization: {0, w^(0)}" in res.stdout
    res = run_cli(
        ["isominimal", "--pattern", "good.pattern", "--hierarchy", "big.hier",
         "--format", "json"],
        workdir,
    )
    doc = json.loads(res.stdout.partition("\n")[2])
    assert doc["realization"]["universe"] == ["0", "w^(0)"]
    assert doc["unique_minimum"] and doc["below_all_covers"]


def test_cli_core_and_compare(workdir, hierarchy_omega2):
    (workdir / "small.hier").write_text(pfio.dumps_hierarchy(hierarchy_omega2))
    assert run_cli(
        ["core", "--hierarchy", "big.hier", "--bound", "2", "--out", "big.core"],
        workdir,
    ).returncode == 0
    assert run_cli(
        ["core", "--hierarchy", "small.hier", "--bound", "2", "--out", "small.core"],
        workdir,
    ).returncode == 0
    res = run_cli(
        [
            "compare",
            "--left", "small.core",
            "--right", "big.core",
            "--left-hierarchy", "small.hier",
            "--right-hierarchy", "big.hier",
        ],
        workdir,
    )
    assert res.returncode == 0
    assert "initial segment embedding" in res.stdout
    machine = json.loads(res.stdout.partition("---")[2])
    assert machine["result"] == "initial-segment"
    assert machine["mapping"][1] == ["w^(w^(0))", "w^(0)"]


def test_cli_chains(workdir, hierarchy_ladder):
    (workdir / "ladder.hier").write_text(pfio.dumps_hierarchy(hierarchy_ladder))
    res = run_cli(["chains", "ladder.hier", "--sugar"], workdir)
    assert res.returncode == 0 and res.stdout.strip() == "w w^(1+1)"
    res = run_cli(["chains", "big.hier"], workdir)
    assert res.returncode == 0 and res.stdout.strip() == "(empty)"


def test_cli_rule_test(workdir, hierarchy_ladder):
    from patternforge import make_generic

    (workdir / "ladder.hier").write_text(pfio.dumps_hierarchy(hierarchy_ladder))
    ident = make_generic(trivial_pattern([ONE]), trivial_pattern([ONE]))
    (workdir / "ident.rule").write_text(pfio.dumps_rule(ident))
    res = run_cli(
        ["rule-test", "--rule", "ident.rule", "--hierarchy", "ladder.hier"], workdir
    )
    assert res.returncode == 0
    assert '"valid-on-sample"' in res.stdout

    grow = make_generic(
        trivial_pattern([t("w^(2)")]), trivial_pattern([OMEGA, t("w^(2)")])
    )
    (workdir / "grow.rule").write_text(pfio.dumps_rule(grow))
    res = run_cli(
        ["rule-test", "--rule", "grow.rule", "--hierarchy", "ladder.hier"], workdir
    )
    assert res.returncode == 1
    assert '"counterexample"' in res.stdout


def test_cli_rule_test_has_no_regressive_map_budget(workdir):
    from patternforge import make_generic

    rule = make_generic(trivial_pattern([ONE]), trivial_pattern([ONE, t("w^(w^(w))")]))
    (workdir / "far.rule").write_text(pfio.dumps_rule(rule))
    base = ["rule-test", "--rule", "far.rule", "--hierarchy", "big.hier"]
    res = run_cli(base, workdir)
    assert res.returncode == 1
    assert '"counterexample"' in res.stdout
    assert run_cli(base + ["--max-phis", "0"], workdir).returncode == 2


def test_cli_rule_test_rejects_zero_covering_budget(workdir):
    from patternforge import make_generic

    rule = make_generic(trivial_pattern([ONE]), trivial_pattern([ONE, t("w^(w^(w))")]))
    (workdir / "far.rule").write_text(pfio.dumps_rule(rule))
    base = ["rule-test", "--rule", "far.rule", "--hierarchy", "big.hier"]
    res = run_cli(base + ["--max-coverings", "0"], workdir)
    assert res.returncode == 2
    assert "valid-on-sample" not in res.stdout
    assert "max_coverings must be at least 1" in res.stderr


def test_cli_rule_test_rejects_unknown_kind(workdir):
    from patternforge import make_generic

    text = pfio.dumps_rule(make_generic(trivial_pattern([ONE]), trivial_pattern([ONE])))
    (workdir / "up.rule").write_text(text.replace('"generic"', '"reflect2_up"'))
    res = run_cli(["rule-test", "--rule", "up.rule", "--hierarchy", "big.hier"], workdir)
    assert res.returncode == 2
    assert "unknown rule kind" in res.stderr


def test_cli_export_dot(workdir):
    res = run_cli(["export-dot", "big.hier", "--sugar"], workdir)
    assert res.returncode == 0
    assert res.stdout.startswith("digraph hierarchy {")
    res = run_cli(["export-dot", "good.pattern"], workdir)
    assert res.returncode == 0
    assert res.stdout.startswith("digraph pattern {")


def test_cli_export_dot_core(workdir):
    assert run_cli(
        ["core", "--hierarchy", "big.hier", "--bound", "2", "--out", "big.core"],
        workdir,
    ).returncode == 0
    res = run_cli(
        ["export-dot", "big.core", "--hierarchy", "big.hier", "--sugar"], workdir
    )
    assert res.returncode == 0
    assert res.stdout.startswith("digraph core {")
    assert '"w" -> "w+1";' in res.stdout


@pytest.mark.parametrize(
    "how", ["member outside carrier", "witness relations not the host's", "witness lacks its member"]
)
def test_cli_compare_rejects_tampered_core(workdir, hierarchy_omega2, hierarchy_big, how):
    (workdir / "small.hier").write_text(pfio.dumps_hierarchy(hierarchy_omega2))
    for name in ("small", "big"):
        assert run_cli(
            ["core", "--hierarchy", f"{name}.hier", "--bound", "2", "--out", f"{name}.core"], workdir
        ).returncode == 0
    doc = pfio.parse_payload((workdir / "big.core").read_text())
    _tamper(how, hierarchy_big, doc, workdir)
    (workdir / "big.core").write_text(pfio.render(doc))
    res = run_cli(
        ["compare", "--left", "small.core", "--right", "big.core",
         "--left-hierarchy", "small.hier", "--right-hierarchy", "big.hier"],
        workdir,
    )
    assert res.returncode == 2 and res.stderr.startswith("error:")


def test_cli_build_to_stdout(workdir):
    res = run_cli(["build", "--carrier", "big.carrier", "--top", "w^(3)"], workdir)
    assert res.returncode == 0
    assert res.stdout == (workdir / "big.hier").read_text()


def test_cli_readme_walkthrough(workdir, hierarchy_omega2, hierarchy_ladder):
    # the command sequence shown in the README, end to end
    from patternforge import make_generic

    (workdir / "small.hier").write_text(pfio.dumps_hierarchy(hierarchy_omega2))
    (workdir / "p.pattern").write_text(pfio.dumps_pattern(trivial_pattern([ONE])))
    ident = make_generic(trivial_pattern([ONE]), trivial_pattern([ONE]))
    (workdir / "r.rule").write_text(pfio.dumps_rule(ident))
    steps = [
        ["build", "--carrier", "big.carrier", "--top", "w^(3)", "--out", "big.hier"],
        ["axioms", "big.hier"],
        ["validate", "p.pattern"],
        ["cover", "--pattern", "p.pattern", "--hierarchy", "big.hier"],
        ["isominimal", "--pattern", "p.pattern", "--hierarchy", "big.hier"],
        ["core", "--hierarchy", "big.hier", "--bound", "2", "--out", "big.core"],
        ["core", "--hierarchy", "small.hier", "--bound", "2", "--out", "small.core"],
        ["compare", "--left", "small.core", "--right", "big.core",
         "--left-hierarchy", "small.hier", "--right-hierarchy", "big.hier"],
        ["chains", "big.hier", "--sugar"],
        ["rule-test", "--rule", "r.rule", "--hierarchy", "big.hier"],
        ["export-dot", "big.hier", "--out", "big.dot"],
    ]
    for step in steps:
        res = run_cli(step, workdir)
        assert res.returncode == 0, (step, res.stderr)
    assert (workdir / "big.dot").read_text().startswith("digraph hierarchy {")
