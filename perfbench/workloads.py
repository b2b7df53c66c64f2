"""The four benchmark workloads: seeded inputs, one round of operations, and
the checks on every output.

A workload is a class with
  prepare(pf, seed, workdir) -> state   set-up: input generation and hosts
  round(state)               -> [Op]    one round of user-level operations
  digest(state, key, output) -> str     canonical bytes of one output, hashed
  check(state, outputs)      -> {key: reason}   invariants, outside timing
  sizes(state)               -> dict    input sizes, for the report

``pf`` is the freshly imported ``patternforge`` package; nothing here keeps a
reference to it between set-ups, so each set-up can re-import the library.
Every operation is one call a user makes: one ``build_hierarchy``, one
``compute_core`` or ``compare_cores``, one ``test_cofinal_validity`` or one
``cli.main(argv)``.  Outputs with the same key come from the same inputs and
must have the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import itertools
import random
from typing import Callable, NamedTuple


class Op(NamedTuple):
    key: str
    fn: Callable[[], object]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:24]


def finite(pf, k):
    return pf.OrdinalTerm((pf.ZERO,) * k)


def dense_carrier(pf, rng, n, indecomposables=None):
    """Closure of a random set of descending sums of at most four summands
    over three or four exponents from {0, 1, 2, 3, w, w+1}, grown one sum at a
    time until it has exactly n elements.  Returns (carrier, top)."""
    exponent_pool = [finite(pf, 0), finite(pf, 1), finite(pf, 2), finite(pf, 3),
                     pf.OMEGA, pf.add(pf.OMEGA, pf.ONE)]
    while True:
        count = indecomposables or rng.choice((3, 4))
        exps = sorted(rng.sample(exponent_pool, count), reverse=True)
        pool = sorted(
            {pf.OrdinalTerm(combo)
             for m in range(1, 5)
             for combo in itertools.combinations_with_replacement(exps, m)}
        )
        rng.shuffle(pool)
        got = {pf.ZERO}
        for x in pool:
            grown = pf.closure(got | {x})
            if len(grown) <= n:
                got = set(grown.elements)
            if len(got) == n:
                if indecomposables and len(grown.indecomposables) != indecomposables:
                    break
                return grown, pf.omega_power(pf.add(exps[0], pf.ONE))


def ladder(pf, k):
    """The sparse carrier 1, w, w^2, ..., w^k and its top w^(k+1)."""
    carrier = pf.closure(pf.omega_power(finite(pf, i)) for i in range(k + 1))
    return carrier, pf.omega_power(finite(pf, k + 1))


def sub_carrier(pf, rng, carrier, n):
    """A closed subset of the carrier grown from random elements, at most n."""
    elems = list(carrier.elements)
    rng.shuffle(elems)
    small = {pf.ZERO}
    for x in elems:
        grown = pf.closure(small | {x})
        if len(grown) <= n:
            small = set(grown.elements)
    return pf.closure(small)


def core_host_carrier(pf, rng, n, windows, candidates):
    """The first of a run of dense carriers with three indecomposables whose
    number of closed subsets with at most k indecomposables lies in
    windows[k]: that number sets the work of compute_core(H, k), so it is
    held in a narrow band.  At least ``candidates`` carriers are drawn and
    counted even when an earlier one fits, so that set-up does about the same
    work for every seed."""
    found, drawn = None, 0
    while found is None or drawn < candidates:
        carrier, top = dense_carrier(pf, rng, n, indecomposables=3)
        drawn += 1
        counts = {k: closed_subset_count(pf, carrier, k) for k in windows}
        if found is None and all(lo <= counts[k] <= hi for k, (lo, hi) in windows.items()):
            found = carrier, top
    return found


def closed_subset_count(pf, carrier, max_indecomposables):
    """Number of closed subsets with at most max_indecomposables
    indecomposables; a cheap size measure used to pick core hosts."""
    elems = [x for x in carrier if x.exponents]  # 0 is in every closed subset
    bit = {x: 1 << i for i, x in enumerate(elems)}
    # the parts each element needs chosen before it (all earlier: ascending order)
    needs = [0] * len(elems)
    for i, x in enumerate(elems):
        for part in pf.ordinals.split_parts(x):
            needs[i] |= bit.get(part, 0)  # 0 is always there
    grows = [pf.is_indecomposable(x) for x in elems]
    count = 0

    def rec(i, chosen, indecs):
        nonlocal count
        if i == len(elems):
            count += 1
            return
        rec(i + 1, chosen, indecs)
        if grows[i] and indecs == max_indecomposables:
            return
        if needs[i] & ~chosen == 0:
            rec(i + 1, chosen | 1 << i, indecs + grows[i])

    rec(0, 0, 0)
    return count


def host_checks(pf, H):
    """Definitional invariants of a built hierarchy."""
    if pf.one_more_round(H) != (H.le1, H.le2):
        return "one_more_round changed the relations"
    if not pf.check_hierarchy_axioms(H).passed_exact:
        return "check_hierarchy_axioms failed"
    return None


# ---------------------------------------------------------------------------


class BuildDense:
    name = "build-dense"
    why = ("build_hierarchy on dense carriers: the game rounds in hierarchy and "
           "the embedding search do almost all the work")
    DENSE = 6  # carriers per round
    N = 20  # elements per dense carrier
    LADDER_K = (5, 8)

    def prepare(self, pf, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        inputs = [dense_carrier(pf, rng, self.N) for _ in range(self.DENSE)]
        inputs.append(ladder(pf, rng.randint(*self.LADDER_K)))
        return {"pf": pf, "inputs": inputs}

    def round(self, state):
        build = state["pf"].build_hierarchy
        return [
            Op(f"carrier-{i}", lambda c=c, t=t: build(c, t))
            for i, (c, t) in enumerate(state["inputs"])
        ]

    def digest(self, state, key, H):
        return sha(state["pf"].io.dumps_hierarchy(H))

    def check(self, state, outputs):
        pf = state["pf"]
        bad = {}
        for i, (carrier, top) in enumerate(state["inputs"]):
            key = f"carrier-{i}"
            H = outputs.get(key)
            if H is None:
                continue
            if H.carrier != carrier or H.top != top:
                bad[key] = "hierarchy is not on its input carrier"
            else:
                reason = host_checks(pf, H)
                if reason:
                    bad[key] = reason
        return bad

    def sizes(self, state):
        return {"n": [len(c) for c, _ in state["inputs"]], "ops_per_round": len(state["inputs"])}


class CoreEnum:
    name = "core-enum"
    why = ("compute_core at bounds 3 and 2 and compare_cores on nested hosts: "
           "isomorphism dedupe and pattern validation dominate")
    PAIRS = 16
    BIG_N = 13
    WINDOWS = {2: (35, 45), 3: (112, 128)}  # closed subsets with <= k indecomposables
    CANDIDATES = 24  # about one carrier in nine fits both windows
    SMALL_N = 9

    def prepare(self, pf, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        pairs = []
        for _ in range(self.PAIRS):
            carrier, top = core_host_carrier(pf, rng, self.BIG_N, self.WINDOWS, self.CANDIDATES)
            small = pf.build_hierarchy(sub_carrier(pf, rng, carrier, self.SMALL_N), top)
            pairs.append((small, pf.build_hierarchy(carrier, top), pf.compute_core(small, 2)))
        return {"pf": pf, "pairs": pairs, "cores": {}, "workdir": workdir}

    def round(self, state):
        """Per pair: the big host's cores at bounds 3 and 2, then the small
        host's core (computed during set-up) compared with the new one."""
        pf, cores = state["pf"], state["cores"]

        def core(key, H, bound):
            def fn():
                cores[key] = pf.compute_core(H, bound)
                return cores[key]
            return Op(key, fn)

        ops = []
        for i, (_, big, small_core) in enumerate(state["pairs"]):
            ops += [
                core(f"pair{i}/big/3", big, 3),
                core(f"pair{i}/big/2", big, 2),
                Op(f"pair{i}/compare/2",
                   lambda i=i, c=small_core: pf.compare_cores(c, cores[f"pair{i}/big/2"])),
            ]
        return ops

    def digest(self, state, key, out):
        pf = state["pf"]
        if isinstance(out, pf.CoreMismatch):
            return sha("mismatch", out.position)
        if isinstance(out, pf.InitialSegmentEmbedding):
            return sha("initial-segment", *(pf.format_term(x) for p in out.mapping for x in p))
        path = state["workdir"] / "digest.core"
        for old in state["workdir"].glob("digest.core*"):
            old.unlink()
        pf.io.write_core(out, path)
        files = sorted(state["workdir"].glob("digest.core*"))
        return sha(*(f.name.encode() + b"\0" + f.read_bytes() for f in files))

    def check(self, state, outputs):
        pf = state["pf"]
        bad = {}
        for i, (small, big, small_core) in enumerate(state["pairs"]):
            for label, H in (("small", small), ("big", big)):
                reason = host_checks(pf, H)
                if reason:
                    bad.update({k: f"{label} host: {reason}" for k in outputs if k.startswith(f"pair{i}/")})
            reason = _core_reason(pf, small_core, small, 2)
            if reason:
                bad[f"pair{i}/compare/2"] = f"small core: {reason}"
            for bound in (3, 2):
                key = f"pair{i}/big/{bound}"
                if key in outputs:
                    reason = _core_reason(pf, outputs[key], big, bound)
                    if reason:
                        bad[key] = reason
            key, right = f"pair{i}/compare/2", outputs.get(f"pair{i}/big/2")
            if key in outputs and right is not None:
                reason = _compare_reason(pf, outputs[key], small_core, right)
                if reason:
                    bad[key] = reason
        return bad

    def sizes(self, state):
        return {
            "n_big": [len(b.carrier) for _, b, _ in state["pairs"]],
            "n_small": [len(s.carrier) for s, _, _ in state["pairs"]],
            "ops_per_round": 3 * len(state["pairs"]),
        }


def _core_reason(pf, core, H, bound):
    if core.host is not H or core.size_bound != bound:
        return "core is not of its host and bound"
    if list(core.members) != sorted(set(core.members)):
        return "core members not strictly ascending"
    for m in core.members:
        if m not in H.carrier:
            return "core member outside the carrier"
        W = core.witness_for(m)
        if m not in W.universe or W != H.restrict_pattern(W.universe):
            return "witness is not the induced substructure around its member"
        if len(W.indecomposables) > bound:
            return "witness exceeds the size bound"
    for W in {W for _, W in core.witness}:
        report = pf.isominimal(W, H)
        if report.realization is None or not report.isomorphic:
            return "isominimal realization not isomorphic to its source"
    return None


def _compare_reason(pf, result, left, right):
    if isinstance(result, pf.InitialSegmentEmbedding):
        if len(result.mapping) != len(left.members):
            return "embedding does not cover the smaller core"
        for i, (a, b) in enumerate(result.mapping):
            if a != left.members[i] or b != right.members[i]:
                return "embedding is not positional"
            if pf.find_isomorphism(left.witness_for(a), right.witness_for(b)) is None:
                return "embedded witnesses are not isomorphic"
        return None
    if isinstance(result, pf.CoreMismatch):
        i = result.position
        if i >= len(left.members):
            return "mismatch position beyond the smaller core"
        if i < len(right.members) and pf.find_isomorphism(
            left.witness_for(left.members[i]), right.witness_for(right.members[i])
        ) is not None:
            return "mismatch reported at isomorphic witnesses"
        return None
    return f"unexpected result {type(result).__name__}"


class RuleProbe:
    name = "rule-probe"
    why = ("test_cofinal_validity under the full Budget: covering enumeration and "
           "pinned, floored extension searches dominate")
    KINDS = (("identity", 100), ("arith_ext", 100), ("generic", 80), ("reflect1_down", 20))
    EXPONENTS = 6  # host: sums of at most two summands over w^0 .. w^5
    LADDER_K = 6

    def prepare(self, pf, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        indecs = [pf.omega_power(finite(pf, k)) for k in range(self.EXPONENTS)]
        host = pf.build_hierarchy(
            pf.closure(pf.add(a, b) for a in indecs for b in indecs if b <= a),
            pf.omega_power(finite(pf, self.EXPONENTS)),
        )
        lad = pf.build_hierarchy(*ladder(pf, self.LADDER_K))
        rules = []
        for kind, count in self.KINDS:
            for _ in range(count):
                if kind == "reflect1_down":
                    rules.append((_reflect_rule(pf, rng, lad), lad))
                else:
                    rules.append((_host_rule(pf, rng, host, indecs, kind), host))
        rng.shuffle(rules)
        return {"pf": pf, "rules": rules, "hosts": (host, lad)}

    def round(self, state):
        test = state["pf"].test_cofinal_validity
        return [
            Op(f"rule-{i:03d}", lambda r=r, H=H: test(r.premise, r.conclusion, H))
            for i, (r, H) in enumerate(state["rules"])
        ]

    def digest(self, state, key, verdict):
        return sha(state["pf"].io.dumps_verdict(verdict))

    def check(self, state, outputs):
        pf = state["pf"]
        bad = {}
        for H in state["hosts"]:
            reason = host_checks(pf, H)
            if reason:
                bad.update({k: reason for k in outputs})
        for i, (rule, H) in enumerate(state["rules"]):
            key = f"rule-{i:03d}"
            verdict = outputs.get(key)
            if verdict is None:
                continue
            P, Pplus = rule.premise, rule.conclusion
            if verdict.valid:
                total = sum(1 for _ in pf.search_coverings(P, H))
                if verdict.coverings_checked != total:
                    bad[key] = "valid verdict did not check every covering"
            else:
                h, phi = verdict.counterexample
                if not pf.is_covering(h, P, H):
                    bad[key] = "counterexample is not a covering"
                elif pf.extend_covering(P, Pplus, h, phi) is not None:
                    bad[key] = "counterexample covering extends above its bound"
        return bad

    def sizes(self, state):
        host, lad = state["hosts"]
        return {"n_host": len(host.carrier), "n_ladder": len(lad.carrier),
                "ops_per_round": len(state["rules"]), "kinds": dict(self.KINDS)}


def _host_rule(pf, rng, H, indecs, kind):
    """A rule whose premise is the host's pattern on a random closed subset
    with three indecomposables."""
    while True:
        chosen = sorted(rng.sample(indecs, 3))
        sums = [pf.add(a, b) for a in chosen for b in chosen if b <= a]
        subset = pf.closure(chosen + rng.sample(sums, rng.randint(0, 3)))
        P = H.restrict_pattern(subset)
        if kind == "identity":
            return pf.make_generic(P, P)
        if kind == "arith_ext":
            fresh = [s for s in sums if s not in subset]
            if fresh:
                return pf.make_arith_ext(P, rng.sample(fresh, min(2, len(fresh))))
            continue
        extra = rng.choice([x for x in indecs if x not in subset])
        return pf.make_generic(P, H.restrict_pattern(pf.closure(list(subset) + [extra])))


def _reflect_rule(pf, rng, L):
    """A downward 1-reflection over the ladder's strict le1 pair."""
    a, b = L.strict(1)[0]
    below = [x for x in L.carrier.indecomposables if x < a]
    while True:
        keep = [x for x in below if rng.random() < 0.5]
        P = L.restrict_pattern(pf.closure(keep + [a, b]))
        X = [x for x in (a, b) if rng.random() < 0.5]
        try:
            return pf.make_reflect1_down(P, a, b, X)
        except ValueError:
            continue  # the constructor's documented refusal: no room below b


class CliPipeline:
    name = "cli-pipeline"
    why = ("in-process cli.main over small carriers with every artifact written to "
           "and read back from disk: io, cli and dot take a visible share")
    PAIRS = 16
    BIG_N = 13
    WINDOWS = {2: (35, 45)}  # as in core-enum: the core command runs at bound 2
    CANDIDATES = 10  # about one carrier in three fits the window
    SMALL_N = 9

    def prepare(self, pf, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        pairs = []
        for i in range(self.PAIRS):
            big, top = core_host_carrier(pf, rng, self.BIG_N, self.WINDOWS, self.CANDIDATES)
            small = sub_carrier(pf, rng, big, self.SMALL_N)
            indecs = list(big.indecomposables)
            base = pf.trivial_pattern(sorted(rng.sample(indecs, 2)))
            extra = rng.choice([x for x in indecs if x not in base.universe])
            grow = pf.trivial_pattern(list(base.universe.elements) + [extra])
            files = {
                "S.carrier": pf.io.dumps_carrier(small),
                "B.carrier": pf.io.dumps_carrier(big),
                "p.pattern": pf.io.dumps_pattern(base),
                "ident.rule": pf.io.dumps_rule(pf.make_generic(base, base)),
                "grow.rule": pf.io.dumps_rule(pf.make_generic(base, grow)),
            }
            d = workdir / f"pair{i}"
            d.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (d / name).write_text(text)
            pairs.append({"dir": d, "small": small, "big": big, "top": top,
                          "pattern": base, "grow": grow})
        return {"pf": pf, "pairs": pairs, "workdir": workdir}

    COMMANDS = (
        # (label, argv template, artifacts written)
        ("build-S", "build --carrier {d}/S.carrier --top {top} --out {d}/S.hier", ("S.hier",)),
        ("build-B", "build --carrier {d}/B.carrier --top {top} --out {d}/B.hier", ("B.hier",)),
        ("axioms-B", "axioms {d}/B.hier", ()),
        ("core-S", "core --hierarchy {d}/S.hier --bound 2 --out {d}/S.core", ("S.core*",)),
        ("core-B", "core --hierarchy {d}/B.hier --bound 2 --out {d}/B.core", ("B.core*",)),
        ("compare", "compare --left {d}/S.core --right {d}/B.core "
                    "--left-hierarchy {d}/S.hier --right-hierarchy {d}/B.hier", ()),
        ("cover", "cover --pattern {d}/p.pattern --hierarchy {d}/B.hier", ()),
        ("isominimal", "isominimal --pattern {d}/p.pattern --hierarchy {d}/B.hier "
                       "--out {d}/p.iso", ("p.iso",)),
        ("rule-ident", "rule-test --rule {d}/ident.rule --hierarchy {d}/B.hier", ()),
        ("rule-grow", "rule-test --rule {d}/grow.rule --hierarchy {d}/B.hier", ()),
        ("chains", "chains {d}/B.hier --sugar", ()),
        ("dot-B", "export-dot {d}/B.hier --out {d}/B.dot", ("B.dot",)),
        ("dot-core", "export-dot {d}/B.core --hierarchy {d}/B.hier --out {d}/Bcore.dot",
         ("Bcore.dot",)),
    )

    def round(self, state):
        main = state["pf"].cli.main
        fmt = state["pf"].format_term
        ops = []
        for i, pair in enumerate(state["pairs"]):
            for label, template, _ in self.COMMANDS:
                argv = template.format(d=pair["dir"], top=fmt(pair["top"])).split()
                ops.append(Op(f"pair{i}/{label}", lambda argv=argv: _run_cli(main, argv)))
        return ops

    def digest(self, state, key, out):
        code, stdout, stderr = out
        i, label = key.split("/")
        d = state["pairs"][int(i[4:])]["dir"]
        artifacts = dict((c[0], c[2]) for c in self.COMMANDS)[label]
        files = sorted(f for pattern in artifacts for f in d.glob(pattern))
        blobs = [f.name.encode() + b"\0" + f.read_bytes() for f in files]
        return sha(code, stdout.replace(str(d), "<dir>"), stderr.replace(str(d), "<dir>"), *blobs)

    def check(self, state, outputs):
        """Expected exit codes and outputs from the same calls made directly
        on the library."""
        pf = state["pf"]
        bad = {}
        ref_dir = state["workdir"] / "reference"
        ref_dir.mkdir(exist_ok=True)
        for i, pair in enumerate(state["pairs"]):
            d = pair["dir"]
            HS = pf.build_hierarchy(pair["small"], pair["top"])
            HB = pf.build_hierarchy(pair["big"], pair["top"])
            CS, CB = pf.compute_core(HS, 2), pf.compute_core(HB, 2)
            verdicts = {
                "rule-ident": pf.test_cofinal_validity(pair["pattern"], pair["pattern"], HB),
                "rule-grow": pf.test_cofinal_validity(pair["pattern"], pair["grow"], HB),
            }
            iso = pf.isominimal(pair["pattern"], HB)
            covers = sum(1 for _ in pf.search_coverings(pair["pattern"], HB))
            compared = pf.compare_cores(CS, CB)
            chain = pf.longest_chain2(HB)
            for f in ref_dir.glob("*"):
                f.unlink()
            pf.io.write_core(CS, ref_dir / "S.core")
            pf.io.write_core(CB, ref_dir / "B.core")
            expect = {
                "build-S": (0, {"S.hier": pf.io.dumps_hierarchy(HS)}),
                "build-B": (0, {"B.hier": pf.io.dumps_hierarchy(HB)}),
                "axioms-B": (0 if pf.check_hierarchy_axioms(HB).passed_exact else 1, {}),
                "core-S": (0, {f.name: f.read_text() for f in ref_dir.glob("S.core*")}),
                "core-B": (0, {f.name: f.read_text() for f in ref_dir.glob("B.core*")}),
                "compare": (0 if isinstance(compared, pf.InitialSegmentEmbedding) else 1, {}),
                "cover": (0 if covers else 1, {}),
                "isominimal": (0 if iso.realization is not None else 1, {}),
                "rule-ident": (0 if verdicts["rule-ident"].valid else 1, {}),
                "rule-grow": (0 if verdicts["rule-grow"].valid else 1, {}),
                "chains": (0, {}),
                "dot-B": (0, {"B.dot": pf.export_dot(HB)}),
                "dot-core": (0, {"Bcore.dot": pf.export_dot(CB)}),
            }
            stdout_expect = {
                "rule-ident": pf.io.dumps_verdict(verdicts["rule-ident"]),
                "rule-grow": pf.io.dumps_verdict(verdicts["rule-grow"]),
                "chains": (" ".join(pf.format_term(x, True) for x in chain) or "(empty)") + "\n",
            }
            for label, (code, files) in expect.items():
                key = f"pair{i}/{label}"
                if key not in outputs:
                    continue
                got_code, stdout, _ = outputs[key]
                if got_code != code:
                    bad[key] = f"exit code {got_code}, expected {code}"
                elif label in stdout_expect and stdout != stdout_expect[label]:
                    bad[key] = "output differs from the library's"
                elif label == "cover" and stdout.count("covering ") != covers:
                    bad[key] = "covering count differs from the library's"
                elif label == "isominimal" and not iso.isomorphic:
                    bad[key] = "isominimal realization not isomorphic to its source"
                elif any(files[name] != (d / name).read_text() for name in files):
                    bad[key] = "artifact differs from the library's"
            if pf.one_more_round(HB) != (HB.le1, HB.le2):
                bad[f"pair{i}/build-B"] = "one_more_round changed the relations"
        return bad

    def sizes(self, state):
        return {
            "n_big": [len(p["big"]) for p in state["pairs"]],
            "n_small": [len(p["small"]) for p in state["pairs"]],
            "ops_per_round": len(self.COMMANDS) * len(state["pairs"]),
        }


def _run_cli(main, argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (BuildDense(), CoreEnum(), RuleProbe(), CliPipeline())}
