"""Per-layer tracing of patternforge from outside the library.

The layers are the ten modules of ``src/patternforge``.  ``Tracer.install``
wraps every public function a layer defines and rebinds the wrapper under
each name that refers to the original anywhere in the package, because
modules import each other's functions by name (``hierarchy`` calls the
``search_embeddings`` it imported from ``embedding``).  Each call then opens a
span: name, start, end, parent span and operation id.  Generator functions
(``search_embeddings``, ``search_coverings``, ``regressive_maps``) get one
span per ``next()``, so the time the consumer spends between items is never
charged to the generator.

``ordinals`` has no spans: term comparison runs millions of times per build,
so it is only counted (``compare``, ``parse_term`` and ``OrdinalTerm``
construction) and its time stays in the caller's self time.

A layer's self time is the summed duration of its spans minus the time their
child spans cover.  Counters are read at the same boundaries from arguments
and results, so every count is a pure function of the inputs.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

PACKAGE = "patternforge"
SPAN_LAYERS = ("patterns", "embedding", "hierarchy", "covering", "cores", "rules", "io", "cli", "dot")


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.op = 0  # operation id stamped on new spans; 0 is set-up
        self.names = []  # span name table, indexed by name id
        self.spans = []  # finished spans: (id, parent, op, name id, start ns, end ns)
        self.counts = Counter()
        self.self_ns = Counter()
        self._stack = []  # open spans: [id, parent, op, name id, layer, start, child ns]
        self._next_id = 1
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id, layer):
        parent = self._stack[-1][0] if self._stack else 0
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, parent, self.op, name_id, layer, time.perf_counter_ns(), 0])

    def _close(self):
        end = time.perf_counter_ns()
        sid, parent, op, name_id, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if self._stack:
            self._stack[-1][6] += duration
        self.spans.append((sid, parent, op, name_id, start, end))

    def parent_name(self):
        return self.names[self._stack[-1][3]] if self._stack else ""

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        on_call = _ON_CALL.get((layer, name))
        on_result = _ON_RESULT.get((layer, name))
        on_yield = _ON_YIELD.get((layer, name))
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def iterate(it, state):
                while True:
                    tracer._open(name_id, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    if on_yield:
                        on_yield(tracer, state)
                    yield item

            def wrapper(*args, **kwargs):
                if on_call:
                    on_call(tracer, args, kwargs)
                return iterate(fn(*args, **kwargs), {"yields": 0})
        else:
            def wrapper(*args, **kwargs):
                if on_call:
                    on_call(tracer, args, kwargs)
                tracer._open(name_id, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close()
                if on_result:
                    on_result(tracer, args, kwargs, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layers of the imported patternforge package in place."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        replacement = {}
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    replacement[id(obj)] = (obj, self._wrap(layer, name, obj))
        ordinals = sys.modules[f"{PACKAGE}.ordinals"]
        for name, key in (("compare", "ordinals.compare_calls"),
                          ("parse_term", "ordinals.parse_calls")):
            obj = getattr(ordinals, name)
            replacement[id(obj)] = (obj, self._counted(key, obj))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        term = ordinals.OrdinalTerm
        init = term.__init__
        self._patches.append((term, "__init__", init))
        term.__init__ = self._counted("ordinals.terms_built", init)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {f"{layer}.self_s": (self.self_ns[layer] / 1e9, "s") for layer in SPAN_LAYERS}
        for key in (
            "hierarchy.games.k1", "hierarchy.games.k2", "hierarchy.rounds",
            "hierarchy.pruned_game", "hierarchy.pruned_structural",
            "embedding.searches", "embedding.yields",
            "patterns.iso_checks", "patterns.validations",
            "cores.closed_subsets", "cores.classes", "cores.isominimal_calls",
            "cores.covers_enumerated",
            "covering.coverings", "covering.extensions", "covering.maps_generated",
            "rules.instances", "io.bytes_written", "io.bytes_read", "cli.commands",
            "ordinals.compare_calls", "ordinals.terms_built", "ordinals.parse_calls",
        ):
            out[key] = (c[key], "count")
        out["hierarchy.game_pass_ratio.k1"] = (ratio("hierarchy.passes.k1", "hierarchy.games.k1"), "1")
        out["hierarchy.game_pass_ratio.k2"] = (ratio("hierarchy.passes.k2", "hierarchy.games.k2"), "1")
        out["embedding.found_ratio"] = (ratio("embedding.found", "embedding.searches"), "1")
        out["patterns.iso_hit_ratio"] = (ratio("patterns.iso_hits", "patterns.iso_checks"), "1")
        out["covering.extension_ratio"] = (ratio("covering.extended", "covering.extensions"), "1")
        return out

    def write_spans(self, path):
        """Write the finished spans as tab-separated lines, one per span."""
        rows = ["id\tparent\top\tname\tstart_ns\tend_ns"]
        for sid, parent, op, name_id, start, end in sorted(self.spans):
            rows.append(f"{sid}\t{parent}\t{op}\t{self.names[name_id]}\t{start}\t{end}")
        path.write_text("\n".join(rows) + "\n")


# -- counters read at the layer boundaries ---------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _game_pass(tracer, args, kwargs, passed):
    k = _arg(args, kwargs, 0, "k")
    tracer.counts[f"hierarchy.games.k{k}"] += 1
    tracer.counts[f"hierarchy.passes.k{k}"] += bool(passed)


def _build_hierarchy(tracer, args, kwargs, H):
    tracer.counts["hierarchy.rounds"] += len(H.build_log)
    for r in H.build_log:
        tracer.counts["hierarchy.pruned_game"] += r.game_le1 + r.game_le2
        tracer.counts["hierarchy.pruned_structural"] += r.structural_le1 + r.structural_le2


def _search_embeddings_yield(tracer, state):
    if state["yields"] == 0:
        tracer.counts["embedding.found"] += 1
    state["yields"] += 1
    tracer.counts["embedding.yields"] += 1


def _find_isomorphism(tracer, args, kwargs, mapping):
    tracer.counts["patterns.iso_checks"] += 1
    tracer.counts["patterns.iso_hits"] += mapping is not None


def _isominimal_call(tracer, args, kwargs):
    if tracer.parent_name() == "cores.compute_core":
        tracer.counts["cores.classes"] += 1


def _isominimal(tracer, args, kwargs, report):
    tracer.counts["cores.isominimal_calls"] += 1
    tracer.counts["cores.covers_enumerated"] += report.covers_enumerated


def _extend_covering(tracer, args, kwargs, cov):
    tracer.counts["covering.extensions"] += 1
    tracer.counts["covering.extended"] += cov is not None


def _count(key, amount=lambda *a: 1):
    def hook(tracer, *rest):
        tracer.counts[key] += amount(*rest)
    return hook


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _input_bytes(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "text").encode())


_ON_CALL = {
    ("embedding", "search_embeddings"): _count("embedding.searches"),
    ("cores", "isominimal"): _isominimal_call,
    ("cli", "main"): _count("cli.commands"),
}
_ON_RESULT = {
    ("hierarchy", "game_pass"): _game_pass,
    ("hierarchy", "build_hierarchy"): _build_hierarchy,
    ("patterns", "find_isomorphism"): _find_isomorphism,
    ("patterns", "validate_structure"): _count("patterns.validations"),
    ("cores", "closed_subsets"): _count("cores.closed_subsets", lambda a, k, r: len(r)),
    ("cores", "isominimal"): _isominimal,
    ("covering", "extend_covering"): _extend_covering,
    ("rules", "make_arith_ext"): _count("rules.instances"),
    ("rules", "make_generic"): _count("rules.instances"),
    ("rules", "make_reflect1_down"): _count("rules.instances"),
    ("io", "render"): _count("io.bytes_written", _text_bytes),
    ("io", "dumps_carrier"): _count("io.bytes_written", _text_bytes),
    ("io", "parse_payload"): _count("io.bytes_read", _input_bytes),
    ("io", "loads_carrier"): _count("io.bytes_read", _input_bytes),
}
_ON_YIELD = {
    ("embedding", "search_embeddings"): _search_embeddings_yield,
    ("covering", "search_coverings"): _count("covering.coverings"),
    ("covering", "regressive_maps"): _count("covering.maps_generated"),
}
