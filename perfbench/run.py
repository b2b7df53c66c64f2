"""patternforge benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload build-dense --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
workload's inputs are generated from ``--seed`` and only those inputs are
handed to patternforge.  One client calls the library in a closed loop: the
next operation starts when the previous one returns.  A round is one pass
over the workload's operations; rounds repeat until the operations have run
for ``--seconds`` in total, so every run ends on a whole round.

``--trace 0`` reports the end-to-end metrics.  Set-up (import, input
generation, host hierarchies) runs at least SETUPS[0] times, more while the
set-ups have taken less than SETUP_SECONDS, and its median is ``setup_s``;
the last set-up's inputs are measured.  Every time is scaled to a reference
speed of the host (see HostSpeed): a shared host's speed drifts by up to 1.8x
within seconds, and the unscaled figures, printed on the report line, spread
by a quarter of their median from run to run.  ``ops_per_s`` is the number of
operations run over their summed latency; the latency percentiles take one
sample per distinct operation, the median latency of its runs.  ``--trace 1``
runs one round untraced and one round traced, each after its own set-up,
reports the per-layer metrics of the traced set-up and round plus
``trace.overhead_s`` (traced minus untraced wall time), and writes every span
to ``perfbench/_work/``.  It does a fixed amount of work, so its counts repeat
exactly for a seed, and ignores ``--seconds``.

Every output is checked outside the timed section: its digest must match the
other outputs of the same inputs, the workload's invariants must hold, and at
the default seed the digests must equal ``reference.json``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from importlib import import_module
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DEFAULT_SEED = 1
SETUPS = (3, 15)  # fewest and most set-ups in a run ...
SETUP_SECONDS = 2.0  # ... which sets up until this much set-up time has passed
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
KERNEL_REPS = 20  # reference kernel: sorting and grouping passes ...
KERNEL_HEAP = 60_000  # ... and reads of this many one-float tuples (about 4 MiB) ...
KERNEL_READS = 800  # ... at random places; about 2 ms in all on a 2-vCPU Xeon guest
REFERENCE_KERNEL_S = 0.0025  # the kernel's time at the reference speed
TICK_S = 0.02  # interval of the kernel ticks inside a measured call

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_library():
    """Import patternforge from this checkout's src/, dropping any earlier
    import so that each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "patternforge" or n.startswith("patternforge.")]:
        del sys.modules[name]
    pf = import_module("patternforge")
    import_module("patternforge.cli")
    if Path(pf.__file__).resolve().parent != ROOT / "src" / "patternforge":
        raise SystemExit(f"imported patternforge from {pf.__file__}, not from this checkout")
    return pf


def setup(workload, seed, workdir, reimport=True):
    t0 = time.perf_counter()
    pf = import_library() if reimport else sys.modules["patternforge"]
    state = workload.prepare(pf, seed, workdir)
    return state, time.perf_counter() - t0


def run_round(workload, state, tracer=None, speed=None):
    """One round; returns [(key, latency_s, output or exception, speed factor)].
    With a HostSpeed the latency leaves out the kernel ticks inside the
    operation and the factor is HostSpeed.measure's; without one it is 1."""
    results = []
    for number, op in enumerate(workload.round(state), start=1):
        if tracer is not None:
            tracer.op = number
        if speed is None:
            t0 = time.perf_counter()
            out = call(op.fn)
            latency, factor = time.perf_counter() - t0, 1.0
        else:
            out, latency, factor = speed.measure(lambda: call(op.fn))
        results.append((op.key, latency, out, factor))
    return results


def call(fn):
    try:
        return fn()
    except Exception as e:  # a failing operation is counted, not fatal
        return e


def reference_heap():
    """The objects the reference kernel reads and the order it reads them in,
    fixed and independent of the workload seed."""
    rng = random.Random(0)
    heap = [(rng.random(),) for _ in range(KERNEL_HEAP)]
    return heap, [rng.randrange(KERNEL_HEAP) for _ in range(KERNEL_READS)]


def reference_kernel(heap, order):
    """Fixed pure-Python work of the kind the library does (tuples, sorting
    with a Python key function, dicts of sets, reads scattered over a heap
    larger than a core's cache), written with the standard library only, so
    no change to patternforge can change its cost.  Without the scattered
    reads the kernel slows less than the library when the host slows: on
    rule-probe a latency grew as the kernel's time to the power 1.13, with
    them as its time to the power 0.95 to 1.04 on every workload."""
    acc = 0
    for r in range(KERNEL_REPS):
        items = [(i * 7919 % 211, i % 13, r) for i in range(120)]
        items.sort(key=_middle)
        groups = {}
        for a, b, _ in items:
            groups.setdefault(b, set()).add(a)
        acc += sum(len(s) for s in groups.values())
    for i in order:
        acc += heap[i][0]
    return acc


def _middle(item):
    return item[1], item[0]


class HostSpeed:
    """How fast this host runs Python right now, against the reference speed.

    A shared host's speed drifts by up to 1.8x over seconds to minutes and
    switches within tens of milliseconds; a fixed loop's time on it spreads by
    a quarter of its median within half a minute.  The reference kernel is
    timed after every measured call and, from a SIGALRM timer, every TICK_S
    inside it; every latency leaves out those ticks and is scaled by
    REFERENCE_KERNEL_S over the kernel's mean time during and around it, so a
    time reads as it would at the speed where the kernel takes
    REFERENCE_KERNEL_S.  The program's own speed still moves the scaled time
    one for one: the kernel does not run any of its code.  The timer runs the
    kernel on the main thread, between the program's bytecodes."""

    def __enter__(self):
        self.busy = False
        self.ticks = []  # (start, end, kernel seconds) of the ticks in a call
        self.heap, self.order = reference_heap()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.last = self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def sample(self):
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()  # the kernel makes no cycles; keep the library's heap out of its time
        try:
            t0 = time.perf_counter()
            reference_kernel(self.heap, self.order)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self.busy = False

    def _tick(self, signum, frame):
        if not self.busy:
            start = time.perf_counter()
            kernel = self.sample()
            self.ticks.append((start, time.perf_counter(), kernel))

    def measure(self, fn):
        """Run fn with the kernel ticking inside it; returns (fn's result,
        seconds in fn outside the ticks, speed factor)."""
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
        inside = [(start, end, k) for start, end, k in self.ticks if t0 <= start and end <= t1]
        before, self.last = self.last, self.sample()
        kernel = [before, *(k for _, _, k in inside), self.last]
        factor = REFERENCE_KERNEL_S * len(kernel) / sum(kernel)
        return out, t1 - t0 - sum(end - start for start, end, _ in inside), factor


class RunLog:
    """Latencies of every operation run and the checks on their outputs.

    ``add`` digests a round's outputs after the round, outside the timed
    section, and keeps only the first output of each key, so memory does not
    grow with the number of rounds."""

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.latencies = []  # (key, seconds, speed factor) per operation run
        self.first, self.digests, self.reasons = {}, {}, {}

    @property
    def timed(self):
        return sum(lat for _, lat, _ in self.latencies)

    def add(self, results):
        for key, lat, out, factor in results:
            self.latencies.append((key, lat, factor))
            if key in self.reasons:
                continue
            if isinstance(out, Exception):
                self.reasons[key] = f"raised {type(out).__name__}: {out}"
                continue
            try:
                d = self.workload.digest(self.state, key, out)
            except Exception as e:  # an output that cannot be serialized is wrong
                self.reasons[key] = f"digest raised {type(e).__name__}: {e}"
                continue
            if key not in self.digests:
                self.first[key], self.digests[key] = out, d
            elif self.digests[key] != d:
                self.reasons[key] = "output differs between repetitions"

    def verify(self, seed):
        """Run the workload's checks and, at the default seed, compare the
        digests with reference.json; returns the number of failed runs."""
        if seed == DEFAULT_SEED:
            reference = json.loads((HERE / "reference.json").read_text())[self.workload.name]
            for key, d in self.digests.items():
                if reference.get(key) != d:
                    self.reasons.setdefault(key, "digest differs from reference.json")
        for key, reason in self.workload.check(self.state, self.first).items():
            self.reasons.setdefault(key, reason)
        return sum(1 for key, _, _ in self.latencies if key in self.reasons)


def latency_samples(latencies, scaled=True):
    """One latency per distinct operation (same key, same inputs), sorted:
    the median over its runs, scaled to the reference speed unless ``scaled``
    is false.  Runs of one operation differ only by the host's noise and by
    which of them a garbage collection interrupts; the median keeps those out
    of the percentiles, while ``ops_per_s`` still sums every run.  Counting
    each operation once also keeps the tail from resting on the few slowest
    operations repeated once per round."""
    per_key = {}
    for key, raw, factor in latencies:
        per_key.setdefault(key, []).append(raw * factor if scaled else raw)
    return sorted(statistics.median(v) for v in per_key.values())


def tail(samples):
    """(latency, percentile) at the highest percentile of the sorted samples
    with TAIL_BEYOND samples beyond it, or the maximum when there are fewer."""
    rank = len(samples) - TAIL_BEYOND - 1
    if rank < 0:
        rank = len(samples) - 1
    return samples[rank], 100.0 * (rank + 1) / len(samples)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance():
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            sha = ref
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count()}


def freeze_heap():
    """Collect, then move every live object (library modules, the inputs, the
    outputs the log keeps) out of the collector's reach.  A full collection
    during an operation then scans only what operations allocated; otherwise
    the one full collection in each round scans the whole harness, lands on
    the same operation in every round and becomes that operation's latency."""
    gc.collect()
    gc.freeze()


def measure(workload, seed, seconds, workdir):
    setups, raw_setups = [], []
    with HostSpeed() as speed:
        while len(setups) < SETUPS[0] or (sum(raw_setups) < SETUP_SECONDS and len(setups) < SETUPS[1]):
            gc.collect()
            (state, _), elapsed, factor = speed.measure(lambda: setup(workload, seed, workdir))
            raw_setups.append(elapsed)
            setups.append(elapsed * factor)
        log, rounds = RunLog(workload, state), 0
        while log.timed < seconds:
            freeze_heap()
            log.add(run_round(workload, state, speed=speed))
            rounds += 1
    failed = log.verify(seed)
    attempted = len(log.latencies)
    samples = latency_samples(log.latencies)
    raw = latency_samples(log.latencies, scaled=False)
    tail_s, tail_pct = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / sum(lat * factor for _, lat, factor in log.latencies), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    notes = {
        "sizes": workload.sizes(state),
        "rounds": rounds,
        "samples": len(samples),
        "op_tail_percentile": tail_pct,
        "fail_ratio": failed / attempted,
        "setup_runs_s": setups,
        "unscaled": {"setup_s": statistics.median(raw_setups),
                     "ops_per_s": attempted / log.timed,
                     "op_p50_ms": statistics.median(raw) * 1e3,
                     "op_tail_ms": tail(raw)[0] * 1e3},
        "speed_factor_p50": statistics.median(f for _, _, f in log.latencies),
    }
    return metrics, attempted, failed, log.reasons, notes


def traced_round(workload, seed, workdir):
    """Set-up and one round with the tracer installed on the imported library;
    returns (tracer, state, results, wall seconds)."""
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        state, _ = setup(workload, seed, workdir, reimport=False)
        results = run_round(workload, state, tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, state, results, wall


def measure_traced(workload, seed, workdir):
    import_library()
    t0 = time.perf_counter()
    state, _ = setup(workload, seed, workdir, reimport=False)
    run_round(workload, state)
    untraced = time.perf_counter() - t0
    del state
    gc.collect()
    tracer, state, results, traced = traced_round(workload, seed, workdir)
    log = RunLog(workload, state)
    log.add(results)
    failed = log.verify(seed)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    spans = WORK / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write_spans(spans)
    notes = {"sizes": workload.sizes(state), "spans": len(tracer.spans),
             "spans_file": str(spans.relative_to(ROOT)), "untraced_s": untraced,
             "traced_s": traced}
    return metrics, len(results), failed, log.reasons, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "patternforge" / "__init__.py").is_file():
        print(f"no patternforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, attempted, failed, reasons, notes = measure_traced(workload, args.seed, workdir)
        else:
            metrics, attempted, failed, reasons, notes = measure(
                workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": workload.name, "seed": args.seed, "why": workload.why,
                      **provenance(), **notes}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    for key, reason in sorted(reasons.items()):
        print(f"  FAILED {key}: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
