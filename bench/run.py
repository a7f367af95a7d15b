"""Benchmark for qsemicat: one seeded workload per run, single process, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload morita --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced replay.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds diagnostics (output digest, tail
percentile, per-rung medians, raw unscaled times, the speed gauge's
quartiles, interpreter and CPU count).  Times are scaled to a reference
machine speed; see ``speed.py``.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work", str(os.getpid()))

SETUP_REPEATS = 3

perf = time.perf_counter


def load_library():
    """Import qsemicat afresh from ``src/`` and return its modules by layer name."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "qsemicat" or m.startswith("qsemicat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qsemicat")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qsemicat was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"qsemicat.{layer}") for layer in workloads.LAYERS}
    )


def setup(cls, seed, null, gauge):
    """Import, input generation and warm-up, up to the first timed op."""
    with gauge.window() as w:
        lib = load_library()
        wl = cls(lib, seed, tempfile.mkdtemp(dir=WORK))
        for inp in wl.warmup_inputs(wl.make_pass()):
            call(wl, inp, null)
    return w, wl


def call(wl, inp, tr):
    """One op; returns its latency and output, the output None if the op raised."""
    t0 = perf()
    try:
        out = wl.op(inp, tr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return perf() - t0, out


def passes_check(wl, inp, out):
    if out is None:
        return False
    try:
        return wl.check(inp, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


class Loop:
    """Whole passes, one caller, until the summed raw op time reaches ``seconds``.

    ``latencies`` holds op times scaled to the gauge's reference speed.
    """

    def __init__(self, wl, seconds, gauge):
        self.wl = wl
        self.gauge = gauge
        self.seconds = seconds
        self.latencies = []
        self.raw = []
        self.inputs = []
        self.failed = 0
        self.passes = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def run(self, null):
        busy = 0.0
        while self.passes == 0 or busy < self.seconds:
            for inp in self.wl.next_pass():
                with self.gauge.window() as w:
                    _, out = call(self.wl, inp, null)
                busy += w.raw
                self.latencies.append(w.scaled)
                self.raw.append(w.raw)
                self.inputs.append(inp)
                self.failed += not passes_check(self.wl, inp, out)
                if self.passes == 0:
                    line = self.wl.record(inp, out) if out is not None else "error"
                    self.digest.update(line.encode() + b"\n")
                    self.digest_ops += 1
            self.passes += 1
        return busy


def tail(latencies, pct):
    """Latency at percentile ``pct`` (linear interpolation) and the samples beyond it.

    The percentile is fixed per workload so that it falls on the same rank
    of a pass's recipe however many passes a run makes.
    """
    ordered = sorted(latencies)
    pos = pct / 100 * (len(ordered) - 1)
    i = int(pos)
    j = min(i + 1, len(ordered) - 1)
    return ordered[i] + (ordered[j] - ordered[i]) * (pos - i), len(ordered) - 1 - j


def end_to_end(args, cls, null, gauge):
    setups = []
    for _ in range(SETUP_REPEATS):
        w, wl = setup(cls, args.seed, null, gauge)
        setups.append(w)
    loop = Loop(wl, args.seconds, gauge)
    busy = loop.run(null)
    lat = loop.latencies
    tail_s, beyond = tail(lat, cls.tail_pct)
    by_label = {}
    for latency, inp in zip(lat, loop.inputs):
        by_label.setdefault(inp["label"], []).append(latency)
    rungs = {f"ladder.{k}.op_p50_ms": statistics.median(v) * 1e3 for k, v in sorted(by_label.items())}
    metrics = {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(w.scaled for w in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    diag = {
        "op_tail_percentile": cls.tail_pct,
        "op_tail_samples": len(lat),
        "op_tail_beyond": beyond,
        "passes": loop.passes,
        "busy_s": busy,
        "raw_ops_per_s": len(lat) / busy,
        "raw_op_p50_ms": statistics.median(loop.raw) * 1e3,
        "raw_setup_runs_s": [w.raw for w in setups],
        "rung_op_p50_ms": rungs,
    }
    return loop, metrics, diag


def traced(args, cls, null, gauge):
    """Untraced ops for half the time, then the same inputs again with spans.

    The traced replay runs without the gauge, so its spans hold library work only.
    """
    _, wl = setup(cls, args.seed, null, gauge)
    loop = Loop(wl, args.seconds / 2, gauge)
    untraced = loop.run(null)
    tr = spans.Tracer()
    wall = 0.0
    failed = 0
    nesting = True
    sums = True
    with spans.Patched(wl.lib, tr, wl.patch_targets()) as patched:
        for inp in loop.inputs:
            first = len(tr.spans)
            with tr.span("op", "bench") as root:
                _, out = call(wl, inp, tr)
            wall += root.duration
            tr.flush()
            failed += not passes_check(wl, inp, out)
            own = tr.spans[first:]
            nesting = nesting and spans.nesting_ok(own)
            sums = sums and abs(sum(s.self_time for s in own) - root.duration) <= 1e-9 * len(own)
    n = len(loop.inputs)
    metrics = workloads.per_layer_values(tr.spans, tr.counts, n, wall - untraced)
    loop.failed += failed
    diag = {
        "traced_ops": n,
        "untraced_s": untraced,
        "traced_s": wall,
        "spans": len(tr.spans),
        "spans_nested": nesting,
        "self_times_sum_to_wall": sums,
        "unwrapped": patched.missing,
    }
    return loop, metrics, diag, nesting and sums


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsemicat", "__init__.py")):
        sys.stderr.write(f"bench: no qsemicat sources under {SRC}\n")
        return 2
    cls = workloads.WORKLOADS[args.workload]
    null = spans.NullTracer()
    os.makedirs(WORK, exist_ok=True)
    gauge = speed.Gauge()
    try:
        if args.trace:
            loop, metrics, diag, trace_ok = traced(args, cls, null, gauge)
            attempted = 2 * len(loop.inputs)
        else:
            loop, metrics, diag = end_to_end(args, cls, null, gauge)
            trace_ok = True
            attempted = len(loop.inputs)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))
    diag.update(loop.wl.diagnostics())
    diag["gauge_ms_quartiles"] = [q * 1e3 for q in statistics.quantiles(gauge.samples, n=4)]
    diag["gauge_samples"] = len(gauge.samples)
    diag.update(
        workload=args.workload,
        seed=args.seed,
        digest=loop.digest.hexdigest(),
        digest_ops=loop.digest_ops,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(diag, sort_keys=True))
    result = {
        "correct": loop.failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
