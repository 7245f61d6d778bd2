"""Fresh-interpreter side of the benchmark.

``run.py`` starts this file once per set-up sample and once more for the
measured run of a library workload, so that import time, warm-up and
peak RSS belong to the program rather than to the harness.  Layer
probes and import timing also run here, in their own interpreters.

Usage (internal)::

    python3 perfbench/child.py '<json config>'

The child prints JSON lines: ``{"event": "ready", ...}`` once the
program is imported and warmed up, then, unless the config says
``"mode": "setup"``, one ``{"event": "done", ...}`` line.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

#: iterations of the drift probe (a few milliseconds of pure Python)
PROBE_ITERS = 50_000


def drift_probe() -> float:
    """Seconds for a fixed piece of pure-Python work.

    On a small shared machine the speed of each CPU can drift by a
    third over tens of seconds, and the program's times drift with it.
    Timed between operations in the same interpreter, the probe runs on
    the CPU the operations ran on, so the two can be compared.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i
    return time.perf_counter() - t0


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Spans:
    """Spans recorded by the benchmark around calls into each layer."""

    def __init__(self) -> None:
        self.records: dict[str, list[float]] = {}

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.records.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.records.items()}


# -- fold-square --------------------------------------------------------------


def fold_start(cfg):
    from repro import bpmax
    from workloads import fold_pairs

    t0 = time.perf_counter()
    bpmax("GCGCUUCGGA", "CGAAGCGCUU")  # warm-up: same path, tiny pair
    return {"bpmax": bpmax, "pairs": fold_pairs(cfg["seed"], cfg["n"])}, (
        time.perf_counter() - t0
    )


def fold_op(state):
    a, b = next(state["pairs"])
    t0 = time.perf_counter()
    score = state["bpmax"](a, b).score
    return time.perf_counter() - t0, {"seq1": a, "seq2": b, "score": score}


def fold_sentinels(state, cases):
    return [state["bpmax"](c["seq1"], c["seq2"]).score for c in cases]


# -- scan-srna ----------------------------------------------------------------


def scan_start(cfg):
    from repro import BatchScheduler
    from repro.core.windowed import scan_windows_served
    from workloads import scan_query, scan_targets

    sched = BatchScheduler()
    targets = scan_targets(cfg["seed"], cfg["exon"])
    query = scan_query(cfg["seed"], cfg["query"])
    state = {"sched": sched, "scan": scan_windows_served, "targets": targets,
             "query": query}
    t0 = time.perf_counter()
    # warm-up: the first isoform, so every timed scan meets its shared exon
    scan_windows_served(query, next(targets), scheduler=sched)
    return state, time.perf_counter() - t0


def scan_op(state):
    target = next(state["targets"])
    t0 = time.perf_counter()
    res = state["scan"](state["query"], target, scheduler=state["sched"])
    dt = time.perf_counter() - t0
    return dt / len(res.hits), {
        "query": state["query"],
        "target": target,
        "window": res.window,
        "windows": [[h.start, h.score, h.cached] for h in res.hits],
    }


def scan_sentinels(state, cases):
    # one window spanning the whole (reversed) second strand: its score is
    # the pinned pair score, computed through the scan path
    out = []
    for c in cases:
        res = state["scan"](c["seq1"], c["seq2"][::-1], window=len(c["seq2"]),
                            stride=1, scheduler=state["sched"])
        out.append(res.hits[0].score)
    return out


LIBRARY = {
    "fold-square": (fold_start, fold_op, fold_sentinels),
    "scan-srna": (scan_start, scan_op, scan_sentinels),
}


def sched_counters(state) -> dict:
    sched = state.get("sched")
    if sched is None:
        return {}
    s = sched.stats
    return {"batches": s.batches, "batched_requests": s.batched_requests,
            "coalesced": s.coalesced}


def loop(op, state, seconds: float):
    """Run ``op`` for ``seconds``; wall time excludes the drift probes."""
    samples, answers, probes = [], [], []
    end = time.perf_counter() + seconds
    wall = 0.0
    while True:
        t0 = time.perf_counter()
        dt, answer = op(state)
        wall += time.perf_counter() - t0
        samples.append(dt)
        answers.append(answer)
        probes.append(drift_probe())
        if time.perf_counter() >= end:
            break
    return samples, answers, probes, wall


def run_library(cfg) -> None:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    start, op, sentinels = LIBRARY[cfg["workload"]]
    state, warmup_s = start(cfg)
    emit({"event": "ready", "import_s": import_s, "warmup_s": warmup_s})
    if cfg["mode"] == "setup":
        return
    before = sched_counters(state)
    if cfg["mode"] == "trace":
        # untraced and traced halves of the same loop, for the overhead
        half = cfg["seconds"] / 2
        samples, answers, probes, wall = loop(op, state, half)
        with repro.tracing(capacity=1 << 14):
            t_samples, t_answers, t_probes, t_wall = loop(op, state, half)
        answers += t_answers
        probes += t_probes
        wall += t_wall
    else:
        samples, answers, probes, wall = loop(op, state, cfg["seconds"])
        t_samples = []
    after = sched_counters(state)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sentinel_scores = sentinels(state, cfg["sentinels"])
    if "sched" in state:
        state["sched"].close()
    emit({
        "event": "done",
        "samples": samples,
        "traced_samples": t_samples,
        "answers": answers,
        "wall_s": wall,
        "probes": probes,
        "rss_kb": rss_kb,
        "sentinels": sentinel_scores,
        "sched_delta": {k: after[k] - before[k] for k in after},
    })


# -- layer probes ---------------------------------------------------------------


def run_import(cfg) -> None:
    """Time a fresh ``import repro``; run under ``-X importtime``."""
    t0 = time.perf_counter()
    import repro  # noqa: F401

    emit({"event": "done", "import_s": time.perf_counter() - t0})


def _repeat(fn, min_s: float, min_reps: int = 3) -> float:
    """Median seconds per call over at least ``min_s`` of calls."""
    times = []
    t_end = time.perf_counter() + min_s
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probe(cfg) -> None:
    """Per-layer numbers on the workload's largest shape."""
    import numpy as np

    from repro import DEFAULT_BACKEND, bpmax, get_backend, get_tile_shape
    from repro.core.engine import make_engine
    from repro.core.reference import prepare_inputs
    from repro.core.traceback import traceback
    from repro.observe.report import FLOPS_PER_OP
    from repro.machine.counters import k1 as count_k1
    from repro.semiring.microbench import StreamBenchmark

    seq1, seq2 = cfg["seq1"], cfg["seq2"]
    n, m = len(seq1), len(seq2)
    budget = cfg["budget_s"]
    out: dict[str, float] = {}

    bpmax(seq1, seq2)  # warm-up
    spans = Spans()
    t_end = time.perf_counter() + budget
    while len(spans.records.get("core.traceback_s", ())) < 3 or \
            time.perf_counter() < t_end:
        inputs = spans.timed("core.prepare_s", prepare_inputs, seq1, seq2)
        engine = spans.timed("core.engine_build_s", make_engine, inputs)
        spans.timed("core.engine_run_s", engine.run)
        spans.timed("core.traceback_s", traceback, inputs, engine.table)
    out.update(spans.medians())

    report = bpmax(seq1, seq2, metrics=True).report
    c = report.counters
    for key in ("ops_r0", "ops_r1", "ops_r2", "ops_r3", "ops_r4", "cells",
                "bytes_moved", "ws_grow_events", "tile_idle_ns"):
        out[f"observe.{key}"] = c[key]
    out["observe.traffic_ratio"] = report.traffic_ratio()

    # R0 kernel on the largest window: all n-1 splits of an m-wide table
    k = max(1, n - 1)
    rng = np.random.default_rng(0)
    lower = np.tril(np.ones((m, m), dtype=bool), -1)
    astack = rng.random((k, m, m), dtype=np.float32) * 8
    bstack = rng.random((k, m, m), dtype=np.float32) * 8
    astack[:, lower] = -np.inf
    bstack[:, lower] = -np.inf
    acc = np.full((m, m), -np.inf, dtype=np.float32)
    tmp = np.empty((k, m, m), dtype=np.float32)
    red = np.empty((m, m), dtype=np.float32)
    kernel = get_backend(DEFAULT_BACKEND).batched_r0
    per_call = _repeat(
        lambda: kernel(astack, bstack, acc, tmp=tmp, red=red, triangular=True),
        budget / 4,
    )
    r0_gflops = FLOPS_PER_OP * k * count_k1(m) / per_call / 1e9
    stream = StreamBenchmark(chunk_size=8192, iterations=2000)
    stream_gflops = statistics.median(stream.run().gflops for _ in range(5))
    out["kernels.r0_gflops"] = r0_gflops
    out["semiring.stream_gflops"] = stream_gflops
    out["kernels.r0_roof_frac"] = r0_gflops / stream_gflops
    out["kernels.tile_shape"] = get_tile_shape(n, m)
    emit({"event": "done", "layers": out})


def run_rescore(cfg) -> None:
    """Score the ``(seq1, seq2, semiring)`` jobs in ``cfg["jobs_file"]`` on
    the independent ``numpy-batched`` path."""
    from repro import bpmax

    with open(cfg["jobs_file"]) as fh:
        jobs = json.load(fh)
    emit({"event": "done", "scores": [
        bpmax(s1, s2, semiring=sr, backend="numpy-batched").score
        for s1, s2, sr in jobs
    ]})


KINDS = {"library": run_library, "import": run_import, "probe": run_probe,
         "rescore": run_rescore}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    KINDS[cfg["kind"]](cfg)


if __name__ == "__main__":
    main()
