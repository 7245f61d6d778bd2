"""Seeded end-to-end and per-layer benchmark of the BPMax program.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fold-square --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``fold-square``   plain ``bpmax(a, b)`` calls, closed loop, one caller;
* ``scan-srna``     ``scan_windows_served`` (the ``bpmax scan`` path) of
                    one query over isoforms that share exons;
* ``serve-http``    ``bpmax serve --http`` at defaults, open loop.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Every answer is re-scored after timing on an
independent path, and golden-manifest cases ride along as sentinels;
any mismatch is a failed operation.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from serve_load import Gateway, open_loop  # noqa: E402

#: per workload: how it is driven, the percentile reported as tail_s
#: (fixed, so that it has at least 10 samples beyond it at the commit
#: that added the benchmark) and the serve rate, well below the tier's
#: capacity and a whole number of request blocks in 20 s
WORKLOADS = {
    "fold-square": {"kind": "library", "tail_pct": 70},
    "scan-srna": {"kind": "library", "tail_pct": 65},
    "serve-http": {"kind": "serve", "tail_pct": 87, "rate": 4.0},
}

#: fresh starts per run that set-up time is the median of
SETUP_STARTS = {"library": 3, "serve": 4}

#: golden-manifest cases sent through every workload as sentinels
SENTINELS = ("random-12x12", "copA-like", "random-12x20")

END_TO_END = {
    "setup_s": "s", "p50_s": "s", "tail_s": "s", "gops": "Gop/s",
    "ok_frac": "1", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s", "setup.import_polyhedral_s": "s",
    "setup.ready_s": "s", "setup.warmup_s": "s",
    "core.prepare_s": "s", "core.engine_build_s": "s",
    "core.engine_run_s": "s", "core.traceback_s": "s",
    "kernels.r0_gflops": "GFLOP/s", "semiring.stream_gflops": "GFLOP/s",
    "kernels.r0_roof_frac": "1", "kernels.tile_shape": "count",
    "observe.ops_r0": "count", "observe.ops_r1": "count",
    "observe.ops_r2": "count", "observe.ops_r3": "count",
    "observe.ops_r4": "count", "observe.cells": "count",
    "observe.bytes_moved": "B", "observe.traffic_ratio": "1",
    "observe.ws_grow_events": "count", "observe.tile_idle_ns": "ns",
    "serve.mean_batch_size": "count", "serve.batches": "count",
    "serve.coalesced": "count", "serve.cache_hit_ratio": "1",
    "serve.compute_s": "s", "serve.overhead_p50_s": "s",
    "serve.overhead_p90_s": "s", "serve.non200": "count",
    "bench.samples": "count", "bench.late_p90_s": "s",
    "bench.trace_overhead_frac": "1", "bench.drift_probe_s": "s",
    "bench.raw_p50_s": "s",
}

LOGSUMEXP_TOL = 1e-9

#: drift-probe time (``child.drift_probe``) that library times are scaled
#: to: a library time is reported as ``measured * PROBE_REF_S / probe``,
#: the seconds it would take on a machine where the probe takes 5 ms
PROBE_REF_S = 0.005

#: processes that re-score answers after timing (one per core of the
#: 2-core machine the benchmark was tuned on)
VERIFY_PROCS = 2


def pctl(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def logical_ops(n: int, m: int) -> int:
    """BPMax reduction ops (R0-R4) of one ``n x m`` pair, by closed form."""
    from repro.observe.report import predicted_op_counts

    c = predicted_op_counts(n, m)
    return sum(c[k] for k in ("r0", "r1", "r2", "r3", "r4"))


def read_json_line(proc: subprocess.Popen, timeout: float) -> dict:
    """Next JSON line from a child's stdout, or an error after ``timeout``."""
    import select

    end = time.monotonic() + timeout
    while True:
        left = end - time.monotonic()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise RuntimeError("child did not answer in time")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited early with {proc.wait()}")
        if line.startswith("{"):
            return json.loads(line)


class Bench:
    def __init__(self, args) -> None:
        self.args = args
        self.root = Path.cwd()
        self.src = self.root / "src"
        self.spec = WORKLOADS[args.workload]
        self.tmp = self.root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        self.env = dict(os.environ)

    # -- environment ----------------------------------------------------------

    def prepare(self) -> None:
        """Hermetic caches, compiled bytecode and the program on the path."""
        if not (self.src / "repro" / "__init__.py").is_file():
            raise SystemExit("perfbench: no src/repro here; run from a checkout root")
        shutil.rmtree(self.tmp, ignore_errors=True)
        (self.tmp / "codegen").mkdir(parents=True)
        self.env.update({
            "PYTHONPATH": str(self.src),
            "BPMAX_TUNE_CACHE": str(self.tmp / "autotune.json"),
            "BPMAX_CODEGEN_CACHE": str(self.tmp / "codegen"),
            "TMPDIR": str(self.tmp),
            "PYTHONHASHSEED": "0",
        })
        for key in ("BPMAX_TUNE_CACHE", "BPMAX_CODEGEN_CACHE", "TMPDIR"):
            os.environ[key] = self.env[key]
        compileall.compile_dir(str(self.src), quiet=1)
        compileall.compile_dir(str(BENCH), quiet=1)
        sys.path.insert(0, str(self.src))
        import repro

        if Path(repro.__file__).resolve().parents[1] != self.src.resolve():
            raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
        from repro.golden import load_manifest

        cases = load_manifest()["cases"]
        self.sentinels = [dict(cases[name], name=name) for name in SENTINELS]

    def child(self, cfg: dict, extra_args=()) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, *extra_args, str(BENCH / "child.py"), json.dumps(cfg)],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def reference_scores(self, jobs) -> dict:
        """Scores of ``(seq1, seq2, semiring)`` jobs on the independent
        ``numpy-batched`` path, split over parallel children after timing."""
        unique = list(dict.fromkeys(jobs))
        procs = []
        for k in range(VERIFY_PROCS):
            path = self.tmp / f"rescore-{k}.json"
            path.write_text(json.dumps(unique[k::VERIFY_PROCS]))
            procs.append(self.child({"kind": "rescore", "jobs_file": str(path)}))
        scores = {}
        try:
            for k, proc in enumerate(procs):
                out, _ = self.finish_child(proc, 170)
                got = json.loads(out.splitlines()[-1])["scores"]
                scores.update(zip(unique[k::VERIFY_PROCS], got))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        return scores

    def finish_child(self, proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
        """Wait for a child; returns the rest of its stdout and its stderr."""
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"child failed ({proc.returncode}): {err[-2000:]}")
        return out, err

    # -- library workloads ----------------------------------------------------

    def library(self) -> dict:
        a = self.args
        cfg = {"kind": "library", "workload": a.workload, "seed": a.seed,
               "seconds": a.seconds, "mode": "setup", "sentinels": self.sentinels,
               "n": 8 if a.tiny else W.FOLD_N,
               "query": 6 if a.tiny else W.SCAN_QUERY, "exon": 30 if a.tiny else W.SCAN_EXON}
        setup, warm = [], []
        starts = 2 if a.tiny else SETUP_STARTS["library"]
        for i in range(starts):
            cfg["mode"] = "setup" if i < starts - 1 else ("trace" if a.trace else "run")
            t0 = time.perf_counter()
            proc = self.child(cfg)
            try:
                ready = read_json_line(proc, 120)
                setup.append(time.perf_counter() - t0)
                warm.append(ready["warmup_s"])
                if cfg["mode"] == "setup":
                    self.finish_child(proc, 60)
                    continue
                done = read_json_line(proc, a.seconds + 120)
                self.finish_child(proc, 60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        return {"setup": setup, "warmup": warm, **done}

    def verify_library(self, run: dict) -> tuple[int, int, int, float]:
        """Re-score every answer; returns (attempted, ok, ops_done, hit_ratio)."""
        answers = run["answers"]
        if self.args.plant_wrong:
            plant(answers[0])
        if self.args.workload == "fold-square":
            scored = [(a["seq1"], a["seq2"], a["score"], False) for a in answers]
        else:
            scored = [
                (a["query"], a["target"][start:start + a["window"]][::-1], score, hit)
                for a in answers for start, score, hit in a["windows"]
            ]
        refs = self.reference_scores((q, t, "max-plus") for q, t, _, _ in scored)
        attempted = ok = ops_done = cached = 0
        for q, t, score, hit in scored:
            attempted += 1
            cached += bool(hit)
            if refs[q, t, "max-plus"] == score:
                ok += 1
                ops_done += logical_ops(len(q), len(t))
        hit_ratio = cached / attempted if attempted else 0.0
        for case, got in zip(self.sentinels, run["sentinels"]):
            attempted += 1
            ok += got == case["semirings"]["max-plus"]["value"]
        return attempted, ok, ops_done, hit_ratio

    # -- serve workload -------------------------------------------------------

    def serve(self) -> dict:
        """Start the gateway fresh several times; each start is one set-up
        sample and then serves its share of the open-loop schedule.

        A gateway's speed was found steady within a start and different
        between starts, so spreading the load over the starts averages
        that speed instead of drawing it once per run."""
        a = self.args
        warmups = W.serve_warmups(a.seed)
        rate = self.spec["rate"]
        starts = 2 if a.tiny else SETUP_STARTS["serve"]
        count = max(starts, int(rate * a.seconds))
        reqs = W.serve_requests(a.seed, count)
        if a.tiny:
            for r in reqs:
                r["seq1"], r["seq2"] = r["seq1"][:6], r["seq2"][:8]
        bounds = [len(reqs) * i // starts for i in range(starts + 1)]
        setup, ready, warm, records = [], [], [], []
        counters = {"batches": 0, "batched_requests": 0, "coalesced": 0}
        rss = wall = 0.0
        sentinel_answers = []
        for i in range(starts):
            gw = Gateway(self.env, warmups)
            try:
                setup.append(gw.setup_s)
                ready.append(gw.ready_s)
                warm.append(gw.warmup_s)
                before = gw.metrics()["scheduler"]
                part = open_loop(gw.url, reqs[bounds[i]:bounds[i + 1]], rate)
                after = gw.metrics()["scheduler"]
                for key in counters:
                    counters[key] += after[key] - before[key]
                records += part
                wall += max(r["done"] for r in part)
                rss = max(rss, gw.rss_mb())
                if i == starts - 1:
                    for case in self.sentinels:
                        for semiring in ("max-plus", "logsumexp"):
                            status, body = gw.conn.request("POST", "/v1/fold", {
                                "id": case["name"], "seq1": case["seq1"],
                                "seq2": case["seq2"], "semiring": semiring})
                            sentinel_answers.append((case, semiring, status, body))
            finally:
                gw.stop()
        return {"setup": setup, "ready": ready, "warmup": warm,
                "requests": reqs, "records": records, "wall_s": wall,
                "rss_mb": rss, "counters": counters,
                "sentinels": sentinel_answers}

    def verify_serve(self, run: dict) -> tuple[int, int, int]:
        attempted = ok = ops_done = 0
        records = run["records"]
        if self.args.plant_wrong:
            plant(records[0]["body"])
        refs = self.reference_scores((r["seq1"], r["seq2"], r.get("semiring", "max-plus"))
                                for r in run["requests"])
        for req, rec in zip(run["requests"], records):
            attempted += 1
            body = rec["body"]
            if rec["status"] != 200 or not body.get("ok"):
                continue
            semiring = req.get("semiring", "max-plus")
            ref = refs[req["seq1"], req["seq2"], semiring]
            if semiring == "max-plus":
                good = body["score"] == ref
            else:
                good = math.isclose(body["score"], ref, rel_tol=LOGSUMEXP_TOL,
                                    abs_tol=LOGSUMEXP_TOL)
            if req.get("structure") and not body.get("structure"):
                good = False
            if good:
                ok += 1
                ops_done += logical_ops(len(req["seq1"]), len(req["seq2"]))
        for case, semiring, status, body in run["sentinels"]:
            attempted += 1
            pin = case["semirings"][semiring]
            if status == 200 and body.get("ok"):
                got = body["score"]
                ok += got == pin["value"] if pin["exact"] else math.isclose(
                    got, pin["value"], rel_tol=pin["rtol"], abs_tol=pin["atol"])
        return attempted, ok, ops_done

    # -- per-layer ------------------------------------------------------------

    def probe_shape(self) -> tuple[str, str]:
        """A seeded pair of the workload's largest shape."""
        import random

        rng = random.Random(f"probe/{self.args.workload}/{self.args.seed}")
        if self.args.tiny:
            n, m = 6, 8
        elif self.args.workload == "fold-square":
            n, m = W.FOLD_N, W.FOLD_N
        elif self.args.workload == "scan-srna":
            n, m = W.SCAN_QUERY, W.SCAN_WINDOW
        else:
            n, m = max(W.SERVE_SHAPES)
        return W.random_seq(rng, n), W.random_seq(rng, m)

    def layers(self) -> dict:
        out: dict[str, float] = {}
        imports, poly = [], []
        for _ in range(3):
            proc = self.child({"kind": "import"}, ("-X", "importtime"))
            # -X importtime writes ~60 KB to stderr: read both pipes at once
            out_text, err = self.finish_child(proc, 120)
            imports.append(json.loads(out_text.splitlines()[-1])["import_s"])
            m = re.search(r"\|\s*(\d+) \| +repro\.polyhedral$", err, re.M)
            poly.append(int(m.group(1)) / 1e6 if m else 0.0)
        out["setup.import_s"] = statistics.median(imports)
        out["setup.import_polyhedral_s"] = statistics.median(poly)
        seq1, seq2 = self.probe_shape()
        proc = self.child({"kind": "probe", "seq1": seq1, "seq2": seq2,
                           "budget_s": 0.5 if self.args.tiny else 2.0})
        out.update(read_json_line(proc, 120)["layers"])
        self.finish_child(proc, 60)
        return out

    # -- the run --------------------------------------------------------------

    def run(self) -> dict:
        a = self.args
        if self.spec["kind"] == "library":
            run = self.library()
            raw = run["samples"] + run["traced_samples"]
            probes = run["probes"]
            samples = [t * PROBE_REF_S / p for t, p in zip(raw, probes)]
            speed = statistics.median(probes) / PROBE_REF_S
            attempted, ok, ops_done, hit_ratio = self.verify_library(run)
            rss = run["rss_kb"] / 1024
            traced, plain = run["traced_samples"], run["samples"]
            delta = run["sched_delta"]
            drift = {"bench.drift_probe_s": statistics.median(probes),
                     "bench.raw_p50_s": statistics.median(raw)}
            layer = {
                "serve.batches": delta.get("batches", 0),
                "serve.coalesced": delta.get("coalesced", 0),
                "serve.mean_batch_size": (delta["batched_requests"] / delta["batches"]
                                          if delta.get("batches") else 0.0),
                "serve.cache_hit_ratio": hit_ratio,
                "serve.compute_s": 0.0, "serve.overhead_p50_s": 0.0,
                "serve.overhead_p90_s": 0.0, "serve.non200": 0,
                "bench.late_p90_s": 0.0,
                "setup.ready_s": statistics.median(
                    s - w for s, w in zip(run["setup"], run["warmup"])),
            }
        else:
            run = self.serve()
            samples = [r["latency_s"] for r in run["records"]]
            speed = 1.0
            attempted, ok, ops_done = self.verify_serve(run)
            rss = run["rss_mb"]
            # nothing in the gateway can be traced from outside, so the
            # traced run sends the same load and its overhead reads 0
            traced, plain = [], samples
            layer = self.serve_layers(run)
            drift = {"bench.drift_probe_s": 0.0,
                     "bench.raw_p50_s": statistics.median(samples)}
        setup = run["setup"]
        tail_pct = self.spec["tail_pct"]
        beyond = sum(1 for s in samples if s > pctl(samples, tail_pct))
        print(f"{a.workload}: {len(samples)} samples, tail_s = p{tail_pct} "
              f"({beyond} beyond), setup_s = median of {len(setup)} fresh starts",
              flush=True)
        result = {"correct": ok == attempted, "attempted": attempted,
                  "failed": attempted - ok}
        if not a.trace:
            values = {
                "setup_s": statistics.median(setup),
                "p50_s": statistics.median(samples),
                "tail_s": pctl(samples, tail_pct),
                "gops": ops_done / run["wall_s"] / 1e9 * speed,
                "ok_frac": ok / attempted,
                "peak_rss_mb": rss,
            }
            units = END_TO_END
        else:
            values = {**layer, **drift, **self.layers()}
            values["setup.warmup_s"] = statistics.median(run["warmup"])
            values["bench.samples"] = len(samples)
            values["bench.trace_overhead_frac"] = (
                statistics.median(traced) / statistics.median(plain) - 1
                if traced and plain else 0.0)
            units = PER_LAYER
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in units.items()}
        return result

    def serve_layers(self, run: dict) -> dict:
        c = run["counters"]
        answered = [(req, rec) for req, rec in zip(run["requests"], run["records"])
                    if rec["status"] == 200]
        compute = [rec["body"]["wall_s"] for _, rec in answered]
        overhead = [rec["latency_s"] - rec["body"]["wall_s"] for _, rec in answered]
        cached = sum(1 for _, rec in answered if rec["body"].get("cached"))
        late = [rec["late_s"] for rec in run["records"]]
        return {
            "serve.batches": c["batches"],
            "serve.coalesced": c["coalesced"],
            "serve.mean_batch_size": (c["batched_requests"] / c["batches"]
                                      if c["batches"] else 0.0),
            "serve.cache_hit_ratio": cached / len(answered) if answered else 0.0,
            "serve.compute_s": statistics.median(compute) if compute else 0.0,
            "serve.overhead_p50_s": pctl(overhead, 50) if overhead else 0.0,
            "serve.overhead_p90_s": pctl(overhead, 90) if overhead else 0.0,
            "serve.non200": sum(1 for r in run["records"] if r["status"] != 200),
            "bench.late_p90_s": pctl(late, 90),
            "setup.ready_s": statistics.median(run["ready"]),
        }


def plant(answer: dict) -> None:
    """Make one answer wrong (self-test of the correctness check)."""
    if "windows" in answer:
        answer["windows"][0][1] += 1.0
    else:
        answer["score"] += 1.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (perfbench/selftest.py)")
    p.add_argument("--plant-wrong", action="store_true",
                   help="corrupt one answer before verification (self-test)")
    args = p.parse_args(argv)
    bench = Bench(args)
    try:
        bench.prepare()
        result = bench.run()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        try:
            bench.tmp.parent.rmdir()
        except OSError:  # missing, or another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
