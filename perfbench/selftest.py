"""Self-test of the benchmark at tiny sizes.

For every workload in ``BENCHMARK.json`` it checks that an untraced run
prints every end-to-end metric and a traced run every per-layer metric,
each with its unit, and that a planted wrong score lowers ``ok_frac``
and clears ``correct``.  Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list[dict], where: str) -> None:
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        raise AssertionError(f"{where}: metrics differ: missing "
                             f"{sorted(names - set(got))}, extra {sorted(set(got) - names)}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{where}: {m['name']} has unit "
                                 f"{got[m['name']]['unit']!r}, not {m['unit']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, "--trace", "0")
        check_metrics(plain, spec["end_to_end"], f"{name} --trace 0")
        if not plain["correct"] or plain["metrics"]["ok_frac"]["value"] != 1.0:
            raise AssertionError(f"{name}: clean run not correct: {plain}")
        check_metrics(run(name, "--trace", "1"), spec["per_layer"],
                      f"{name} --trace 1")
        bad = run(name, "--trace", "0", "--plant-wrong")
        if bad["correct"] or bad["metrics"]["ok_frac"]["value"] >= 1.0:
            raise AssertionError(f"{name}: planted wrong score went unnoticed")
        print(f"{name}: ok ({plain['attempted']} attempted)", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
