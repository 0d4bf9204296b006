"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Run from the root of a checkout:

    python3 bench/smoke.py

It checks that each run is correct and prints, on its last line, every metric
BENCHMARK.json names for that mode with the unit it gives, and that a traced
run puts back the sectorpack functions it wrapped.  Exit status 0 means pass.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def printed_result(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--sizes", "tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload['name']} --trace {trace}"
            result = printed_result(workload["name"], trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if printed != wanted:
                problems.append(f"{where}: printed {printed}, BENCHMARK.json has {wanted}")

    sp = run.load()
    targets = [(sp.verify, "_screen"), (sp.verify, "verify_packing"),
               (sp.packing.PackingFamily, "rank")]
    originals = [getattr(owner, attr) for owner, attr in targets]
    run.run("families", seed=7, seconds=0, trace=True, sizes_name="tiny")
    for (owner, attr), original in zip(targets, originals):
        if getattr(owner, attr) is not original:
            problems.append(f"a traced run left {owner.__name__}.{attr} wrapped")

    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
