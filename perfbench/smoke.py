#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (--tiny, 1 s),
untraced and traced, and asserts that each run exits 0 with
"correct": true, that its correctness checks ran, that the untraced
result names every end-to-end metric and the traced one every
per-layer metric, with the declared units. Run from the repo root;
takes a few minutes, most of it the traced census of the 196-wide
model.
"""

import json
import re
import subprocess
import sys


def run(workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
    return lines


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            try:
                lines = run(workload, trace)
                result = json.loads(lines[-1])
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, "result keys"
                assert result["correct"] is True and result["failed"] == 0, \
                    "run reported failures"
                checks = [re.match(r"checks: (\d+) run", line)
                          for line in lines]
                ran = [int(m.group(1)) for m in checks if m]
                assert ran and ran[-1] > 0, "no correctness checks ran"
                metrics = result["metrics"]
                want = {m["name"]: m["unit"] for m in declared}
                missing = sorted(set(want) - set(metrics))
                extra = sorted(set(metrics) - set(want))
                assert not missing, f"missing metrics {missing}"
                assert not extra, f"undeclared metrics {extra}"
                for name, unit in want.items():
                    assert metrics[name]["unit"] == unit, f"{name} unit"
                print(f"ok   {label}: {len(metrics)} metrics, "
                      f"{ran[-1]} checks", flush=True)
            except (AssertionError, ValueError,
                    subprocess.TimeoutExpired) as e:
                failures.append(label)
                print(f"FAIL {label}: {e}", flush=True)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
