#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all in BENCHMARK.json) it runs the benchmark
command twice with --trace 0 and twice with --trace 1, one second each,
at seed 1, and asserts that:

- every run is correct and exits 0;
- each mode emits exactly the metrics BENCHMARK.json declares for it,
  with the declared units, and METRICS.md documents every one;
- every metric on the simulated clock or a deterministic counter repeats
  exactly across the two runs of a mode.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Units of metrics that do not depend on the host clock.
DETERMINISTIC_UNITS = {"sim_ms", "count", "bytes", "rounds", "per_capture"}


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
    assert result["attempted"] >= 1
    return result["metrics"]


def documented(name, table):
    if f"`{name}`" in table:
        return True
    stage = re.fullmatch(r"sim\.stage\.(\w+)\.busy_ms", name)
    return bool(stage) and f"`{stage.group(1)}`" in table


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "METRICS.md")) as f:
        table = f.read()
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            first, second = (run(bench, workload, trace) for _ in range(2))
            for got in (first, second):
                assert set(got) == set(declared), (
                    f"{workload} trace {trace}: undeclared {sorted(set(got) - set(declared))}, "
                    f"missing {sorted(set(declared) - set(got))}"
                )
                for name, m in got.items():
                    assert m["unit"] == declared[name], f"{name}: unit {m['unit']}"
            for name, unit in declared.items():
                assert documented(name, table), f"{name} is not in METRICS.md"
                if unit in DETERMINISTIC_UNITS:
                    a, b = first[name]["value"], second[name]["value"]
                    assert a == b, f"{workload} {name} does not repeat: {a} vs {b}"
            print(f"ok {workload} trace {trace}: {len(declared)} metrics", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
