"""Self-test of the tracer: exact, repeatable counters on every workload.

    python3 perfbench/selftest.py

Runs each workload's traced child twice at the default seed and checks
that every exact counter (counts, computed bytes and the ratios of counts)
repeats between the two runs and equals ``expected_counts.json``, which
includes the counters that must read 0 (for example no conjugate on the
solves and no kernel on orlicz-exp2d).  A counter that reads 0 where a
call happens means a wrapper missed an alias.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import HARD_LIMIT_S, HERE, ROOT, child_env, run_child
from tracer import exact_metrics
from workloads import REFERENCE, WORKLOADS


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = exact_metrics(spec["per_layer"])
    expected = json.loads((HERE / "expected_counts.json").read_text())
    env = child_env()
    problems = []
    for name, wl in WORKLOADS.items():
        work = ROOT / ".perfbench_work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "workload.cfg").write_text(wl.config)
        runs = [run_child(work, wl, REFERENCE["default_seed"], True, i, env,
                          time.monotonic() + HARD_LIMIT_S) for i in range(2)]
        for i, run in enumerate(runs):
            problems += [f"{name} run {i}: {f}" for f in run["failures"]]
            problems += [f"{name} run {i}: traced name missing: {m}" for m in run.get("missing", [])]
        if any(run.get("layers") is None for run in runs):
            problems.append(f"{name}: no layer report")
            continue
        first, second = (run["layers"] for run in runs)
        for counter in exact:
            want = expected[name][counter]
            got = (first[counter], second[counter])
            status = "ok" if got == (want, want) else "MISMATCH"
            if status != "ok":
                problems.append(f"{name}: {counter} = {got}, expected {want}")
            print(f"{status:8s} {name:20s} {counter:40s} {first[counter]}")
    for p in problems:
        print(p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
