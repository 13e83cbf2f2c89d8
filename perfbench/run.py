"""Benchmark of the orlipde CLI: end-to-end timings and an outside-in layer trace.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; it uses the checkout that holds this
file.  The workloads, metric names and units are those of BENCHMARK.json;
README.md beside this file defines each metric.

A closed loop from this process runs one fresh-interpreter child at a time
(``child.py``, which calls ``orlipde.cli.run_config``) until ``--seconds``
have passed, with numeric thread pools pinned to one thread.  Every run's
outputs are checked, and repeated runs of one seed must write identical
checksums.  With ``--trace 0`` the last line reports the end-to-end metrics
over the runs (``wall_s`` and ``run_s`` as means, the rest as medians); with
``--trace 1`` untraced and traced runs alternate and it reports the per-layer
metrics as medians over the traced runs.  Everything it writes goes under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import exact_metrics
from workloads import REFERENCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# end-to-end metrics reported as the mean over the untraced runs; the others
# are medians.  In the closed loop the mean wall_s is measured time over runs,
# 1/throughput.
# The host's speed drifts in phases longer than one child; the mean weighs a
# phase change inside the window by its length, where the median jumps to
# the side that holds more runs.
MEAN_METRICS = ("wall_s", "run_s")
# one invocation must end within 180 s: no child is started after this many
# seconds, and a child still running at the limit is killed
HARD_LIMIT_S = 165.0


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def host_record():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "platform": platform.platform(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def machine_probe():
    """Fixed work, timed: 20 FFTs of a 256x256 array and an fsum of 2**20 floats."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    np.fft.fftn(a)  # the first call sets up the FFT plan
    t0 = time.perf_counter()
    for _ in range(20):
        np.fft.fftn(a)
    t1 = time.perf_counter()
    xs = [((i * 7919) % 10007) / 10007.0 for i in range(1 << 20)]
    t2 = time.perf_counter()
    math.fsum(xs)
    t3 = time.perf_counter()
    return {"fft_s": t1 - t0, "fsum_s": t3 - t2}


def run_child(work, wl, seed, traced, index, env, limit):
    """One fresh-interpreter CLI run; returns its measurements and failures."""
    d = work / f"run-{index:03d}{'-traced' if traced else ''}"
    d.mkdir()
    result_path = d / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), wl.command, str(work / "workload.cfg"),
           str(d / "out"), str(seed), "1" if traced else "0", str(result_path),
           str(d / "spans.json")]
    with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, limit - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"traced": traced, "code": code, "wall_s": wall,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "failures": []}
    failures = sample["failures"]
    if code != 0:
        failures.append(f"exit code {code}")
    if "Traceback" in (d / "stderr.txt").read_text(errors="replace"):
        failures.append("traceback on stderr")
    if result_path.exists():
        child = json.loads(result_path.read_text())
        sample["run_s"] = child["run_s"]
        sample["setup_s"] = child["import_s"] + child["load_s"]
        sample["layers"] = child.get("layers")
        sample["missing"] = child.get("missing", [])
    else:
        failures.append("child wrote no result")
    manifests = list((d / "out").glob("*/manifest.json"))
    if len(manifests) != 1:
        failures.append("no single run directory with a manifest")
        return sample
    sample["outputs"] = json.loads(manifests[0].read_text())["outputs"]
    try:
        check_failures, sample["solution_error"] = wl.check(wl.name, manifests[0].parent)
    except (OSError, KeyError, ValueError) as exc:
        check_failures = [f"unreadable output: {exc!r}"]
    failures.extend(check_failures)
    return sample


def quartiles(values, exact=False):
    """(median, first quartile, third quartile, count).

    For exact counters the median is one of the values, so a count stays a
    whole number.
    """
    med = statistics.median_low(values) if exact else statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def run_workload(spec, name, seed, seconds, trace):
    """Run one workload for ``seconds``; print the report, return the result object."""
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "workload.cfg").write_text(wl.config)
    env = child_env()
    start = time.monotonic()
    limit = start + HARD_LIMIT_S
    host = host_record()
    probe_start = machine_probe()
    # compile bytecode and warm the file cache; users do not pay this per run
    subprocess.run([sys.executable, "-c", "import orlipde.cli"], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=max(1.0, limit - time.monotonic()))
    samples = []
    measure_start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(run_child(work, wl, seed, traced, len(samples), env, limit))
        now = time.monotonic()
        # stop when another child would end, on average, past the budget
        spent = now - measure_start + 0.5 * samples[-1]["wall_s"]
        if (spent >= seconds and (not trace or len(samples) >= 2)) \
                or now + 1.5 * samples[-1]["wall_s"] > limit:
            break
    probe_end = machine_probe()

    # determinism: every run of this seed must write the same checksums
    first = next((s["outputs"] for s in samples if "outputs" in s), None)
    identical = first is not None and all(s.get("outputs") == first for s in samples)
    for s in samples:
        if s.get("outputs") != first:
            s["failures"].append("output checksums differ from the first run")
    ref_sums = REFERENCE["workloads"][name].get("checksums")
    if seed != REFERENCE["default_seed"]:
        reference = "not compared (seed is not the default)"
    else:
        reference = "match" if first == ref_sums else "differ"

    failed = sum(1 for s in samples if s["failures"])
    untraced = [s for s in samples if not s["traced"]]
    traced_runs = [s for s in samples if s["traced"]]
    e2e = {}
    for m in spec["end_to_end"]:
        vals = [s[m["name"]] for s in untraced if m["name"] in s]
        stats = quartiles(vals) if vals else None
        value = statistics.mean(vals) if vals and m["name"] in MEAN_METRICS \
            else stats and stats[0]
        e2e[m["name"]] = (value, stats, m["unit"])
    layers = {}
    repeat = True
    if trace:
        reports = [s["layers"] for s in traced_runs if s.get("layers")]
        exact = exact_metrics(spec["per_layer"])
        repeat = all(r[c] == reports[0][c] for r in reports for c in exact)
        run_traced = [s["run_s"] for s in traced_runs if "run_s" in s]
        run_plain = [s["run_s"] for s in untraced if "run_s" in s]
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                vals = ([statistics.median(run_traced) - statistics.median(run_plain)]
                        if run_traced and run_plain else [])
            else:
                vals = [r[m["name"]] for r in reports if m["name"] in r]
            stats = quartiles(vals, m["name"] in exact) if vals else None
            layers[m["name"]] = (stats and stats[0], stats, m["unit"])

    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host", json.dumps(host))
    print(f"probe start fft_s={probe_start['fft_s']!r} fsum_s={probe_start['fsum_s']!r}")
    print(f"probe end   fft_s={probe_end['fft_s']!r} fsum_s={probe_end['fsum_s']!r}")
    for title, table in (("end-to-end (untraced runs)", e2e), ("per-layer (traced runs)", layers)):
        if table:
            print(title)
        for metric, (value, stats, unit) in table.items():
            if stats is None:
                print(f"  {metric:40s} missing")
                continue
            med, q1, q3, n = stats
            kind = "mean" if table is e2e and metric in MEAN_METRICS else "median"
            print(f"  {metric:40s} {value!r} {unit} {kind}"
                  f"  (median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    print(f"error_rate {failed / len(samples)!r} ({failed} of {len(samples)} runs failed)")
    for i, s in enumerate(samples):
        for f in s["failures"]:
            print(f"  run {i}: {f}")
    print(f"checksums {'identical' if identical else 'NOT identical'} over {len(samples)} runs;"
          f" default-seed reference: {reference}")
    if trace:
        missing = sorted({m for s in traced_runs for m in s.get("missing", [])})
        print(f"trace counters repeat: {'yes' if repeat else 'NO'}; "
              f"traced names missing from the package: {missing or 'none'}")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host, "probe_start": probe_start, "probe_end": probe_end,
              "reference_checksums": reference, "counters_repeat": repeat,
              "samples": samples}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    table = layers if trace else e2e
    return {
        "correct": failed == 0 and bool(samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": value if stats else 0.0, "unit": unit}
                    for k, (value, stats, unit) in table.items()},
    }


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "orlipde" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} lacks src/orlipde/cli.py or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
