"""One CLI run in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py <command> <config> <out_root> <seed> <trace> <result.json> <spans.json>

run.py starts this with ``PYTHONPATH`` pointing at ``src/``.  It times the
import of ``orlipde.cli`` and one ``load_config`` (together the set-up),
then calls ``orlipde.cli.run_config``, the function behind the ``orlipde``
command.  With trace = 1 the run goes through the tracer and the span file
is written.  The timings go to ``result.json``; the exit code is the one
``run_config`` returned.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    command, config, out_root, seed, trace, result_path, spans_path = argv
    seed = int(seed)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.watch_imports()
    t0 = time.perf_counter()
    import orlipde.cli
    from orlipde.config import load_config

    t1 = time.perf_counter()
    load_config(config, command, {"seed": seed})
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    t3 = time.perf_counter()
    code = orlipde.cli.run_config(command, config, out_root, seed=seed)
    t4 = time.perf_counter()
    result = {"import_s": t1 - t0, "load_s": t2 - t1, "run_s": t4 - t3, "code": code}
    if tracer is not None:
        tracer.dump(spans_path)
        result["missing"] = tracer.missing
        result["layers"] = tracer.layer_metrics(t4 - t3, t1 - t0, _iterations(out_root))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


def _iterations(out_root):
    """Fixed-point iterations from summary.csv; 0 when the run wrote none."""
    for summary in Path(out_root).glob("*/summary.csv"):
        for line in summary.read_text().splitlines():
            name, _, value = line.partition(",")
            if name == "iterations":
                return int(value)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
