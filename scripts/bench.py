#!/usr/bin/env python3
"""Record one point of the benchmark trajectory: BENCH_<label>.json.

Runs the benchmark that BENCHMARK.json declares (perfbench/run.py) for each
of its workloads, for its run length: untraced once per seed, and traced
(--trace 1) once with the first seed.  The seeds are fixed, 1 to 5, so
that the trajectory points compare with each other.  Writes
BENCH_<label>.json at the repository root with

  * the environment header of the runs (Python, numpy, backend, cores, ...),
  * per workload and end-to-end metric: the median, quartiles and IQR over
    the seeds, and every value,
  * per workload: the traced run's layer metrics.

Usage:
    python3 scripts/bench.py --label 6 [--checkout DIR]

--checkout measures another checkout of the repository (for example an
earlier commit made with `git clone`) with that checkout's own benchmark;
the default is the checkout that holds this script.  Runs go one after
another, never in parallel, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from pairs import ROOT, benchmark, run_once
from perfbench.compare import load  # reads the run logs

SEEDS = range(1, 6)
# Header keys that name one run rather than the machine and the program.
RUN_KEYS = ("workload", "seed", "trace", "small_node_array_bytes_computed",
            "large_node_array_bytes_computed")


def summarize(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def git_commit(checkout: pathlib.Path) -> str | None:
    """The checkout's commit, with a -dirty suffix for uncommitted changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    bench = benchmark(checkout)
    workloads = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory() as tmp:
        untraced, traced = pathlib.Path(tmp, "untraced.log"), pathlib.Path(tmp, "traced.log")
        with untraced.open("w") as u_log, traced.open("w") as t_log:
            for workload in workloads:
                for seed in SEEDS:
                    t0 = time.perf_counter()
                    run_once(checkout, bench, workload, seed, u_log)
                    print(f"{workload} seed {seed}: {time.perf_counter() - t0:.0f} s",
                          file=sys.stderr)
                run_once(checkout, bench, workload, SEEDS[0], t_log, trace=1)
        u_envs, values = load(untraced)
        t_envs, layer = load(traced)

    if (len(u_envs) != len(workloads) * len(SEEDS) or len(t_envs) != len(workloads)
            or any(len(v) != len(SEEDS) for v in values.values())):
        raise SystemExit("a run printed no environment header or no result")
    machine = [{k: v for k, v in env.items() if k not in RUN_KEYS}
               for env in u_envs + t_envs]
    if any(m != machine[0] for m in machine):
        raise SystemExit("runs disagree on the environment header")
    report = {workload: {
        "end_to_end": {name: {"unit": units[name], **summarize(v)}
                       for (w, name), v in values.items() if w == workload},
        "layer": {"seed": SEEDS[0],
                  "metrics": {name: v[0] for (w, name), v in layer.items()
                              if w == workload}},
    } for workload in workloads}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "commit": git_commit(checkout),
        "command": " ".join(bench["command"]) + " --workload W --seed S "
                   f"--seconds {bench['run_seconds']} --trace 0|1",
        "seeds": list(SEEDS),
        "env": machine[0],
        "workloads": report,
    }, indent=1) + "\n", encoding="utf-8")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
