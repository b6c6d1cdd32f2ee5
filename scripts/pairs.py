#!/usr/bin/env python3
"""Run alternating benchmark pairs of two checkouts and judge each metric.

For each seed, runs the benchmark that BENCHMARK.json declares
(perfbench/run.py, for its run length) once in each checkout, alternating
which side runs first: the parent on even-numbered pairs, the change on
odd-numbered ones.  Then prints, per end-to-end metric of the workload, each
side's median [q1, q3], the change of the median, the pairs the change won
(ties count for neither) and whether a gain may be claimed: the change won
at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's IQR (q3 - q1).  Last, it prints each
pair's steal share: the share of this machine's CPU time (the "cpu" line of
/proc/stat, read before and after each run) that its hypervisor gave to
other guests while the pair ran.  The share takes no part in the judgement.

Usage:
    python3 scripts/pairs.py --parent ../parent --change . \\
        --workload oracle_sweep --seeds 41-50

Each checkout runs its own benchmark; their BENCHMARK.json must agree on
the command and the run length.  Runs go one after another, never in
parallel, so they do not compete for the cores.  Exits 1 on a run that
fails or reports "correct": false, with that run's stderr, and, as
perfbench/compare.py does, refuses runs that used different dd backends or
machines of a different core count.
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

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.compare import COMPARABLE, _summary, load  # noqa: E402

SIDES = ("parent", "change")
WIN_SHARE = 0.9


def parse_seeds(text: str) -> range:
    """The seeds A..B of "A-B", or the one seed of "A"."""
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text}")
    return seeds


def cpu_times(stat: str) -> tuple[int, int]:
    """(steal, total) clock ticks of the aggregate "cpu" line of the text of
    /proc/stat: total sums user, nice, system, idle, iowait, irq, softirq
    and steal (guest time is already part of user and nice); a kernel that
    reports no steal column counts 0."""
    for line in stat.splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"]:
            ticks = [int(v) for v in fields[1:9]]
            return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)
    raise ValueError("no cpu line in /proc/stat")


def read_cpu_times() -> tuple[int, int] | None:
    """cpu_times of this machine now, or None where /proc/stat is missing."""
    try:
        return cpu_times(pathlib.Path("/proc/stat").read_text(encoding="ascii"))
    except (OSError, ValueError):
        return None


def steal_share(spans: list) -> float:
    """The steal share of the (before, after) cpu_times of some runs, nan
    if any is missing or no tick passed."""
    if any(None in span for span in spans):
        return float("nan")
    steal = sum(after[0] - before[0] for before, after in spans)
    total = sum(after[1] - before[1] for before, after in spans)
    return steal / total if total > 0 else float("nan")


def benchmark(checkout: pathlib.Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: pathlib.Path, bench: dict, workload: str, seed: int,
             log, trace: int = 0) -> tuple:
    """Append the stdout of one run (traced with trace 1) to log and return
    the machine's cpu_times before and after it; exit 1 if it failed."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    before = read_cpu_times()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    after = read_cpu_times()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or result.get("correct") is not True:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed (exit "
                         f"{proc.returncode}, correct: {result.get('correct')}):\n"
                         f"{proc.stderr[-2000:]}")
    log.write(proc.stdout)
    log.flush()
    return before, after


def judge(parent: list, change: list, better: str) -> tuple:
    """(pairs the change won, whether a gain may be claimed)."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else [0] * 3
    gap = sign * (statistics.median(parent) - statistics.median(change))
    return won, won >= WIN_SHARE * len(parent) and gap > q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="A-B: the seeds A to B, one pair each")
    args = parser.parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    benches = {side: benchmark(path) for side, path in checkouts.items()}
    if any(benches["parent"][key] != benches["change"][key]
           for key in ("command", "run_seconds")):
        raise SystemExit("the checkouts' BENCHMARK.json differ in the command "
                         "or the run length")
    bench = benches["change"]
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit(f"BENCHMARK.json declares no workload {args.workload}")

    steal = []  # per pair, {side: (before, after)}
    with tempfile.TemporaryDirectory() as tmp:
        logs = {side: pathlib.Path(tmp, f"{side}.log") for side in SIDES}
        handles = {side: logs[side].open("w") for side in SIDES}
        try:
            for pair, seed in enumerate(args.seeds):
                steal.append({})
                for side in SIDES[::-1] if pair % 2 else SIDES:
                    t0 = time.perf_counter()
                    span = run_once(checkouts[side], bench, args.workload,
                                    seed, handles[side])
                    steal[-1][side] = span
                    print(f"seed {seed} {side}: {time.perf_counter() - t0:.0f} s, "
                          f"steal {steal_share([span]):.1%}", file=sys.stderr)
        finally:
            for handle in handles.values():
                handle.close()
        loaded = {side: load(logs[side]) for side in SIDES}
    for key in COMPARABLE:  # as perfbench/compare.py refuses them
        seen = {env.get(key) for envs, _ in loaded.values() for env in envs}
        if len(seen) > 1:
            raise SystemExit(f"refusing to compare: runs differ in {key}: "
                             f"{sorted(map(str, seen))}")
    values = {side: loaded[side][1] for side in SIDES}

    print(f"{args.workload}: {len(args.seeds)} pairs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}, --seconds {bench['run_seconds']}")
    print(f"{'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'change':>8s} {'won':>6s}  gain")
    for metric in bench["end_to_end"]:
        key = (args.workload, metric["name"])
        parent, change = values["parent"].get(key), values["change"].get(key)
        if not parent or not change or len(parent) != len(change):
            raise SystemExit(f"{metric['name']}: a run reported no value")
        won, gain = judge(parent, change, metric["better"])
        p_median = statistics.median(parent)
        moved = (f"{(statistics.median(change) - p_median) / p_median:+.1%}"
                 if p_median else "n/a")
        print(f"{metric['name']:18s} {_summary(parent):>34s} "
              f"{_summary(change):>34s} {moved:>8s} "
              f"{won:>3d}/{len(parent):<2d}  {'yes' if gain else 'no'}")
    print("steal share per pair (of this machine's CPU time while it ran):")
    for seed, spans in zip(args.seeds, steal):
        print(f"  seed {seed}: {steal_share(list(spans.values())):.1%} "
              f"(parent {steal_share([spans['parent']]):.1%}, "
              f"change {steal_share([spans['change']]):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
