"""Compare saved benchmark runs of two commits.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 8 >> a.log
    ...
    python3 perfbench/compare.py a.log b.log

Each log holds the stdout of one or more runs: an {"env": ...} header line,
which names the workload, and at the end of the run its result line.  Prints,
per workload and metric, each side's median with its quartiles and the
change of the median.  Refuses (exit 2) to compare logs whose runs used different dd
backends or machines of a different core count, since their timings
measure different code or hardware.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

COMPARABLE = ("backend", "nproc")


def load(path: str) -> tuple[list, dict]:
    """(env headers, {(workload, metric): [values]}) of one log."""
    envs, values = [], defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                envs.append(record["env"])
            elif "metrics" in record and envs:
                workload = envs[-1]["workload"]
                for name, metric in record["metrics"].items():
                    values[(workload, name)].append(metric["value"])
    return envs, values


def _summary(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, a), (env_b, b) = load(argv[0]), load(argv[1])
    for key in COMPARABLE:
        seen = {env.get(key) for env in env_a + env_b}
        if len(seen) > 1:
            print(f"refusing to compare: runs differ in {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    for key in sorted(set(a) & set(b)):
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{key[0]:13s} {key[1]:45s} {_summary(a[key]):>34s} "
              f"{_summary(b[key]):>34s} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
