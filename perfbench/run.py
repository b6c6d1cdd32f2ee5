"""Run one workload of the oscphase benchmark and print its metrics.

    python3 perfbench/run.py --workload expand_mix --seed 1 --seconds 8 --trace 0

Workloads (see perfbench/README.md for why each exists):

  expand_mix    float and mpmath expansions of a seeded problem mix
  oracle_sweep  the dd quadrature oracle on small-T, large-T and
                transcendental-phase sets, plus closed-form checks
  study_cli     convergence studies through the in-process CLI

Every workload reports every end-to-end metric.  Its own stage runs whole
rounds until --seconds have passed; every other stage runs one round (for
expansions: 25 calls each of four cheap probe problems, in float and in
mpmath; for the oracle: the small-T and transcendental sets three times, the
large-T set once), and the units of all stages are interleaved over the run.  With
--trace 1 the run instead traces the workload's own stage, wrapping
oscphase's layer functions, and reports the per-layer metrics.

Stdout: an {"env": ...} header first, and the JSON result as the last line.
Exit code 2 means the benchmark could not run (for example, no oscphase
sources under src/), and no result is printed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("expand_mix", "oracle_sweep", "study_cli")
SETUP_RUNS = 3
# Off-focus oracle passes: the short sets three times, so their medians do
# not rest on one sub-second pass; the large set once.
PROBE_QUAD_ROUNDS = ("small", "trans") * 3 + ("large",)
TRACE_EXPAND_BLOCKS = 3
CHILD_TIMEOUT_S = 120


def _die(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def _import_checkout():
    """Import oscphase from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "oscphase", "__init__.py")):
        _die(f"oscphase sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import oscphase
    if not os.path.abspath(oscphase.__file__).startswith(SRC + os.sep):
        _die(f"imported oscphase from {oscphase.__file__}, not from {SRC}")


def _load_reference() -> dict:
    path = os.path.join(HERE, "reference.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _die(f"cannot read {path}: {exc}")


def _getconf(name: str):
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True,
                              timeout=10, check=False)
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def setup_probe(out, fresnel: dict) -> tuple[float, dict]:
    """Fresh-interpreter set-up: wall time from spawn to the first result,
    plus the child's own stage times."""
    import workloads
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    try:
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        _die(f"set-up probe failed (exit {proc.returncode}):\n{proc.stderr}")
    if not os.path.abspath(child["oscphase_file"]).startswith(SRC + os.sep):
        _die(f"set-up probe imported oscphase from {child['oscphase_file']}")
    workloads.check_quad(fresnel, SimpleNamespace(re_dd=child["ref_dd"][0],
                                                  im_dd=child["ref_dd"][1]), out)
    return wall, child


def environment(args, ref: dict, sets: dict) -> dict:
    """Machine and backend header; runs with different backends do not
    compare (see compare.py)."""
    import mpmath
    import numpy as np

    import workloads
    from oscphase import oracle

    used = []
    original = oracle._panels_dd_numpy

    def counting(*a, **k):
        used.append(1)
        return original(*a, **k)

    oracle._panels_dd_numpy = counting
    try:
        workloads.quad_op(workloads.problem(ref["fresnel"]))
    finally:
        oracle._panels_dd_numpy = original
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": "numpy" if used else "numba",
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "small_node_array_bytes_computed": workloads.node_array_bytes(sets["small"]),
        "large_node_array_bytes_computed": workloads.node_array_bytes(sets["large"]),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, ref: dict, out) -> dict:
    import pool as inputs
    import workloads
    from workloads import Stage

    sets = inputs.draw_oracle(args.seed, ref)
    print(json.dumps({"env": environment(args, ref, sets)}), flush=True)

    def timed_if(name: str, **kwargs) -> dict:
        return ({"seconds": args.seconds, **kwargs}
                if args.workload == name else {})

    walls, float_ms, mp_ms = [], [], []
    quad = {name: [] for name in sets}
    study = []
    if args.workload == "expand_mix":
        specs = inputs.draw_expand(args.seed, ref)
    else:
        specs = ref["probe"] * (workloads.MIN_SAMPLES // len(ref["probe"]))
    items = workloads.oracle_items(sets)
    quad_round = tuple(items) if args.workload == "oracle_sweep" else PROBE_QUAD_ROUNDS
    t_min = inputs.draw_study(args.seed, ref)
    study_ref = ref["study_csv"][repr(t_min)]

    def setup_unit():
        walls.append(setup_probe(out, ref["fresnel"])[0])

    def expand_unit(spec):
        return lambda: workloads.expand_one(spec, out, float_ms, mp_ms)

    def quad_unit(name):
        return lambda: quad[name].append(workloads.quad_pass(items[name], out))

    def run(configs):
        workloads.interleave([
            Stage([setup_unit] * SETUP_RUNS),
            Stage([expand_unit(s) for s in specs],
                  **timed_if("expand_mix", min_units=workloads.MIN_SAMPLES)),
            Stage([quad_unit(name) for name in quad_round], **timed_if("oracle_sweep")),
            Stage([lambda: study.append(workloads.study_pass(
                configs, t_min, study_ref, out))], **timed_if("study_cli")),
        ])

    _with_configs(run)
    print(json.dumps({"samples": {
        "setup": len(walls), "expand": len(float_ms), "expand_mp": len(mp_ms),
        **{f"quad_{name}": len(passes) for name, passes in quad.items()},
        "study": len(study)}}), flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    median = statistics.median
    return {
        "setup_s": _metric(median(walls), "s"),
        "expand_p50_ms": _metric(median(float_ms), "ms"),
        "expand_p90_ms": _metric(workloads.p90(float_ms), "ms"),
        "expand_mp_p50_ms": _metric(median(mp_ms), "ms"),
        "expand_mp_p90_ms": _metric(workloads.p90(mp_ms), "ms"),
        "quad_small_s": _metric(median(quad["small"]), "s"),
        "quad_large_s": _metric(median(quad["large"]), "s"),
        "quad_trans_s": _metric(median(quad["trans"]), "s"),
        "study_s": _metric(median(study), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ok_frac": _metric(1.0 - out.failed / max(out.attempted, 1), "fraction"),
    }


def _with_configs(body):
    """Run body(configs) with the study configs written to a temporary
    directory inside the benchmark's own directory, removed afterwards."""
    import workloads
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        return body(workloads.write_configs(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_work(args, ref: dict, out):
    """The workload's own stage as one fixed pass (so counts repeat)."""
    import pool as inputs
    import workloads

    if args.workload == "expand_mix":
        specs = inputs.draw_expand(args.seed, ref, blocks=TRACE_EXPAND_BLOCKS)
        return lambda: [workloads.expand_one(s, out, [], []) for s in specs]
    if args.workload == "oracle_sweep":
        items = workloads.oracle_items(inputs.draw_oracle(args.seed, ref))
        return lambda: [workloads.quad_pass(group, out) for group in items.values()]
    t_min = inputs.draw_study(args.seed, ref)
    refs = ref["study_csv"][repr(t_min)]
    return lambda: _with_configs(
        lambda configs: workloads.study_pass(configs, t_min, refs, out))


def run_traced(args, ref: dict, out) -> dict:
    import layer_metrics
    import pool as inputs
    import workloads
    from tracing import Tracer

    children = [setup_probe(out, ref["fresnel"])[1]
                for _ in range(SETUP_RUNS)]
    sets = inputs.draw_oracle(args.seed, ref)
    print(json.dumps({"env": environment(args, ref, sets)}), flush=True)

    # Untraced passes before and after the traced one, so that warm-up and
    # drift fall on both sides of the overhead.
    work = traced_work(args, ref, out)
    untraced = [_timed(work)]

    tracer = Tracer(watch=layer_metrics.WATCH)
    traced_out = workloads.Outcome()
    work = traced_work(args, ref, traced_out)
    try:
        tracer.install()
        for attr, name in (("expand_op", "op.expand"), ("quad_op", "op.quad"),
                           ("study_call", "op.study")):
            tracer.wrap_function(workloads, attr, name)
        wall = _timed(work)
    finally:
        tracer.restore()
    untraced.append(_timed(traced_work(args, ref, out)))
    out.attempted += traced_out.attempted
    out.failed += traced_out.failed
    return layer_metrics.per_layer(tracer, wall, statistics.mean(untraced),
                                   children, traced_out.dev_max, out)


def _timed(work) -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout()
    ref = _load_reference()
    sys.path.insert(0, HERE)
    import workloads

    out = workloads.Outcome()
    metrics = run_traced(args, ref, out) if args.trace else run_untraced(args, ref, out)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
