"""The benchmark's operations, their output checks, and the three workloads.

Every operation goes through oscphase's public API from this one process,
in a closed loop: one caller, the next call starts when the previous one has
returned.  Each operation's output is checked against the frozen reference
in `reference.json` (and against closed forms where they exist); a failed
check counts one failure.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
import traceback

import mpmath
import numpy as np

from oscphase import cli, errors, oracle
from oscphase.coefficients import make_problem
from oscphase.oracle import QuadratureSettings
from oscphase.study import STUDY_MP_DPS, expand_auto

import pool as inputs

FLOAT_RTOL = 1e-12
MP_RTOL = 1e-25
MIN_SAMPLES = 100  # per latency series, so ten samples lie beyond the p90
NODES_PER_PANEL = QuadratureSettings().nodes_per_panel
DD_NODE_BYTES = 16  # one hi and one lo float64 per node


class Outcome:
    """Failure accounting: each checked operation is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.dev_max = 0.0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)

    def crashed(self, what: str) -> None:
        self.record(False, f"{what} raised\n{traceback.format_exc()}")


def problem(spec: dict):
    return make_problem(spec["f"], spec["g"], spec["alpha"], spec["beta"],
                        spec["n"], T=spec["T"])


def _mpc(parts) -> mpmath.mpc:
    return mpmath.mpc(mpmath.mpf(parts[0]), mpmath.mpf(parts[1]))


# --- expansions ---------------------------------------------------------------

def expand_op(spec: dict, mp_dps: int | None):
    """One user-level expansion: build the problem from strings, expand it."""
    return expand_auto(problem(spec), mp_dps=mp_dps)


def check_expand(spec: dict, mp_dps: int | None, result, exc, out: Outcome) -> None:
    label = f"expand{'_mp' if mp_dps else ''} {spec['f']!r}"
    if spec["kind"] == "reject":
        expected = getattr(errors, spec["expect"])
        out.record(isinstance(exc, expected),
                   f"{label}: expected {spec['expect']}, got "
                   f"{type(exc).__name__ if exc else 'a value'}")
        return
    if exc is not None:
        out.record(False, f"{label} raised {type(exc).__name__}: {exc}")
        return
    if mp_dps is None:
        ref = complex(*spec["ref_float"])
        ok = abs(complex(result.value) - ref) <= FLOAT_RTOL * abs(ref)
    else:
        with mpmath.workdps(40):
            ref = _mpc(spec["ref_mp"])
            ok = abs(result.value - ref) <= MP_RTOL * abs(ref)
    out.record(bool(ok) and result.theorem == spec["kind"], label)


def expand_one(spec: dict, out: Outcome, float_ms: list, mp_ms: list) -> None:
    """The problem in float, then in mpmath; latencies appended in ms."""
    clock = time.perf_counter
    for mp_dps, sink in ((None, float_ms), (STUDY_MP_DPS, mp_ms)):
        result = exc = None
        t0 = clock()
        try:
            result = expand_op(spec, mp_dps)
        except errors.OscPhaseError as e:
            exc = e
        except Exception:  # keep measuring; the check records it
            out.crashed(f"expand {spec['f']!r}")
            continue
        sink.append((clock() - t0) * 1e3)
        check_expand(spec, mp_dps, result, exc, out)


# --- oracle -------------------------------------------------------------------

def quad_op(p):
    return oracle.oscillatory_quadrature_detail(p, QuadratureSettings(tol=inputs.QUAD_TOL))


def _dd_value(re_dd, im_dd) -> mpmath.mpc:
    return mpmath.mpc(mpmath.mpf(float(re_dd[0])) + mpmath.mpf(float(re_dd[1])),
                      mpmath.mpf(float(im_dd[0])) + mpmath.mpf(float(im_dd[1])))


def check_quad(spec: dict, result, out: Outcome) -> None:
    with mpmath.workdps(40):
        value = _dd_value(result.re_dd, result.im_dd)
        ref = _dd_value(*spec["ref_dd"])
        dev = float(abs(value - ref))
        ok = dev <= inputs.QUAD_TOL
        if "closed_form" in spec:
            ok = ok and abs(value - _mpc(spec["closed_form"])) <= inputs.QUAD_TOL
    out.dev_max = max(out.dev_max, dev)
    out.record(ok, f"quad {spec['f']!r}: |value - reference| = {dev:.3e}")


def quad_pass(items: list, out: Outcome) -> float:
    """Seconds for one oracle call per (spec, problem) pair."""
    total = 0.0
    for spec, p in items:
        t0 = time.perf_counter()
        try:
            result = quad_op(p)
        except Exception:
            out.crashed(f"quad {spec['f']!r}")
            continue
        total += time.perf_counter() - t0
        check_quad(spec, result, out)
    return total


def oracle_items(sets: dict) -> dict:
    """Problems are built once, outside the timed passes."""
    return {name: [(spec, problem(spec)) for spec in specs]
            for name, specs in sets.items()}


def node_array_bytes(specs: list) -> int:
    """Computed size of the largest dd node array of a set: the finest
    level's panels x nodes per panel x 16 bytes."""
    return max(s["ref_panels"] for s in specs) * NODES_PER_PANEL * DD_NODE_BYTES


# --- study through the CLI ----------------------------------------------------

def write_configs(workdir: str) -> list:
    paths = []
    for name, text, ns in inputs.STUDY_RUNS:
        path = os.path.join(workdir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append((name, path, ns))
    return paths


def study_call(path: str, grid: str, ns: str) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["study", "--config", path, "--grid", grid, "--n", ns])
    return rc, stdout.getvalue()


def _rows(csv: str) -> list:
    lines = csv.strip().splitlines()
    return [dict(zip(lines[0].split(","), (float(v) for v in ln.split(","))))
            for ln in lines[1:]]


def check_study(name: str, rc: int, csv: str, ref_csv: str, out: Outcome) -> None:
    out.record(rc == 0, f"study {name}: exit code {rc}")
    try:
        rows, ref_rows = _rows(csv), _rows(ref_csv)
    except (ValueError, IndexError):
        out.record(False, f"study {name}: unreadable CSV")
        return
    out.record(len(rows) == len(ref_rows), f"study {name}: row count")
    for row, ref in zip(rows, ref_rows):
        same = all(row[k] == ref[k] if k in ("T", "n") else
                   math.isclose(row[k], ref[k],
                                rel_tol=1e-6 if k == "abs_error" else FLOAT_RTOL)
                   for k in ref)
        out.record(same and row["abs_error"] <= 10.0 * row["error_scale"],
                   f"study {name} T={row['T']:g} n={row['n']:g}")
    for n in sorted({r["n"] for r in rows}):
        pts = [(math.log2(r["T"]), math.log2(r["abs_error"]))
               for r in rows if r["n"] == n and r["abs_error"] > 0]
        slope = float(np.polyfit(*zip(*pts), 1)[0]) if len(pts) > 1 else math.nan
        out.record(slope <= -(n + 1) + 0.25,
                   f"study {name} n={n:g}: slope {slope:.3f}")


def study_pass(configs: list, t_min: float, refs: dict, out: Outcome) -> float:
    """Seconds for one in-process CLI study over both families."""
    grid = inputs.study_grid(t_min)
    total, outputs = 0.0, []
    for name, path, ns in configs:
        t0 = time.perf_counter()
        try:
            rc, csv = study_call(path, grid, ns)
        except Exception:
            out.crashed(f"study {name}")
            continue
        total += time.perf_counter() - t0
        outputs.append((name, rc, csv))
    for name, rc, csv in outputs:
        check_study(name, rc, csv, refs[name], out)
    return total


# --- metrics ------------------------------------------------------------------

def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --- interleaving -------------------------------------------------------------

class Stage:
    """One stage's work as a round of units, run one unit at a time.

    A timed stage (the workload's own) runs whole rounds until it has spent
    `seconds` and run `min_units` units; a probe stage runs one round.
    """

    def __init__(self, units: list, seconds: float | None = None,
                 min_units: int = 0):
        self.units = units
        self.seconds = seconds
        self.min_units = min_units
        self.spent = 0.0
        self.done = 0

    def progress(self) -> float:
        if self.seconds is None:
            return (self.done + 0.5) / len(self.units)
        return min(self.spent / self.seconds,
                   self.done / self.min_units if self.min_units else 1.0)

    def finished(self) -> bool:
        if self.done == 0 or self.done % len(self.units):
            return False
        if self.seconds is None:
            return True
        return self.spent >= self.seconds and self.done >= self.min_units

    def step(self) -> None:
        t0 = time.perf_counter()
        self.units[self.done % len(self.units)]()
        self.spent += time.perf_counter() - t0
        self.done += 1


def interleave(stages: list) -> None:
    """Run the unit of whichever unfinished stage lags most, so every stage's
    samples spread over the whole run and see the same machine conditions."""
    while True:
        live = [s for s in stages if not s.finished()]
        if not live:
            return
        min(live, key=Stage.progress).step()
