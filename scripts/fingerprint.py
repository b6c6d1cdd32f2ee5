#!/usr/bin/env python3
"""Print the exact output of every benchmark pool problem and of the CLI runs
that the identity gates name, one JSON line each.

Expansion problems (perfbench/pool.py: stationary, monotone, reject and
probe) run in float and in mpmath at the study precision.  Their line holds
every field of the ExpansionResult, of its CoefficientSet and of its
AuditReport, or the class and message of the error raised.  Oracle problems
(small-T, large-T, transcendental, T*x^2 and Fresnel) hold the quadrature's
dd parts, panels, doublings and certificate.  CLI runs (expand, audit and
quad on the three configs in configs/, and one study) hold the stdout, stderr
and exit code of oscphase.cli.main run in process.  Floats are written as
float.hex and mpmath numbers as their exact binary mantissa and exponent, so
two runs give the same text exactly when no output bit moved:

    python3 scripts/fingerprint.py > after.jsonl
    python3 scripts/fingerprint.py --checkout ../parent > before.jsonl
    diff before.jsonl after.jsonl

--checkout fingerprints another checkout of the repository (for example an
earlier commit made with `git clone`), importing its oscphase and its pool
and reading its configs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import pathlib
import sys

import mpmath
import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]

CONFIGS = ("fresnel.cfg", "monotone.cfg", "stationary_cubic.cfg")
STUDY_ARGS = ("--config", "configs/stationary_cubic.cfg",
              "--grid", "1024:65536:4", "--n", "1,2,3")


def encode(v):
    """JSON form of a result field that keeps every bit and the type."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, complex):
        return {"complex": [v.real.hex(), v.imag.hex()]}
    if isinstance(v, mpmath.mpf):
        sign, man, exp, _ = v._mpf_
        return {"mpf": f"{'-' if sign else ''}{man:#x}p{exp}"}
    if isinstance(v, mpmath.mpc):
        return {"mpc": [encode(v.real)["mpf"], encode(v.imag)["mpf"]]}
    if isinstance(v, (tuple, list)):
        return [encode(x) for x in v]
    if isinstance(v, dict):
        return {str(k): encode(x) for k, x in v.items()}
    if dataclasses.is_dataclass(v):
        return {f.name: encode(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    raise TypeError(f"no fingerprint for {type(v).__name__}")


def outcome(fn) -> dict:
    try:
        return {"result": encode(fn())}
    except Exception as exc:  # the fingerprint records every failure
        return {"error": type(exc).__name__, "message": str(exc)}


def cli_run(main, checkout: pathlib.Path, argv: list[str]) -> dict:
    """stdout, stderr and exit code of one in-process CLI run; a config
    path is read relative to the checkout."""
    out, err = io.StringIO(), io.StringIO()
    resolved = [str(checkout / a) if a.startswith("configs/") else a
                for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return {"cli": argv, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit": code}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]

    import pool
    from oscphase.cli import main as cli_main
    from oscphase.coefficients import make_problem
    from oscphase.oracle import QuadratureSettings, oscillatory_quadrature_detail
    from oscphase.study import STUDY_MP_DPS, expand_auto

    def problem(spec):
        return make_problem(spec["f"], spec["g"], spec["alpha"], spec["beta"],
                            spec["n"], T=spec["T"])

    def emit(group, index, spec, **parts):
        line = {"group": group, "index": index, "f": spec["f"], "g": spec["g"],
                **parts}
        print(json.dumps(line, sort_keys=True), flush=True)

    problems = pool.build_pool()
    # Every group as variants of variants, so each problem has an [i, j].
    nested = {**problems, "probe": [problems["probe"]],
              "trans": [problems["trans"]], "txx": [problems["txx"]],
              "fresnel": [[problems["fresnel"]]]}

    def specs(groups):
        for group in groups:
            for i, variants in enumerate(nested[group]):
                for j, spec in enumerate(variants):
                    yield group, [i, j], spec

    for group, index, spec in specs(("wsp", "fdt", "reject", "probe")):
        emit(group, index, spec, **{
            mode: outcome(lambda: expand_auto(problem(spec), mp_dps=dps))
            for mode, dps in (("float", None), ("mp", STUDY_MP_DPS))})
    settings = QuadratureSettings(tol=pool.QUAD_TOL)
    for group, index, spec in specs(("small", "large", "trans", "txx", "fresnel")):
        emit(group, index, spec, oracle=outcome(
            lambda: oscillatory_quadrature_detail(problem(spec), settings)))
    runs = [[command, "--config", f"configs/{config}"]
            for config in CONFIGS for command in ("expand", "audit", "quad")]
    for argv in runs + [["study", *STUDY_ARGS]]:
        print(json.dumps(cli_run(cli_main, checkout, argv), sort_keys=True),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
