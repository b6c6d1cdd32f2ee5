#!/usr/bin/env python3
"""Print the exact output of every benchmark pool problem and of the CLI runs
that the identity gates name, one JSON line each.

Expansion problems (perfbench/pool.py: stationary, monotone, reject and
probe) run in float and in mpmath at the study precision.  Their line holds
every field of the ExpansionResult, of its CoefficientSet and of its
AuditReport, or the class and message of the error raised.  Oracle problems
(small-T, large-T, transcendental, T*x^2 and Fresnel, and the singular set
below) hold the quadrature's dd parts, panels, doublings and certificate,
or the error.  CLI runs (expand, audit and
quad on the three configs in configs/, and one study) hold the stdout, stderr
and exit code of oscphase.cli.main run in process.  Floats are written as
float.hex and mpmath numbers as their exact binary mantissa and exponent, so
two runs give the same text exactly when no output bit moved:

    python3 scripts/fingerprint.py --checkout ../parent > before.jsonl
    python3 scripts/fingerprint.py --against before.jsonl

--checkout fingerprints another checkout of the repository (for example an
earlier commit made with `git clone`), importing its oscphase and its pool
and reading its configs.  --against compares the fingerprint with a saved
one instead of printing it: it prints the number of changed lines per
(group, mode, field) and exits 1 if any line changed.  The mode is float,
mp or oracle for a problem and the subcommand for a CLI run; the field is
a top-level field of the result (an error counts as the field "outcome").
For the oracle lines whose result changed it also prints the largest
|change of the value|, from the dd parts, and how many of them moved by
more than their new certificate diff.
"""

from __future__ import annotations

import argparse
import collections
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
# g's that are not analytic on [alpha, beta], where a panel's certificate
# comes from its mass bound, as (f, g, alpha, beta, T, tol): kinks and
# bounded endpoint singularities that certify, then a kink at a tol below
# what its panels can reach, midpoint poles, a jump and unbounded ends.
SINGULAR = (
    ("T*(x^2/2 + -0.287*x^3)", "abs(x - 0.269)", -0.473, 0.947, 16.0, 1e-8),
    ("T*(x^2/2 + 0.095*x^3)", "abs(x - 0.511)", -0.403, 0.811, 64.0, 1e-12),
    ("T*(x^2 + x^3/3)", "1 + abs(x - 0.123)", -0.5, 0.5, 16.0, 1e-12),
    ("T*(x^2 + x^3/3)", "abs(x - 0.123)", -0.5, 0.5, 16.0, 1e-20),
    ("T*x", "sqrt(x - 1)", 1.0, 2.0, 16.0, 1e-8),
    ("T*x", "x^1.5", 0.0, 1.0, 16.0, 1e-8),
    ("T*x", "(x - 1)^0.5", 1.0, 2.0, 16.0, 1e-8),
    ("T*x", "sqrt(abs(x - 1.3))", 1.0, 2.0, 16.0, 1e-8),
    ("T*(x^2 + x^3/3)", "1 + abs(x - 0.123)", -0.5, 0.5, 16.0, 1e-16),
    ("T*(x + x^2/10)", "1/(x - 1.4144667855116144)", 1.0, 2.0, 16.0, 1e-12),
    ("T*(x + x^2/10)", "1/(x - 1.4328602310696963)", 1.0, 2.0, 64.0, 1e-12),
    ("T*(x + x^2/10)", "1/(x - 1.430002512367798)", 1.0, 2.0, 1024.0, 1e-12),
    ("T*(x + x^2/10)", "(abs(x-1.3)/(x-1.3)+1)/2", 1.0, 2.0, 1024.0, 1e-12),
    ("T*x", "log(x + 0.5)", -0.5, 0.5, 16.0, 1e-12),
    ("T*x", "1/sqrt(x - 1)", 1.0, 2.0, 16.0, 1e-12),
)


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


def changed_fields(before: dict, after: dict):
    """(group, mode, field) for each field in which two lines of the same
    problem or CLI run differ."""
    if "cli" in before:
        return [("cli", before["cli"][0], key)
                for key in ("stdout", "stderr", "exit")
                if before[key] != after[key]]
    out = []
    for mode in sorted(set(before) & {"float", "mp", "oracle"}):
        a, b = before[mode], after[mode]
        if ("result" in a) != ("result" in b):
            out.append((before["group"], mode, "outcome"))
            continue
        a, b = a.get("result", a), b.get("result", b)
        out += [(before["group"], mode, key) for key in sorted(set(a) | set(b))
                if a.get(key) != b.get(key)]
    return out


def oracle_shift(before: dict, after: dict):
    """(|change of the value|, the new diff) of an oracle line whose result
    changed, from the exact sums of the dd parts; None for any other line."""
    old = before.get("oracle", {}).get("result")
    new = after.get("oracle", {}).get("result")
    if old is None or new is None or old == new:
        return None

    def value(result):
        re, im = (mpmath.fsum(mpmath.mpf(float.fromhex(h)) for h in result[k])
                  for k in ("re_dd", "im_dd"))
        return mpmath.mpc(re, im)

    with mpmath.workdps(40):
        shift = float(abs(value(new) - value(old)))
    return shift, float.fromhex(new["diff"])


def compare(lines, path: pathlib.Path) -> int:
    """Print the changed-line counts of `lines` against the saved file."""
    def key(line):
        return json.dumps([line.get("group"), line.get("index"),
                           line.get("cli")])

    saved = {}
    for text in path.read_text().splitlines():
        line = json.loads(text)
        saved[key(line)] = line
    counts, total, shifts = collections.Counter(), 0, []
    for line in lines:
        total += 1
        before = saved.pop(key(line), None)
        counts.update([("new", "-", "line")] if before is None
                      else changed_fields(before, line))
        shift = None if before is None else oracle_shift(before, line)
        if shift is not None:
            shifts.append(shift)
    counts.update(("gone", "-", "line") for _ in saved)
    for (group, mode, field), count in sorted(counts.items()):
        print(f"{group} {mode} {field}: {count} changed")
    if shifts:
        print(f"oracle values: {len(shifts)} moved, largest |change| "
              f"{max(s for s, _ in shifts):.3e}, "
              f"{sum(s > diff for s, diff in shifts)} by more than their diff")
    print(f"{total} lines compared, {sum(counts.values())} changes")
    return 1 if counts else 0


def singular_lines(problem, quadrature):
    """The oracle lines of SINGULAR (group "singular"): problem(spec) makes
    a problem and quadrature(p, tol) runs the oracle on it."""
    for index, (f, g, alpha, beta, T, tol) in enumerate(SINGULAR):
        spec = {"f": f, "g": g, "alpha": alpha, "beta": beta, "n": 2, "T": T}
        yield {"group": "singular", "index": [index, 0], "f": f, "g": g,
               "oracle": outcome(lambda: quadrature(problem(spec), tol))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    parser.add_argument("--against", type=pathlib.Path, default=None,
                        help="a saved fingerprint (.jsonl) to count changes "
                             "against")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in lines(args.checkout.resolve()):
            print(json.dumps(line, sort_keys=True), flush=True)
        return 0
    return compare(lines(args.checkout.resolve()), args.against)


def lines(checkout: pathlib.Path):
    """The fingerprint of a checkout, one dict per problem or CLI run."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]

    import pool
    from oscphase.cli import main as cli_main
    from oscphase.coefficients import make_problem
    from oscphase.oracle import QuadratureSettings, oscillatory_quadrature_detail
    from oscphase.study import STUDY_MP_DPS, expand_auto

    def problem(spec):
        return make_problem(spec["f"], spec["g"], spec["alpha"], spec["beta"],
                            spec["n"], T=spec["T"])

    def line(group, index, spec, **parts):
        return {"group": group, "index": index, "f": spec["f"], "g": spec["g"],
                **parts}

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
        yield line(group, index, spec, **{
            mode: outcome(lambda: expand_auto(problem(spec), mp_dps=dps))
            for mode, dps in (("float", None), ("mp", STUDY_MP_DPS))})
    settings = QuadratureSettings(tol=pool.QUAD_TOL)
    for group, index, spec in specs(("small", "large", "trans", "txx", "fresnel")):
        yield line(group, index, spec, oracle=outcome(
            lambda: oscillatory_quadrature_detail(problem(spec), settings)))
    yield from singular_lines(problem, lambda p, tol: oscillatory_quadrature_detail(
        p, QuadratureSettings(tol=tol)))
    runs = [[command, "--config", f"configs/{config}"]
            for config in CONFIGS for command in ("expand", "audit", "quad")]
    for argv in runs + [["study", *STUDY_ARGS]]:
        yield cli_run(cli_main, checkout, argv)


if __name__ == "__main__":
    sys.exit(main())
