"""Command-line front-end: problem configs in, reports and CSV out.

Config format is flat ``key = value`` text with one optional ``[params]``
section for extra expression parameters::

    # canonical convergence family
    f = T*(x^2 + x^3/3)
    g = 1/(1+x^2)
    alpha = -0.5
    beta = 0.5
    n = 2
    T = 16384

Keys: f, g, alpha, beta, n (required); M, N, T, U (optional; defaults
M = beta-alpha, N = 1, U = 1, T inferred as max|f''| * M^2 on the scan grid).
Expressions may reference x, pi, T, M, N, U, and any [params] entries; a
[params] name may not repeat or be one of x, T, M, N, U.  --scan-points sets
the density of the problem's one scan grid (PhaseProblem.scan_points), which
the T fit, the stationary-point search, the audit and the oracle's panel
split all read.

Exit codes: 0 success, 1 config error, 2 engine/hypothesis error (among
them NonFinitePhaseError: f is not finite in double-double at an end of the
interval or at the stationary point) or an option the subcommand does not
read (argparse: --scan-points goes with expand, quad and audit, --tol with
quad and study, --grid with study), 3 quadrature non-convergence, 4 study
rows failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from .coefficients import SCAN_POINTS, PhaseProblem, make_problem
from .errors import (ConfigError, ExprDomainError, ExprError, OscPhaseError,
                     QuadratureNonConvergence, StationaryPointError)
from .expansion import (hypothesis_audit, smoothness_warnings,
                        stationary_phase_expand)
from .oracle import QuadratureSettings, oscillatory_quadrature_detail
from .study import (STUDY_MP_DPS, fitted_slopes, oracle_report, parse_grid,
                    rows_to_csv, run_study)

_TOP_KEYS = ("f", "g", "alpha", "beta", "M", "N", "T", "U", "n")
_REQUIRED = ("f", "g", "alpha", "beta", "n")
_BOUND = ("x", "T", "M", "N", "U")  # names the problem binds over [params]


@dataclass
class ProblemConfig:
    """Parsed config document (still textual where it matters)."""

    f: str
    g: str
    alpha: float
    beta: float
    n: int
    M: float | None = None
    N: float = 1.0
    U: float = 1.0
    T: float | None = None
    params: dict = field(default_factory=dict)

    def to_problem(self, n_override: int | None = None,
                   scan_points: int = SCAN_POINTS) -> PhaseProblem:
        return make_problem(self.f, self.g, self.alpha, self.beta,
                            self.n if n_override is None else n_override,
                            T=self.T, M=self.M, N=self.N, U=self.U,
                            params=self.params, scan_points=scan_points)


def parse_config(text: str) -> ProblemConfig:
    top: dict = {}
    params: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name != "params":
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = "params"
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "params":
            if key in _BOUND:
                raise ConfigError(f"line {lineno}: parameter {key} would be "
                                  "ignored: the problem binds that name")
            if key in params:
                raise ConfigError(f"line {lineno}: duplicate parameter: {key}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: parameter {key} is not a number") from None
            continue
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key: {key}")
        if key in top:
            raise ConfigError(f"duplicate key: {key}")
        top[key] = value
    for key in _REQUIRED:
        if key not in top:
            raise ConfigError(f"missing key: {key}")
    try:
        numbers = {key: float(value) for key, value in top.items()
                   if key not in ("f", "g", "n")}
        return ProblemConfig(f=top["f"], g=top["g"], n=int(top["n"]),
                             params=params, **numbers)
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from None


def _load(path: str) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None


def _fmt_complex_17(z: complex) -> str:
    return f"{z.real:.17g} {z.imag:+.17g}i"


def _fmt_complex_12(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12f} {sign} {abs(z.imag):.12f}i"


def _problem(args) -> PhaseProblem:
    """The config's problem at the --n order, on the --scan-points grid."""
    return _load(args.config).to_problem(n_override=args.n_int,
                                          scan_points=args.scan_points)


def cmd_expand(args) -> int:
    p = _problem(args)
    res = stationary_phase_expand(p)
    cs = res.coefficients
    print(f"theorem: weighted stationary phase (order n = {p.n})")
    print(f"orientation: {res.orientation}")
    print(f"gamma = {res.gamma:.17g}")
    print(f"lambda_2 = {cs.lam[2]:.17g}")
    for k in range(cs.order + 1):
        print(f"varpi[{k}] = {cs.varpi[k]:.17g}")
    print(f"main term = {_fmt_complex_17(res.main_term)}")
    for j, term in enumerate(res.per_order_main):
        print(f"  order {j} contribution = {_fmt_complex_17(term)}")
    print(f"boundary at alpha = {_fmt_complex_17(res.boundary_alpha)}")
    print(f"boundary at beta  = {_fmt_complex_17(res.boundary_beta)}")
    print(f"value = {_fmt_complex_17(res.value)}")
    print(f"error_scale = {res.error_scale:.17g}")
    audit = res.audit
    if audit is not None:
        print(f"audit: Delta = {audit.Delta:.17g}, "
              f"T^(1/(2n+3))*Delta = {p.T ** (1.0 / (2 * p.n + 3)) * audit.Delta:.17g}, "
              f"validity_ok = {audit.validity_ok}")
    for w in res.warnings:
        print(f"warning: {w}")
    return 0


def cmd_quad(args) -> int:
    p = _problem(args)
    result = oscillatory_quadrature_detail(p, QuadratureSettings(tol=args.tol))
    print(_fmt_complex_12(result.value))
    print(f"panels: {result.panels}")
    print(f"nodes: {result.nodes}")
    # The oracle evaluates g only inside its panels; the scan's jet walk also
    # visits alpha, beta and the grid, where g's jet may be undefined (as for
    # sqrt(x - 1) at x = 1).  The value stands either way.
    try:
        warnings = smoothness_warnings(p)
    except ExprDomainError as exc:
        warnings = [f"the smoothness scan stopped: {exc}; "
                    "smoothness hypotheses unchecked"]
    for w in warnings:
        print(f"warning: {w}")
    return 0


def cmd_study(args) -> int:
    cfg = _load(args.config)
    p = cfg.to_problem()
    ts = parse_grid(args.grid) if args.grid else [p.T]
    ns = args.n_list or [p.n]
    settings = None if args.tol is None else QuadratureSettings(tol=args.tol)
    rows = run_study(p, ts, ns, settings, mp_dps=STUDY_MP_DPS)
    sys.stdout.write(rows_to_csv(rows))
    for line in oracle_report(rows):
        sys.stderr.write(line + "\n")
    for n, slope in fitted_slopes(rows).items():
        sys.stderr.write(f"n={n}: fitted slope of log2|error| vs log2 T = {slope:.4f}\n")
    return 4 if any(r.failed for r in rows) else 0


def cmd_audit(args) -> int:
    p = _problem(args)
    a = hypothesis_audit(p)
    for r in sorted(a.C_f):
        print(f"C_f[{r}] = {a.C_f[r]:.17g}")
    for s in sorted(a.C_g):
        print(f"C_g[{s}] = {a.C_g[s]:.17g}")
    if not a.C2_lower_ok:
        print("lower second-derivative bound violated "
              "(sigma*f'' <= 0 somewhere)")
    print(f"Delta = {a.Delta:.17g}")
    print(f"T^(1/(2n+3))*Delta = {p.T ** (1.0 / (2 * p.n + 3)) * a.Delta:.17g}")
    print(f"validity_ok = {a.validity_ok}")
    print(f"r1 = {a.r1:.17g}")
    print(f"r2 = {a.r2:.17g}")
    print(f"r = {a.r:.17g}")
    print(f"M >= beta - alpha: {a.M_ok}")
    print(f"sign profile: {a.sign_profile}")
    for w in a.warnings:
        print(f"warning: {w}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscphase",
        description="Weighted stationary-phase expansion of oscillatory "
                    "integrals, with a direct-quadrature oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "expand": "evaluate the stationary-phase expansion",
        "quad": "evaluate the direct-quadrature oracle",
        "study": "run a T-grid convergence study (CSV on stdout)",
        "audit": "fit the hypothesis constants and validity condition",
    }
    for name, help_text in specs.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, help="problem config path")
        s.add_argument("--n", default=None,
                       help="order override (expand/quad/audit) or "
                            "comma-separated list (study)")
        if name != "study":
            s.add_argument("--scan-points", type=int, default=SCAN_POINTS,
                           help="density of the problem's scan grid "
                                "(default 512)")
        if name == "quad":
            s.add_argument("--tol", type=float, default=QuadratureSettings.tol,
                           help="quadrature tolerance (default %(default)s)")
        if name == "study":
            s.add_argument("--tol", type=float, default=None,
                           help="quadrature tolerance at every T (default: "
                                "per T, from the rows' error_scale)")
        if name == "study":
            s.add_argument("--grid", default=None,
                           help="T grid as Tmin:Tmax:factor")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.n_int = None
    args.n_list = None
    if args.n is not None:
        try:
            values = [int(v) for v in str(args.n).split(",")]
        except ValueError:
            values = []
        if (not values or min(values) < 1
                or (len(values) > 1 and args.command != "study")):
            print(f"bad --n value: {args.n}", file=sys.stderr)
            return 1
        args.n_list = values
        args.n_int = values[0]
    handler = {"expand": cmd_expand, "quad": cmd_quad,
               "study": cmd_study, "audit": cmd_audit}[args.command]
    try:
        return handler(args)
    except (ConfigError, ExprError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except QuadratureNonConvergence as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except StationaryPointError as exc:
        from .errors import NoSignChange
        if isinstance(exc, NoSignChange):
            print("no stationary point; use quad or fdt", file=sys.stderr)
        else:
            print(str(exc), file=sys.stderr)
        return 2
    except OscPhaseError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
