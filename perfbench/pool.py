"""Benchmark inputs: a frozen pool of problems and the seeded draws from it.

`build_pool` makes every problem the benchmark can run, from a fixed master
seed; `freeze.py` evaluates them once and stores the results beside them in
`reference.json`.  A run draws its inputs from that pool with its own
`--seed`, so every input it runs has a frozen reference value.

Draws keep the composition of each set fixed (how many problems of each
order, orientation, weight kind and phase scale), so a run's amount of work
does not depend on the seed; the seed chooses the coefficients, the
intervals and the order in which the problems run.
"""

from __future__ import annotations

import math
import random

MASTER_SEED = 20161601

# expand_mix: 10 blocks of 10 problems (7 stationary, 2 monotone, 1 reject).
EXPAND_BLOCKS = 10
WSP_PER_BLOCK, FDT_PER_BLOCK = 7, 2
WSP_VARIANTS, FDT_VARIANTS, REJECT_VARIANTS = 4, 4, 8
WEIGHT_KINDS = ("poly", "rational", "trans")
REJECT_KINDS = ("MultipleSignChanges", "DegenerateStationaryPoint")

# oracle_sweep sets: (phase scale T, turns of phase per problem).  Small-T
# node arrays stay inside a 2 MB L2; large-T ones do not.  The turn count
# fixes the panel count, hence the work.  A run draws one phase of each shape
# per small scale and one stationary phase at either large scale.
SMALL_SET = ((2.0 ** 9, 256), (2.0 ** 10, 512))
LARGE_SET = ((2.0 ** 14, 4096), (2.0 ** 15, 4096))
SHAPES = ("stationary", "monotone")
TRANS_TURNS, TRANS_DRAWN = 1024, 2
ORACLE_VARIANTS = 6
QUAD_TOL = 1e-12

# Off-focus expansions: one-sided monotone probes whose cost grows with the
# weight's degree, so the latency median moves smoothly when the machine
# slows, instead of jumping between the two speeds of a single problem.
PROBE_WEIGHT_DEGREES = 4

# study_cli: grids Tmin:4*Tmin:2 with Tmin = 512 * (1 + j/256).
STUDY_GRIDS = 8


def _fmt(v: float) -> str:
    return repr(float(v))


def _shift(c: float) -> str:
    return f"(x - {_fmt(c)})" if c >= 0 else f"(x + {_fmt(-c)})"


def _round(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _weight(kind: str, rng: random.Random, positive_x: bool) -> str:
    if kind == "poly":
        b1, b2 = _round(rng, -0.5, 0.5), _round(rng, -0.4, 0.4)
        return f"1 + x*({_fmt(b1)} + {_fmt(b2)}*x)"
    if kind == "rational":
        b = _round(rng, 0.5, 2.0)
        return f"1/({_fmt(b)} + x)" if positive_x else f"1/(1 + {_fmt(b)}*x^2)"
    b = _round(rng, 0.3, 1.2)
    return f"exp(-{_fmt(b)}*x)" if positive_x else f"cos({_fmt(b)}*x)"


def _wsp_combo(c: int) -> tuple[str, int, bool, str]:
    """Stationary combo c in 0..47 -> (weight kind, n, T inferred, orient).

    The map is one to one, and any 21 consecutive combos from 0 cover every
    weight kind, order, orientation and way of giving T, so the first three
    blocks of a draw (the traced work) load every path.
    """
    k = c // 12
    return (WEIGHT_KINDS[c % 3], c % 4 + 1, bool((k // 2) ^ (c % 2)),
            "max" if k % 2 else "min")


def _wsp_problem(c: int, rng: random.Random) -> dict:
    """Cubic phase (x - g0)^2 (1 + a (x - g0)), written out in Horner form,
    with its one stationary point g0 inside the interval and f'' > 0 on it
    (f'' = 2 + 6 a (x - g0) >= 2 - 6 * 0.4 * 0.55).  Horner form keeps the
    expression, and so each of the ~3000 jet walks per call, short."""
    kind, n, inferred, orient = _wsp_combo(c)
    g0 = _round(rng, -0.3, 0.3)
    a = _round(rng, -0.4, 0.4)
    left, right = _round(rng, 0.35, 0.55), _round(rng, 0.35, 0.55)
    b3, b2, b1 = a, 1.0 - 3.0 * a * g0, 3.0 * a * g0 * g0 - 2.0 * g0
    shape = f"x*({_fmt(b1)} + x*({_fmt(b2)} + {_fmt(b3)}*x))"
    scale = 2.0 ** rng.randint(10, 14)
    sign = "-" if orient == "max" else ""
    f = f"{sign}{_fmt(scale)}*({shape})" if inferred else f"{sign}T*({shape})"
    return {"kind": "wsp", "f": f, "g": _weight(kind, rng, False),
            "alpha": round(g0 - left, 3), "beta": round(g0 + right, 3),
            "n": n, "T": None if inferred else scale}


def _fdt_problem(c: int, rng: random.Random) -> dict:
    kind, n = WEIGHT_KINDS[c % 3], (c // 3) % 4 + 1
    a, w, d = _round(rng, 0.5, 1.5), _round(rng, 0.5, 1.0), _round(rng, 0.05, 0.3)
    sign = "-" if rng.random() < 0.5 else ""
    return {"kind": "fdt", "f": f"{sign}T*(x + {_fmt(d)}*x^2)",
            "g": _weight(kind, rng, True), "alpha": a, "beta": round(a + w, 3),
            "n": n, "T": 2.0 ** rng.randint(10, 14)}


def _reject_problem(kind: str, rng: random.Random) -> dict:
    n = rng.randint(1, 4)
    if kind == "MultipleSignChanges":
        b = _round(rng, 0.2, 0.6)
        return {"kind": "reject", "expect": kind, "f": f"T*(x^3 - {_fmt(b)}*x)",
                "g": "1", "alpha": -1.0, "beta": 1.0, "n": n, "T": 1024.0}
    c = _round(rng, -0.2, 0.2)
    return {"kind": "reject", "expect": kind, "f": f"T*{_shift(c)}^4",
            "g": "1/(1 + x^2)", "alpha": round(c - 0.45, 3),
            "beta": round(c + 0.55, 3), "n": n, "T": 1024.0}


def _poly_phase(T: float, turns: float, rng: random.Random) -> dict:
    """Stationary or monotone cubic phase scaled to carry `turns` turns."""
    a3 = _round(rng, -0.4, 0.4)
    if rng.random() < 0.5:
        g0 = _round(rng, -0.2, 0.2)
        alpha, beta = round(g0 - 0.5, 3), round(g0 + 0.5, 3)
        u = _shift(g0)
        shape = f"{u}^2 + {_fmt(a3)}*{u}^3"

        def p(x):
            return (x - g0) ** 2 + a3 * (x - g0) ** 3
        variation = abs(p(alpha)) + abs(p(beta))
    else:
        alpha, beta = 0.0, 1.0
        shape = f"x + {_fmt(abs(a3))}*x^2"
        variation = 1.0 + abs(a3)
    k = turns / (T * variation)
    g = f"1/(1 + {_fmt(_round(rng, 0.2, 1.0))}*x^2)"
    return {"f": f"T*{_fmt(k)}*({shape})", "g": g, "alpha": alpha,
            "beta": beta, "n": 2, "T": T,
            "shape": "monotone" if alpha == 0.0 else "stationary"}


def _trans_phase(rng: random.Random) -> dict:
    a = _round(rng, 0.0, 2.0)
    T = TRANS_TURNS / (1.0 + (math.sin(a + 1.0) - math.sin(a)) / 10.0)
    return {"f": "T*(x + sin(x)/10)", "g": f"1 + {_fmt(_round(rng, 0.0, 0.5))}*x",
            "alpha": a, "beta": round(a + 1.0, 3), "n": 2, "T": T}


def _poly_weight(degree: int) -> str:
    return " + ".join(["1"] + [f"0.1*x^{k}" for k in range(1, degree + 1)])


def build_pool() -> dict:
    """Every problem the benchmark can draw, without reference values."""
    rng = random.Random(MASTER_SEED)
    return {
        "wsp": [[_wsp_problem(c, rng) for _ in range(WSP_VARIANTS)]
                for c in range(48)],
        "fdt": [[_fdt_problem(c, rng) for _ in range(FDT_VARIANTS)]
                for c in range(12)],
        "reject": [[_reject_problem(k, rng) for _ in range(REJECT_VARIANTS)]
                   for k in REJECT_KINDS],
        "small": [[_poly_phase(T, turns, rng) for _ in range(ORACLE_VARIANTS)]
                  for T, turns in SMALL_SET],
        "large": [[_poly_phase(T, turns, rng) for _ in range(ORACLE_VARIANTS)]
                  for T, turns in LARGE_SET],
        "trans": [_trans_phase(rng) for _ in range(ORACLE_VARIANTS)],
        "txx": [{"f": "T*x^2", "g": "1", "alpha": -1.0, "beta": 1.0, "n": 2,
                 "T": 256.0 + 0.25 * k} for k in range(ORACLE_VARIANTS)],
        "fresnel": {"f": "x^2", "g": "1", "alpha": -1.0, "beta": 1.0, "n": 2,
                    "T": None},
        "study": [512.0 * (1.0 + j / 256.0) for j in range(STUDY_GRIDS)],
        "probe": [{"kind": "fdt", "f": "T*x", "g": _poly_weight(d),
                   "alpha": 0.0, "beta": 1.0, "n": 1, "T": 1024.0}
                  for d in range(PROBE_WEIGHT_DEGREES)],
    }


def draw_expand(seed: int, pool: dict, blocks: int = EXPAND_BLOCKS) -> list:
    """expand_mix inputs: `blocks` blocks of 10 pool problems each."""
    rng = random.Random(f"expand:{seed}")
    out = []
    for b in range(blocks):
        block = [pool["wsp"][j % 48][rng.randrange(WSP_VARIANTS)]
                 for j in range(WSP_PER_BLOCK * b, WSP_PER_BLOCK * (b + 1))]
        block += [pool["fdt"][k % 12][rng.randrange(FDT_VARIANTS)]
                  for k in range(FDT_PER_BLOCK * b, FDT_PER_BLOCK * (b + 1))]
        block.append(pool["reject"][b % 2][rng.randrange(REJECT_VARIANTS)])
        rng.shuffle(block)
        out += block
    return out


def draw_oracle(seed: int, pool: dict) -> dict:
    """oracle_sweep inputs: the small-T, large-T and transcendental sets."""
    rng = random.Random(f"oracle:{seed}")

    def shaped(groups, shape):
        return [s for variants in groups for s in variants if s["shape"] == shape]

    # The shape sets the cost (the stationary one is a longer expression
    # and splits at its root), so every draw holds the same shapes.
    small = [rng.choice(shaped([variants], shape))
             for variants in pool["small"] for shape in SHAPES]
    small += [pool["fresnel"], rng.choice(pool["txx"])]
    large = [rng.choice(shaped(pool["large"], "stationary"))]
    trans = rng.sample(pool["trans"], TRANS_DRAWN)
    return {"small": small, "large": large, "trans": trans}


def draw_study(seed: int, pool: dict) -> float:
    """study_cli input: the lowest T of the study grid."""
    return random.Random(f"study:{seed}").choice(pool["study"])


def study_grid(t_min: float) -> str:
    return f"{_fmt(t_min)}:{_fmt(4 * t_min)}:2"


CUBIC_CONFIG = ("f = T*(x^2 + x^3/3)\ng = 1/(1+x^2)\nalpha = -0.5\n"
                "beta = 0.5\nn = 2\nT = 16384\n")
MONOTONE_CONFIG = ("f = T*(x + x^2/10)\ng = 1/x\nalpha = 1\nbeta = 2\n"
                   "n = 3\nT = 10000\n")
STUDY_RUNS = (("cubic", CUBIC_CONFIG, "1,2,3"), ("monotone", MONOTONE_CONFIG, "3"))
