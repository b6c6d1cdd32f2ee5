"""Evaluate the benchmark's input pool once and store the reference values.

    python3 perfbench/freeze.py

writes `perfbench/reference.json`: the pool from `pool.build_pool` with each
problem's expansion values (float and mpmath), oracle dd parts and panel
counts, closed forms for the Fresnel and T*x^2 checks, and the study CSVs.
Runs check against these values, so regenerate them only on purpose: a
change to oscphase that moves any of them is what the checks exist to catch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mpmath  # noqa: E402

from oscphase import errors  # noqa: E402
from oscphase.study import STUDY_MP_DPS  # noqa: E402

import pool as inputs  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _mp_str(z) -> list:
    return [mpmath.nstr(z.real, 40), mpmath.nstr(z.imag, 40)]


def freeze_expand(spec: dict) -> None:
    if spec["kind"] == "reject":
        for mp_dps in (None, STUDY_MP_DPS):
            try:
                workloads.expand_op(spec, mp_dps)
            except getattr(errors, spec["expect"]):
                continue
            raise SystemExit(f"reject input did not raise: {spec}")
        return
    res = workloads.expand_op(spec, None)
    assert res.theorem == spec["kind"], spec
    spec["ref_float"] = [res.value.real, res.value.imag]
    res = workloads.expand_op(spec, STUDY_MP_DPS)
    with mpmath.workdps(40):
        spec["ref_mp"] = _mp_str(res.value)


def freeze_quad(spec: dict, closed=None) -> None:
    res = workloads.quad_op(workloads.problem(spec))
    spec["ref_dd"] = [[float(res.re_dd[0]), float(res.re_dd[1])],
                      [float(res.im_dd[0]), float(res.im_dd[1])]]
    spec["ref_panels"] = res.panels
    spec["ref_doublings"] = res.doublings
    if closed is not None:
        spec["closed_form"] = _mp_str(closed)


def fresnel_closed(T: float):
    """Integral of e(T x^2) over [-1, 1] = (C(2 sqrt T) + i S(2 sqrt T)) / sqrt T."""
    with mpmath.workdps(40):
        z = 2 * mpmath.sqrt(T)
        return mpmath.mpc(mpmath.fresnelc(z), mpmath.fresnels(z)) / mpmath.sqrt(T)


def main() -> int:
    pool = inputs.build_pool()
    for group in ("wsp", "fdt", "reject"):
        for variants in pool[group]:
            for spec in variants:
                freeze_expand(spec)
    for spec in pool["probe"]:
        freeze_expand(spec)
    for group in ("small", "large"):
        for variants in pool[group]:
            for spec in variants:
                freeze_quad(spec)
    for spec in pool["trans"]:
        freeze_quad(spec)
    for spec in pool["txx"]:
        freeze_quad(spec, fresnel_closed(spec["T"]))
    freeze_quad(pool["fresnel"], fresnel_closed(1.0))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        configs = workloads.write_configs(workdir)
        pool["study_csv"] = {}
        for t_min in pool["study"]:
            refs = {}
            for name, path, ns in configs:
                rc, csv = workloads.study_call(path, inputs.study_grid(t_min), ns)
                if rc != 0:
                    raise SystemExit(f"study {name} at Tmin={t_min} exited {rc}")
                refs[name] = csv
            pool["study_csv"][repr(t_min)] = refs
    finally:
        shutil.rmtree(workdir)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
