"""Tests of the benchmark itself: its inputs, its span arithmetic, and that
tracing leaves oscphase's results untouched.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import compare
import pool as inputs
from tracing import Spans, Tracer, ancestors_named, root_time, self_times

HERE = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _strip_refs(value):
    """The pool as build_pool makes it: reference fields removed."""
    if isinstance(value, dict):
        return {k: _strip_refs(v) for k, v in value.items()
                if not k.startswith(("ref_", "closed_")) and k != "study_csv"}
    if isinstance(value, list):
        return [_strip_refs(v) for v in value]
    return value


def _composition(specs):
    """What sets a problem's cost: kind, order, orientation, how T is given.

    A reject input raises before its order matters, and a monotone phase's
    sign does not change the first-derivative test's work.
    """
    return Counter((s["kind"], s.get("expect"), s["T"] is None,
                    s["n"] if s["kind"] != "reject" else None,
                    s["f"].startswith("-") if s["kind"] == "wsp" else None)
                   for s in specs)


def test_reference_matches_pool_generator():
    assert _strip_refs(REFERENCE) == json.loads(json.dumps(inputs.build_pool()))


def test_draws_are_deterministic_per_seed():
    assert inputs.draw_expand(7, REFERENCE) == inputs.draw_expand(7, REFERENCE)
    assert inputs.draw_oracle(7, REFERENCE) == inputs.draw_oracle(7, REFERENCE)
    assert inputs.draw_study(7, REFERENCE) == inputs.draw_study(7, REFERENCE)


def test_draws_differ_between_seeds():
    assert inputs.draw_expand(1, REFERENCE) != inputs.draw_expand(2, REFERENCE)
    assert inputs.draw_oracle(1, REFERENCE) != inputs.draw_oracle(2, REFERENCE)
    assert len({inputs.draw_study(s, REFERENCE) for s in range(10)}) > 1


def test_expand_draw_has_fixed_composition():
    first = inputs.draw_expand(1, REFERENCE)
    assert len(first) == 100
    kinds = Counter(s["kind"] for s in first)
    assert kinds == {"wsp": 70, "fdt": 20, "reject": 10}
    for seed in (2, 3):
        assert _composition(inputs.draw_expand(seed, REFERENCE)) == _composition(first)


def test_oracle_draw_has_fixed_composition():
    def composition(sets):
        # Shaped phases by scale and shape; the rest (closed-form checks,
        # the transcendental family) by expression.
        return {name: sorted((s["T"], s["shape"]) if name == "small" and "shape" in s
                             else (0.0, s.get("shape", s["f"])) for s in specs)
                for name, specs in sets.items()}

    first = composition(inputs.draw_oracle(1, REFERENCE))
    assert first["large"] == [(0, "stationary")]
    for seed in (2, 3, 4):
        assert composition(inputs.draw_oracle(seed, REFERENCE)) == first


def test_traced_blocks_cover_every_path():
    specs = inputs.draw_expand(5, REFERENCE, blocks=3)
    wsp = [s for s in specs if s["kind"] == "wsp"]
    assert {s["n"] for s in wsp} == {1, 2, 3, 4}
    assert {s["T"] is None for s in wsp} == {True, False}
    assert {s["f"].startswith("-") for s in wsp} == {True, False}
    assert {s.get("expect") for s in specs if s["kind"] == "reject"} == set(inputs.REJECT_KINDS)


def _tree(with_overlap: bool) -> Spans:
    spans = Spans()
    root = spans.add("root", 0.0, 10.0, -1)
    a = spans.add("a", 1.0, 4.0, root)
    spans.add("c", 2.0, 3.0, a)
    b = spans.add("b", 5.0, 9.0, root)
    spans.add("d", 5.0, 6.0, b)
    if with_overlap:
        spans.add("e", 5.5, 7.0, b)
    spans.add("other_root", 11.0, 12.5, -1)
    return spans


def test_self_time_subtracts_children():
    got = self_times(_tree(with_overlap=False))
    assert list(got) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0, 1.5])
    # Nested, non-overlapping spans: self times partition the roots.
    assert got.sum() == pytest.approx(10.0 + 1.5)


def test_self_time_counts_overlapping_children_once():
    got = self_times(_tree(with_overlap=True))
    # b = 4 s minus the union of d [5, 6] and e [5.5, 7], which is 2 s.
    assert got[3] == pytest.approx(2.0)
    assert got[5] == pytest.approx(1.5)


def test_root_time_and_ancestor_mask():
    spans = _tree(with_overlap=False)
    assert root_time(spans) == pytest.approx(10.0 + 1.5)
    assert list(ancestors_named(spans, "a")) == [False, False, True, False,
                                                 False, False]


SAMPLE = """
import sys
sys.path[:0] = {paths!r}
import workloads
from oscphase.study import STUDY_MP_DPS
import compare
import pool as inputs

def results(ref):
    out = workloads.Outcome()
    probe = ref["probe"][-1]
    wsp = ref["wsp"][0][0]
    return [repr(workloads.expand_op(probe, None).value),
            repr(workloads.expand_op(wsp, None).value),
            repr(workloads.expand_op(wsp, STUDY_MP_DPS).value),
            repr(workloads.quad_op(workloads.problem(ref["fresnel"])).re_dd),
            workloads.study_call({cfg!r}, "64:128:2", "2")]

if __name__ == "__main__":
    import json
    with open({ref!r}) as fh:
        print(json.dumps(results(json.load(fh))))
"""


def test_untraced_results_after_tracing_are_bit_identical(tmp_path):
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text(inputs.CUBIC_CONFIG)
    code = SAMPLE.format(paths=[str(HERE.parent / "src"), str(HERE)],
                         cfg=str(cfg), ref=str(HERE / "reference.json"))
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=300, check=True)
    never_wrapped = json.loads(fresh.stdout.strip().splitlines()[-1])

    namespace = {"__name__": "sample"}
    exec(code, namespace)
    import oscphase.coefficients as coefficients
    import oscphase.exprs as exprs
    originals = (exprs.eval_jet, coefficients.eval_jet, exprs.eval_dd)

    tracer = Tracer()
    tracer.install()
    try:
        traced = namespace["results"](REFERENCE)
        assert coefficients.eval_jet is not originals[1]
    finally:
        tracer.restore()
    assert len(tracer.spans) > 0
    assert (exprs.eval_jet, coefficients.eval_jet, exprs.eval_dd) == originals
    after = namespace["results"](REFERENCE)
    assert json.loads(json.dumps(after)) == never_wrapped
    assert json.loads(json.dumps(traced)) == never_wrapped


def test_compare_refuses_runs_on_other_backends(tmp_path, capsys):
    def log(name, backend, value):
        env = {"workload": "oracle_sweep", "backend": backend, "nproc": 2}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"quad_large_s": {"value": value, "unit": "s"}}}
        path = tmp_path / name
        path.write_text(json.dumps({"env": env}) + "\n" + json.dumps(result) + "\n")
        return str(path)

    parent = log("parent.log", "numpy", 2.0)
    assert compare.main([parent, log("same.log", "numpy", 1.5)]) == 0
    assert "-25.0%" in capsys.readouterr().out
    assert compare.main([parent, log("other.log", "numba", 1.5)]) == 2
