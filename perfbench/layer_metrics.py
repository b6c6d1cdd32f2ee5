"""Per-layer metrics of a traced pass, as printed with --trace 1."""

from __future__ import annotations

import statistics

import numpy as np

from tracing import ancestors_named, root_time, self_times
from workloads import DD_NODE_BYTES, NODES_PER_PANEL

ORACLE = "oracle.oscillatory_quadrature_detail"
WATCH = (ORACLE, "study.run_study")
OPS = ("op.expand", "op.quad", "op.study")

# (metric name, unit) in report order; "<layer>.<function>.<stat>" names
# come straight from the span aggregates.
PER_LAYER = (
    ("exprs.eval_jet.calls", "count"), ("exprs.eval_jet.self_s", "s"),
    ("exprs.eval_real.calls", "count"), ("exprs.eval_array.self_s", "s"),
    ("exprs.eval_dd.self_s", "s"), ("exprs.eval_dd.ns_per_node", "ns"),
    ("jets.jet_revert.self_s", "s"), ("jets.jet_compose.self_s", "s"),
    ("jets.jet_map.self_s", "s"),
    ("coefficients.find_stationary_point.calls", "count"),
    ("coefficients.find_stationary_point.self_s", "s"),
    ("coefficients.amplitude_series.calls", "count"),
    ("coefficients.amplitude_series.self_s", "s"),
    ("coefficients.recursion_coefficients.self_s", "s"),
    ("coefficients.mp_coefficients.self_s", "s"),
    ("coefficients.infer_T.self_s", "s"),
    ("expansion.hypothesis_audit.calls", "count"),
    ("expansion.hypothesis_audit.self_s", "s"),
    ("expansion.boundary_terms.self_s", "s"),
    ("expansion.error_scale_terms.self_s", "s"),
    ("expansion.fdt_error_terms.self_s", "s"),
    ("oracle.build_breakpoints.self_s", "s"),
    ("oracle.oscillatory_quadrature_detail.self_s", "s"),
    ("oracle.panels", "count"), ("oracle.doublings", "count"),
    ("oracle.nodes", "count"), ("oracle.useful_node_ratio", "ratio"),
    ("oracle.ns_per_node", "ns"), ("oracle.dev_max", "abs"),
    ("ddmath.e_unit_dd.self_s", "s"), ("ddmath.e_unit_dd.ns_per_elem", "ns"),
    ("ddmath.sum_nodes.self_s", "s"), ("ddmath.sum_pairwise.self_s", "s"),
    ("ddmath.node_array_bytes", "B_computed"),
    ("ddmath.import_s", "s"), ("ddmath.gauss_legendre_dd.cold_s", "s"),
    ("study.run_study.self_s", "s"), ("study.rows", "count"),
    ("study.failed_rows", "count"), ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unlayered_s", "s"),
    ("trace.outside_s", "s"), ("trace.spans", "count"),
)


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def per_layer(tracer, wall: float, untraced: float, children: list,
              dev_max: float, out) -> dict:
    """Reduce the tracer's spans to the PER_LAYER metrics.

    Self times of the layer spans, of the benchmark's own operation spans
    (library time in no traced layer) and the time outside every span add
    up to the traced wall time; that closure is checked as one operation.
    """
    spans = tracer.spans
    n = len(spans)
    names = np.array(spans.names + [""], dtype=object)[
        np.frombuffer(spans.name, dtype=np.int32, count=n)]
    selfs = self_times(spans)
    dur = (np.frombuffer(spans.end, dtype=np.float64, count=n)
           - np.frombuffer(spans.start, dtype=np.float64, count=n))
    elems = np.frombuffer(spans.elems, dtype=np.int64, count=n)
    in_oracle = ancestors_named(spans, ORACLE)

    def sel(name, mask=None):
        m = names == name
        return m if mask is None else m & mask

    values = {}
    for key in {k for k, _ in PER_LAYER}:
        layer_fn, _, stat = key.rpartition(".")
        if stat == "calls":
            values[key] = int(sel(layer_fn).sum())
        elif stat == "self_s":
            values[key] = float(selfs[sel(layer_fn)].sum())

    results = tracer.results
    quads = [r for name, r in results if name == ORACLE]
    rows = [row for name, r in results if name == "study.run_study" for row in r]
    nodes = int(elems[sel("ddmath.e_unit_dd", in_oracle)].sum())
    unit_elems = int(elems[sel("ddmath.e_unit_dd")].sum())
    panels = sum(q.panels for q in quads)
    values.update({
        "exprs.eval_dd.ns_per_node": _ratio(
            1e9 * float(selfs[sel("exprs.eval_dd", in_oracle)].sum()), nodes),
        "oracle.panels": panels,
        "oracle.doublings": sum(q.doublings for q in quads),
        "oracle.nodes": nodes,
        "oracle.useful_node_ratio": _ratio(
            panels * NODES_PER_PANEL, nodes),
        "oracle.ns_per_node": _ratio(1e9 * float(dur[sel(ORACLE)].sum()), nodes),
        "oracle.dev_max": dev_max,
        "ddmath.e_unit_dd.ns_per_elem": _ratio(
            1e9 * float(selfs[sel("ddmath.e_unit_dd")].sum()), unit_elems),
        "ddmath.node_array_bytes": DD_NODE_BYTES * int(
            elems[sel("ddmath.e_unit_dd")].max(initial=0)),
        "ddmath.import_s": statistics.median(c["ddmath_import_s"] for c in children),
        "ddmath.gauss_legendre_dd.cold_s": statistics.median(
            c["gauss_legendre_dd_cold_s"] for c in children),
        "study.rows": len(rows),
        "study.failed_rows": sum(1 for row in rows if row.failed),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.unlayered_s": float(selfs[np.isin(names, OPS)].sum()),
        "trace.outside_s": wall - root_time(spans),
        "trace.spans": n,
    })
    layered = float(selfs[~np.isin(names, OPS)].sum())
    closure = layered + values["trace.unlayered_s"] + values["trace.outside_s"]
    out.record(abs(closure - wall) <= 1e-6 * wall and values["trace.outside_s"] >= 0,
               f"trace closure: layers + remainder = {closure:.6f} s, wall {wall:.6f} s")
    units = dict(PER_LAYER)
    return {key: {"value": values[key], "unit": units[key]} for key, _ in PER_LAYER}

