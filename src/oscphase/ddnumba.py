"""Numba-compiled fast path for the quadrature inner loop.

The numpy dd evaluator makes hundreds of elementwise passes per integrand
evaluation, which is memory-bound at millions of nodes.  Here the expression
trees for f and g are compiled to straight-line scalar dd code (source
generated from the AST, then jitted), fused with node generation, phase
reduction, the sin/cos kernels, and the weighted panel sums of the
Gauss-Legendre rule, of the rule embedded in its nodes and of the coarse
null rule.  Everything is
semantically identical to the numpy path; if numba is unavailable the caller
falls back to that path.
"""

from __future__ import annotations

import math

import numpy as np

from . import ddmath
from .errors import ExprDomainError
from .exprs import Call, Expr, Neg, Num, Sym, format_expr

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency in CI
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(fn):
            return fn
        return deco if not (args and callable(args[0])) else args[0]


_TWO_PI_H = float(ddmath.TWO_PI[0])
_TWO_PI_L = float(ddmath.TWO_PI[1])
_S0_H, _S0_L = (float(v) for v in ddmath._SIN_COEF[0])
_S1_H, _S1_L = (float(v) for v in ddmath._SIN_COEF[1])
_S2_H, _S2_L = (float(v) for v in ddmath._SIN_COEF[2])
_S3_H, _S3_L = (float(v) for v in ddmath._SIN_COEF[3])
_S4_H, _S4_L = (float(v) for v in ddmath._SIN_COEF[4])
_C0_H, _C0_L = (float(v) for v in ddmath._COS_COEF[0])
_C1_H, _C1_L = (float(v) for v in ddmath._COS_COEF[1])
_C2_H, _C2_L = (float(v) for v in ddmath._COS_COEF[2])
_C3_H, _C3_L = (float(v) for v in ddmath._COS_COEF[3])
_C4_H, _C4_L = (float(v) for v in ddmath._COS_COEF[4])
_TAB_DIV = float(ddmath._TAB_DIV)
_TAB_HALF = ddmath._TAB_DIV // 2
_SPLITTER = 134217729.0


@njit(cache=True)
def _dd_add(ah, al, bh, bl):
    s1 = ah + bh
    bb = s1 - ah
    s2 = (ah - (s1 - bb)) + (bh - bb)
    t1 = al + bl
    bb = t1 - al
    t2 = (al - (t1 - bb)) + (bl - bb)
    s2 += t1
    t = s1 + s2
    s2 = s2 - (t - s1)
    s1 = t
    s2 += t2
    t = s1 + s2
    s2 = s2 - (t - s1)
    return t, s2


@njit(cache=True)
def _dd_mul(ah, al, bh, bl):
    p = ah * bh
    c = _SPLITTER * ah
    ahi = c - (c - ah)
    alo = ah - ahi
    c = _SPLITTER * bh
    bhi = c - (c - bh)
    blo = bh - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    err += ah * bl + al * bh
    t = p + err
    return t, err - (t - p)


@njit(cache=True)
def _dd_div(ah, al, bh, bl):
    q1 = ah / bh
    th, tl = _dd_mul(bh, bl, q1, 0.0)
    rh, rl = _dd_add(ah, al, -th, -tl)
    q2 = rh / bh
    th, tl = _dd_mul(bh, bl, q2, 0.0)
    rh, rl = _dd_add(rh, rl, -th, -tl)
    q3 = rh / bh
    s = q1 + q2
    e = q2 - (s - q1)
    return _dd_add(s, e, q3, 0.0)


@njit(cache=True)
def _dd_sqrt(ah, al):
    if ah <= 0.0:
        return math.sqrt(ah + al), 0.0  # nan propagates for negatives
    s = math.sqrt(ah)
    th, tl = _dd_mul(s, 0.0, s, 0.0)
    rh, rl = _dd_add(ah, al, -th, -tl)
    lo = rh / (2.0 * s)
    t = s + lo
    return t, lo - (t - s)


@njit(cache=True)
def _dd_e_unit(fh, fl, tab_sin_h, tab_sin_l, tab_cos_h, tab_cos_l):
    """(cos, sin) of 2*pi*(fh+fl) as dd pairs, via mod-1 reduction."""
    k = math.floor(fh + 0.5)
    h = fh - k
    s1 = h + fl
    bb = s1 - h
    e = (h - (s1 - bb)) + (fl - bb)
    k2 = math.floor(s1 + 0.5)
    s1 -= k2
    t = s1 + e
    e = e - (t - s1)
    s1 = t
    m = math.floor(s1 * _TAB_DIV + 0.5)
    rh = s1 - m / _TAB_DIV  # exact
    rh, rl = _dd_add(rh, e, 0.0, 0.0)
    th, tl = _dd_mul(rh, rl, _TWO_PI_H, _TWO_PI_L)
    uh, ul = _dd_mul(th, tl, th, tl)
    # sin(theta)/theta
    ph, pl = _S4_H, _S4_L
    ph, pl = _dd_mul(ph, pl, uh, ul)
    ph, pl = _dd_add(ph, pl, _S3_H, _S3_L)
    ph, pl = _dd_mul(ph, pl, uh, ul)
    ph, pl = _dd_add(ph, pl, _S2_H, _S2_L)
    ph, pl = _dd_mul(ph, pl, uh, ul)
    ph, pl = _dd_add(ph, pl, _S1_H, _S1_L)
    ph, pl = _dd_mul(ph, pl, uh, ul)
    ph, pl = _dd_add(ph, pl, _S0_H, _S0_L)
    sh, sl = _dd_mul(th, tl, ph, pl)
    # cos(theta)
    qh, ql = _C4_H, _C4_L
    qh, ql = _dd_mul(qh, ql, uh, ul)
    qh, ql = _dd_add(qh, ql, _C3_H, _C3_L)
    qh, ql = _dd_mul(qh, ql, uh, ul)
    qh, ql = _dd_add(qh, ql, _C2_H, _C2_L)
    qh, ql = _dd_mul(qh, ql, uh, ul)
    qh, ql = _dd_add(qh, ql, _C1_H, _C1_L)
    qh, ql = _dd_mul(qh, ql, uh, ul)
    qh, ql = _dd_add(qh, ql, _C0_H, _C0_L)
    idx = int(m) + _TAB_HALF
    tsh = tab_sin_h[idx]
    tsl = tab_sin_l[idx]
    tch = tab_cos_h[idx]
    tcl = tab_cos_l[idx]
    ah, al = _dd_mul(sh, sl, tch, tcl)
    bh, bl = _dd_mul(qh, ql, tsh, tsl)
    sin_h, sin_l = _dd_add(ah, al, bh, bl)
    ah, al = _dd_mul(qh, ql, tch, tcl)
    bh, bl = _dd_mul(sh, sl, tsh, tsl)
    cos_h, cos_l = _dd_add(ah, al, -bh, -bl)
    return cos_h, cos_l, sin_h, sin_l


class _Emitter:
    """Generate straight-line scalar dd source from an expression tree."""

    def __init__(self, param_index: dict[str, int]):
        self.param_index = param_index
        self.lines: list[str] = []
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def emit(self, node: Expr) -> tuple[str, str]:
        if isinstance(node, Num):
            v = self.fresh()
            self.lines.append(f"{v}_h = {node.value!r}; {v}_l = 0.0")
            return f"{v}_h", f"{v}_l"
        if isinstance(node, Sym):
            if node.name == "x":
                return "x_h", "x_l"
            if node.name in self.param_index:
                v = self.fresh()
                self.lines.append(
                    f"{v}_h = pv[{self.param_index[node.name]}]; {v}_l = 0.0")
                return f"{v}_h", f"{v}_l"
            if node.name == "pi":
                v = self.fresh()
                self.lines.append(
                    f"{v}_h = {math.pi!r}; {v}_l = {float(ddmath.TWO_PI[1]) / 2!r}")
                return f"{v}_h", f"{v}_l"
            raise ExprDomainError(f"unbound symbol '{node.name}'", node.offset)
        if isinstance(node, Neg):
            ch, cl = self.emit(node.child)
            v = self.fresh()
            self.lines.append(f"{v}_h = -{ch}; {v}_l = -{cl}")
            return f"{v}_h", f"{v}_l"
        if isinstance(node, Call):
            ah, al = self.emit(node.arg)
            v = self.fresh()
            if node.fn == "sqrt":
                self.lines.append(f"{v}_h, {v}_l = _dd_sqrt({ah}, {al})")
            elif node.fn == "abs":
                self.lines.append(
                    f"{v}_h = abs({ah}); {v}_l = {al} if {ah} >= 0.0 else -{al}")
            else:
                fn = {"exp": "math.exp", "log": "math.log", "sin": "math.sin",
                      "cos": "math.cos", "atan": "math.atan"}[node.fn]
                self.lines.append(f"{v}_h = {fn}({ah} + {al}); {v}_l = 0.0")
            return f"{v}_h", f"{v}_l"
        if node.op == "^":
            exponent = _literal(node.right)
            if exponent is not None and exponent == int(exponent):
                return self.emit_powi(node.left, int(exponent))
            ah, al = self.emit(node.left)
            bh, bl = self.emit(node.right)
            v = self.fresh()
            self.lines.append(f"{v}_h = ({ah} + {al}) ** ({bh} + {bl}); {v}_l = 0.0")
            return f"{v}_h", f"{v}_l"
        ah, al = self.emit(node.left)
        bh, bl = self.emit(node.right)
        v = self.fresh()
        if node.op == "+":
            self.lines.append(f"{v}_h, {v}_l = _dd_add({ah}, {al}, {bh}, {bl})")
        elif node.op == "-":
            self.lines.append(f"{v}_h, {v}_l = _dd_add({ah}, {al}, -{bh}, -{bl})")
        elif node.op == "*":
            self.lines.append(f"{v}_h, {v}_l = _dd_mul({ah}, {al}, {bh}, {bl})")
        else:
            self.lines.append(f"{v}_h, {v}_l = _dd_div({ah}, {al}, {bh}, {bl})")
        return f"{v}_h", f"{v}_l"

    def emit_powi(self, base: Expr, n: int) -> tuple[str, str]:
        bh, bl = self.emit(base)
        if n == 0:
            v = self.fresh()
            self.lines.append(f"{v}_h = 1.0; {v}_l = 0.0")
            return f"{v}_h", f"{v}_l"
        invert = n < 0
        n = abs(n)
        res_h = res_l = None
        cur_h, cur_l = bh, bl
        while n:
            if n & 1:
                if res_h is None:
                    res_h, res_l = cur_h, cur_l
                else:
                    v = self.fresh()
                    self.lines.append(
                        f"{v}_h, {v}_l = _dd_mul({res_h}, {res_l}, {cur_h}, {cur_l})")
                    res_h, res_l = f"{v}_h", f"{v}_l"
            n >>= 1
            if n:
                v = self.fresh()
                self.lines.append(
                    f"{v}_h, {v}_l = _dd_mul({cur_h}, {cur_l}, {cur_h}, {cur_l})")
                cur_h, cur_l = f"{v}_h", f"{v}_l"
        if invert:
            v = self.fresh()
            self.lines.append(f"{v}_h, {v}_l = _dd_div(1.0, 0.0, {res_h}, {res_l})")
            res_h, res_l = f"{v}_h", f"{v}_l"
        return res_h, res_l


def _literal(node) -> float | None:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _literal(node.child)
        return None if inner is None else -inner
    return None


_KERNEL_CACHE: dict = {}

_TEMPLATE = '''
def _integrand_kernel(edges, xi_h, xi_l, w_h, w_l, d_h, d_l, c_w, pv,
                      tab_sin_h, tab_sin_l, tab_cos_h, tab_cos_l):
    n_panels = edges.shape[0] - 1
    n_nodes = xi_h.shape[0]
    out_re_h = np.empty(n_panels); out_re_l = np.empty(n_panels)
    out_im_h = np.empty(n_panels); out_im_l = np.empty(n_panels)
    out_dre_h = np.empty(n_panels); out_dre_l = np.empty(n_panels)
    out_dim_h = np.empty(n_panels); out_dim_l = np.empty(n_panels)
    out_c_re = np.empty(n_panels); out_c_im = np.empty(n_panels)
    for i in range(n_panels):
        ea = edges[i]; eb = edges[i + 1]
        sm = ea + eb
        bb = sm - ea
        se = (ea - (sm - bb)) + (eb - bb)
        m_h = 0.5 * sm; m_l = 0.5 * se
        dm = eb - ea
        bb = dm - eb
        de = (eb - (dm - bb)) + ((-ea) - bb)
        h_h = 0.5 * dm; h_l = 0.5 * de
        acc_re_h = 0.0; acc_re_l = 0.0; acc_im_h = 0.0; acc_im_l = 0.0
        acc_dre_h = 0.0; acc_dre_l = 0.0; acc_dim_h = 0.0; acc_dim_l = 0.0
        acc_c_re = 0.0; acc_c_im = 0.0
        for q in range(n_nodes):
            t_h, t_l = _dd_mul(h_h, h_l, xi_h[q], xi_l[q])
            x_h, x_l = _dd_add(m_h, m_l, t_h, t_l)
{F_CODE}
            e_c_h, e_c_l, e_s_h, e_s_l = _dd_e_unit({F_H}, {F_L},
                tab_sin_h, tab_sin_l, tab_cos_h, tab_cos_l)
{G_CODE}
            p_h, p_l = _dd_mul({G_H}, {G_L}, w_h[q], w_l[q])
            vr_h, vr_l = _dd_mul(p_h, p_l, e_c_h, e_c_l)
            acc_re_h, acc_re_l = _dd_add(acc_re_h, acc_re_l, vr_h, vr_l)
            vi_h, vi_l = _dd_mul(p_h, p_l, e_s_h, e_s_l)
            acc_im_h, acc_im_l = _dd_add(acc_im_h, acc_im_l, vi_h, vi_l)
            acc_c_re += c_w[q] * vr_h
            acc_c_im += c_w[q] * vi_h
            vr_h, vr_l = _dd_mul(vr_h, vr_l, d_h[q], d_l[q])
            acc_dre_h, acc_dre_l = _dd_add(acc_dre_h, acc_dre_l, vr_h, vr_l)
            vi_h, vi_l = _dd_mul(vi_h, vi_l, d_h[q], d_l[q])
            acc_dim_h, acc_dim_l = _dd_add(acc_dim_h, acc_dim_l, vi_h, vi_l)
        out_re_h[i], out_re_l[i] = _dd_mul(acc_re_h, acc_re_l, h_h, h_l)
        out_im_h[i], out_im_l[i] = _dd_mul(acc_im_h, acc_im_l, h_h, h_l)
        out_dre_h[i], out_dre_l[i] = _dd_mul(acc_dre_h, acc_dre_l, h_h, h_l)
        out_dim_h[i], out_dim_l[i] = _dd_mul(acc_dim_h, acc_dim_l, h_h, h_l)
        out_c_re[i] = acc_c_re * h_h
        out_c_im[i] = acc_c_im * h_h
    return (out_re_h, out_re_l, out_im_h, out_im_l,
            out_dre_h, out_dre_l, out_dim_h, out_dim_l, out_c_re, out_c_im)
'''


def get_kernel(f_expr: Expr, g_expr: Expr, param_names: tuple[str, ...]):
    """Compiled panel-integration kernel for (f, g), or None without numba."""
    if not HAVE_NUMBA:
        return None
    key = (format_expr(f_expr), format_expr(g_expr), param_names)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]
    index = {name: i for i, name in enumerate(param_names)}
    emitter = _Emitter(index)
    f_h, f_l = emitter.emit(f_expr)
    f_lines = emitter.lines
    emitter.lines = []
    g_h, g_l = emitter.emit(g_expr)
    g_lines = emitter.lines

    def indent(lines):
        return "\n".join("            " + ln for ln in lines)

    src = _TEMPLATE.replace("{F_CODE}", indent(f_lines))
    src = src.replace("{G_CODE}", indent(g_lines))
    src = src.replace("{F_H}", f_h).replace("{F_L}", f_l)
    src = src.replace("{G_H}", g_h).replace("{G_L}", g_l)
    namespace = {"np": np, "math": math, "_dd_add": _dd_add, "_dd_mul": _dd_mul,
                 "_dd_div": _dd_div, "_dd_sqrt": _dd_sqrt,
                 "_dd_e_unit": _dd_e_unit}
    exec(compile(src, f"<integrand {key[0]!r}>", "exec"), namespace)
    kernel = njit(cache=False)(namespace["_integrand_kernel"])
    _KERNEL_CACHE[key] = kernel
    return kernel
