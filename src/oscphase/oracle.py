"""Independent ground truth for the expansion engine.

Three oracles live here:

* oscillatory_quadrature -- direct adaptive Gauss-Legendre integration of
  g(x) e(f(x)), starting on panels that each carry at most 0.9 units of
  phase variation, or 1.8 where an a-priori bound on their certificates
  stays within a quarter of tol (a smooth g and a coarse tol, such as the
  default 1e-12).  Deliberately free of any asymptotic machinery.  The
  integrand is evaluated in double-double so the result stays trustworthy
  at phase scales (T ~ 2^18) where plain float64 drowns in phase jitter.
  The first pass runs on the phase split itself.  Each pass certifies
  itself from the nodes it already evaluated: a rule embedded in the 24
  Gauss nodes (20 of them) gives the error estimate, in the manner of
  Gauss-Kronrod pairs, sharpened on each smooth panel by how fast the null
  values fall, plus a bound on the float64 rounding of any transcendental
  function in f or g.  When the estimate misses the tolerance, only the
  panels with the largest estimates are halved (QUADPACK's QAG), and the
  next pass evaluates only their halves.

  A pass uses every CPU the process may run on.  The first pass with at
  least two chunks of 2^14 nodes per CPU forks one helper process per spare
  CPU from this one.  A forked helper already holds every module and table,
  so that pass and every later one of at least 128 panels per CPU hand each
  helper an equal contiguous block of panels and join the per-panel results
  here, in panel order.  A panel's numbers do not depend on its block, so
  every bit is that of a serial pass.  The caller polls for a reply without
  sleeping for up to as long as its own block took.  The helpers live until
  the process exits.  A helper runs this module as it was at fork time: a
  function monkeypatched in this process before the fork is patched there
  too, and one patched later is not.  Nothing starts at import, for passes
  of fewer chunks, or on a machine with one CPU.
* fd_derivatives -- central finite differences, the classic cross-check for
  the jet engine.
* numeric_reversion_oracle -- brute-force recovery of the varpi coefficients
  by solving the change of variables pointwise in mpmath and fitting a
  polynomial, bypassing all series algebra.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import mpmath
import numpy as np

from . import ddmath
from .coefficients import (PhaseProblem, bisect_fprime, mp_refine_gamma,
                           solve_x_of_y)
from .errors import ExprDomainError, OracleFitError, QuadratureNonConvergence
from .exprs import (Expr, eval_array, eval_dd, eval_dd_error, eval_real,
                    parse)
from .expansion import hypothesis_audit

# Units of f (turns) per starting panel: on 0.9 turns the 24-node rule
# stays at the dd floor, and only the panels at a stationary point or a
# kink need halving.  A tol that allows it starts on twice as many turns
# (_start_turns), with the panels next to a stationary point kept at 0.9.
_PHASE_PER_PANEL = 0.9
_MAX_WIDTH_FRACTION = 1 / 16  # panels also stay narrow so g is resolved
_CHUNK_NODES = 1 << 14  # one chunk's dd temporaries stay resident in a 2 MB L2
_SMOOTH_DECAY = 1e-3  # null-value ratio that marks a panel resolved
# Gauss-Legendre nodes per panel: the null rules (degrees 11 and 19) and
# _SMOOTH_DECAY are calibrated for this rule, and bound its error only.
_NODES_PER_PANEL = 24
_CHUNK_PANELS = _CHUNK_NODES // _NODES_PER_PANEL
# The fewest panels a pass hands each process: a block costs a helper's
# round trip, about 0.3 ms beyond the block itself, and saves about 15 us a
# panel (2-core VM), so 128 panels save several round trips.
_MIN_BLOCK_PANELS = 128
_MAX_PANELS = 4_000_000


@dataclass(frozen=True)
class QuadratureSettings:
    """The oracle's one setting, tol; the rule (nodes_per_panel) is fixed.

    tol bounds the certificate of the result (see
    oscillatory_quadrature_detail).  With polynomial and rational f and g
    it can go down to about 1e-26; a tol below 1e-28 * |value|, or not above
    the float64 rounding of a transcendental f or g (about 3e-13 for
    T*(x + sin(x)/10) at T = 1000), ends in QuadratureNonConvergence.  tol
    also sets the start: 1.8-turn panels where
    1.95e-13 * (beta - alpha)/2 * max|g| <= tol/4 and g is smooth on the
    scan grid (the default tol, on the criterion families), else 0.9-turn
    panels (see build_breakpoints).
    """

    tol: float = 1e-12
    nodes_per_panel: ClassVar[int] = _NODES_PER_PANEL

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # also NaN
            raise ValueError("tol must be positive and finite")


def _drop_repeats(edges: np.ndarray) -> np.ndarray:
    """np.unique of non-decreasing edges, without its sort (and without the
    numpy.ma import that a process's first np.unique costs)."""
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _piece_breakpoints(p: PhaseProblem, a: float, b: float,
                       turns: float) -> np.ndarray:
    """Panel edges on a monotone-phase piece: equal phase increments of at
    most turns.  Where these carry more than _PHASE_PER_PANEL, the panel
    next to a root of f' (an end of the piece other than alpha or beta),
    where f is quadratic, is halved in phase.

    A phase change that is not finite, or that needs more than _MAX_PANELS
    panels, raises QuadratureNonConvergence before anything is allocated.
    """
    fa = p.f_value(a)
    fb = p.f_value(b)
    total = abs(fb - fa)
    if not total <= _MAX_PANELS * turns:  # also inf and nan
        raise QuadratureNonConvergence(
            f"phase change of {total:.3g} turns over [{a!r}, {b!r}] is not "
            f"finite or needs more than max_panels = {_MAX_PANELS} panels")
    n_panels = max(1, int(math.ceil(total / turns)))
    max_width = (p.beta - p.alpha) * _MAX_WIDTH_FRACTION
    n_panels = max(n_panels, int(math.ceil((b - a) / max_width)))
    wide = turns > _PHASE_PER_PANEL and total > _PHASE_PER_PANEL * n_panels
    halve = [i for i, at_root in ((1, a > p.alpha), (n_panels, b < p.beta))
             if wide and at_root]
    if n_panels == 1 and not halve:
        return np.array([a, b])
    k = max(257, min(4 * n_panels + 1, 4_000_000))
    xs = np.linspace(a, b, k)
    cum = np.abs(eval_array(p.f, xs, p.bindings) - fa)
    cum = np.maximum.accumulate(cum)  # guard tiny non-monotonicity
    levels = np.linspace(0.0, cum[-1], n_panels + 1)
    # A lone panel between two roots is halved once: its two halves meet.
    levels = np.insert(levels, halve,
                       [0.5 * (levels[i - 1] + levels[i]) for i in halve])
    edges = np.interp(levels, cum, xs)
    edges[0], edges[-1] = a, b
    edges = _drop_repeats(edges)
    # Enforce the width cap (phase-flat stretches can make wide panels).
    widths = np.diff(edges)
    if np.any(widths > max_width):
        pieces = [np.array([edges[0]])]
        for left, right, w in zip(edges[:-1], edges[1:], widths):
            m = int(math.ceil(w / max_width))
            pieces.append(np.linspace(left, right, m + 1)[1:])
        edges = np.concatenate(pieces)
    return edges


@functools.cache
def _wide_certificate() -> float:
    """kappa: the certificate (_panel_certificates) of one panel on [-1, 1]
    with g = 1 and a phase that rises linearly by 2 * _PHASE_PER_PANEL
    turns.  A panel's certificate scales with its half-width and with g."""
    sums = _chunk_results(parse(f"{_PHASE_PER_PANEL!r}*x"), parse("1"), {},
                          np.array([-1.0]), np.array([1.0]))
    return float(sums.cert[0])


def _start_turns(p: PhaseProblem, tol: float | None) -> float:
    """Turns per start panel: 2 * _PHASE_PER_PANEL where
    kappa * (beta - alpha)/2 * max|g| <= tol/4 (kappa: _wide_certificate,
    max|g| on the scan grid), so that on a linear phase the wide panels'
    certificates sum to a quarter of tol at most.  Else _PHASE_PER_PANEL,
    as for tol None and for a g with a kink, pole or jump on the grid, one
    whose grid walk raises and one not finite there."""
    if tol is None:
        return _PHASE_PER_PANEL
    sample = p.sample()
    try:
        g_max = float(np.max(np.abs(sample.g[0])))
    except ExprDomainError:  # as for sqrt(x - 1) at x = 1
        return _PHASE_PER_PANEL
    if sample.breaks["g"] or not (
            _wide_certificate() * (p.beta - p.alpha) / 2 * g_max <= tol / 4):
        return _PHASE_PER_PANEL  # also nan and inf
    return 2 * _PHASE_PER_PANEL


def build_breakpoints(p: PhaseProblem, tol: float | None = None) -> np.ndarray:
    """Initial panel edges: split at f' sign changes, then by phase, on
    panels of _start_turns(p, tol) turns: 0.9 unless tol allows 1.8 (see
    _piece_breakpoints for the phase changes it refuses)."""
    roots = [bisect_fprime(p, *bracket, steps=60)
             for bracket in p.sample().sign_changes()]
    turns = _start_turns(p, tol)
    cuts = [p.alpha] + roots + [p.beta]
    parts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        edges = _piece_breakpoints(p, a, b, turns)
        parts.append(edges if not parts else edges[1:])
    return np.concatenate(parts)


def _require_finite(*values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise QuadratureNonConvergence(
            "integrand produced non-finite values (domain violation?)")


def _panel_certificates(d: ddmath.DD, c: np.ndarray) -> tuple:
    """Each panel's weighted null value, coarse null excess and certificate.

    d (dd) and c (float64) hold per-panel null sums, real and imaginary
    parts on a leading axis of length 2: d = q - q~ against the embedded
    rule (degree 19), c = q - q^ against the coarse rule (degree 11).  On a
    smooth panel the null values fall by orders of magnitude from degree 11
    to degree 19, and the Gauss sum q (degree 47) is closer still: d is
    weighted by r / _SMOOTH_DECAY, where r = |d| / |c| is that fall.  Where
    |d| is not below _SMOOTH_DECAY * |c| (a kink or an endpoint singularity
    inside the panel), the Gauss and embedded rules share most nodes and |d|
    can sit far below the error of q: d keeps its weight 1 and the excess
    is |c| (0 elsewhere).  The certificate is |weighted d| + excess.
    """
    d = ddmath.to_float(d)
    n1 = np.hypot(*d)
    n2 = np.hypot(*c)
    resolved = n1 <= _SMOOTH_DECAY * n2
    weight = np.divide(n1, _SMOOTH_DECAY * n2, out=np.ones_like(n1),
                       where=resolved & (n2 > 0))
    excess = np.where(resolved, 0.0, n2)
    return d * weight, excess, n1 * weight + excess


def _rounding_noise(g: ddmath.DD, f_err, g_err, w: np.ndarray,
                    half: np.ndarray) -> np.ndarray:
    """Per panel, a bound on how far the float64 fallbacks of eval_dd move
    the Gauss sum: |e(f + df) - e(f)| <= 2 pi |df| at each node, so the sum
    moves by at most half * sum_j w_j (2 pi |g_j| df_j + dg_j).  The Gauss
    and null sums share these node values, so no null rule sees this."""
    if f_err is None and g_err is None:
        return np.zeros(len(half))
    spread = 0.0 if f_err is None else 2 * math.pi * np.abs(g[0]) * f_err
    if g_err is not None:
        spread = spread + g_err
    return np.broadcast_to(spread * w, (len(half), len(w))).sum(axis=-1) * half


class _PanelSums(NamedTuple):
    """Per-panel results of a pass, one column per panel in edge order (real
    and imaginary parts on a leading axis of length 2 where present): the
    dd Gauss-Legendre sums q, the weighted embedded null values, the coarse
    null excess and each panel's own certificate (_panel_certificates), and
    the bound on the float64 rounding of the transcendental functions in f
    and g (_rounding_noise)."""

    q_hi: np.ndarray
    q_lo: np.ndarray
    null: np.ndarray
    excess: np.ndarray
    cert: np.ndarray
    noise: np.ndarray

    @classmethod
    def join(cls, runs) -> _PanelSums:
        """The results of consecutive runs of panels, as one."""
        return cls(*(np.concatenate(column, axis=-1) for column in zip(*runs)))


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _chunk_results(phase: Expr, weight: Expr, bindings: dict, a: np.ndarray,
                   b: np.ndarray) -> _PanelSums:
    """The _PanelSums of the panels [a[i], b[i]], computed in chunks of
    _CHUNK_NODES nodes.  Each panel's numbers depend on its two edges
    alone.  A non-finite phase raises QuadratureNonConvergence.  Runs in the
    helper processes too.
    """
    (xi_hi, xi_lo), (w_hi, w_lo) = ddmath.gauss_legendre_dd(_NODES_PER_PANEL)
    d_w = ddmath.embedded_null_weights(_NODES_PER_PANEL)
    c_w = ddmath.coarse_null_weights(_NODES_PER_PANEL)
    parts = []
    for start in range(0, len(a), _CHUNK_PANELS):
        left = ddmath.from_float(a[start:start + _CHUNK_PANELS])
        right = ddmath.from_float(b[start:start + _CHUNK_PANELS])
        mid = ddmath.mul(ddmath.add(left, right), ddmath.from_float(0.5))
        half = ddmath.mul(ddmath.sub(right, left), ddmath.from_float(0.5))
        mid2 = (mid[0][:, None], mid[1][:, None])
        half2 = (half[0][:, None], half[1][:, None])
        x = ddmath.add(mid2, ddmath.mul(half2, (xi_hi, xi_lo)))
        f = eval_dd(phase, x, bindings)
        _require_finite(f[0])
        e_re, e_im = ddmath.e_unit_dd(f)
        e = (np.stack((e_re[0], e_im[0])), np.stack((e_re[1], e_im[1])))
        g = eval_dd(weight, x, bindings)
        node = ddmath.mul(ddmath.mul(g, (w_hi, w_lo)), e)
        q = ddmath.mul(ddmath.sum_nodes(node), half)
        d = ddmath.mul(ddmath.sum_nodes(ddmath.mul(node, d_w)), half)
        null, excess, cert = _panel_certificates(
            d, (node[0] * c_w).sum(axis=-1) * half[0])
        noise = _rounding_noise(g, eval_dd_error(phase, x, bindings),
                                eval_dd_error(weight, x, bindings), w_hi, half[0])
        parts.append((*q, null, excess, cert, noise))
    return _PanelSums.join(parts)


def _panels_dd_numpy(p: PhaseProblem, edges: np.ndarray,
                     panels: np.ndarray | None = None) -> _PanelSums:
    """The _PanelSums of the panels between edges, or of only those that the
    boolean mask panels selects, in dd.  A non-finite phase raises
    QuadratureNonConvergence.

    The panels are split into equal contiguous blocks: this process
    computes the first, and each helper process one of the later ones
    (_Helpers).  A panel's numbers do not depend on its block, so every bit
    is that of one serial pass.  A helper sees f, g, the bindings and the
    block's panel edges through its pipe, and runs this module as it was
    when it was forked.
    """
    a, b = edges[:-1], edges[1:]
    if panels is not None:
        a, b = a[panels], b[panels]
    n_panels = len(a)

    def jobs(blocks: int) -> list:
        cuts = [n_panels * k // blocks for k in range(blocks)]
        return [(p.f, p.g, p.bindings, a[lo:hi], b[lo:hi])
                for lo, hi in zip(cuts, cuts[1:] + [n_panels])]

    return _PanelSums.join(_HELPERS.run(n_panels, jobs))


@np.errstate(invalid="ignore", over="ignore")
def _pairwise(hi: np.ndarray, lo: np.ndarray) -> tuple:
    """The (re, im) dd totals of per-panel dd sums, each one
    ddmath.sum_pairwise over the panels in edge order."""
    return tuple(ddmath.sum_pairwise((hi[k], lo[k])) for k in (0, 1))


def _refined(sums: _PanelSums, bisected: np.ndarray, children: np.ndarray,
             fresh: _PanelSums) -> _PanelSums:
    """sums with each bisected panel's column replaced by the two columns of
    fresh that the mask children selects on the refined edges."""
    def column(old, new):
        out = np.empty(old.shape[:-1] + children.shape, dtype=old.dtype)
        out[..., ~children] = old[..., ~bisected]
        out[..., children] = new
        return out
    return _PanelSums(*map(column, sums, fresh))


# --- helper processes -------------------------------------------------------

# A reply may take this long plus _REPLY_WAIT_RATIO times this process's own
# block (the blocks differ by at most one panel); later, the block is
# computed here.
_REPLY_WAIT_S = 10.0
_REPLY_WAIT_RATIO = 4.0


def _spare_cpus() -> int:
    """CPUs this process may run on, less the one it runs on itself; none
    where a process cannot fork."""
    if not hasattr(os, "fork"):
        return 0
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) - 1


def _serve(conn, callers: list) -> None:
    """A forked helper's life on its end of the pipe: with SIGINT ignored
    (the caller stops helpers), fds 0-2 on /dev/null (no capture of the
    caller's output waits for it) and callers, the caller's pipe ends,
    closed, answer each job, the arguments of _chunk_results, with its
    result, or with None when it raised (the caller then computes the block
    and raises the serial error).  At end of file, os._exit: a helper never
    returns into the caller's stack or runs its exit handlers."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        for caller in callers:
            caller.close()
        while True:
            try:
                job = conn.recv()
            except EOFError:
                break
            try:
                result = _chunk_results(*job)
            except Exception:  # any failure is the caller's to raise
                result = None
            conn.send(result)
    finally:
        os._exit(0)


class _Helper:
    """One helper process, forked from this one (_serve), and this
    process's end of its pipe.  others are the helpers already running,
    whose pipe ends the new one closes.  failed is set once it died, timed
    out or sent what does not unpickle; pending while a reply is owed."""

    def __init__(self, others: list):
        from multiprocessing import Pipe

        self.conn, theirs = Pipe()
        with theirs:
            self.pid = os.fork()
            if self.pid == 0:
                _serve(theirs, [self.conn] + [h.conn for h in others])
        self.failed = False
        self.pending = False

    def send(self, job: tuple) -> None:
        self.pending = True
        try:
            self.conn.send(job)
        except OSError:
            self.failed = True

    def reply(self, spin: float, timeout: float):
        """The result of the job sent last, or None if it raised there or
        the helper failed.  Polls without sleeping for up to spin seconds,
        then waits up to timeout seconds."""
        if self.failed:
            return None
        try:
            until = time.perf_counter() + spin
            while not self.conn.poll() and time.perf_counter() < until:
                pass
            if self.conn.poll(timeout):
                result = self.conn.recv()
                self.pending = False
                return result
        # End of file, a broken socket, bytes that do not unpickle: all mean
        # that this process computes the block.
        except Exception:
            pass
        self.failed = True
        return None

    def stop(self) -> None:
        self.conn.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except OSError:  # already reaped elsewhere
            pass


class _Helpers:
    """The helper processes of this process, one per spare CPU.

    They are forked from this process on the first call with at least two
    chunks per process (ready), and take work at once: that call and every
    later one with at least _MIN_BLOCK_PANELS panels per process use them.
    A helper runs this module as it was at fork time: a patch made here
    before the fork reaches it, and a later patch does not.  They live as
    long as the process: close runs at exit.  A helper that fails in a job
    is stopped and replaced on a later call; a fork that fails stops all
    helpers for good.  One call at a time uses them: a call made meanwhile
    from another thread runs serially.  A forked child starts its own
    helpers and leaves its parent's alone.
    """

    def __init__(self):
        self.pid = None
        self.spare = 0
        self.helpers = []
        self.lock = threading.Lock()

    def ready(self, n_panels: int) -> list:
        """The helpers a call with n_panels panels may use: none below
        _MIN_BLOCK_PANELS per process.  A call with two chunks per process
        first starts those that are missing."""
        if self.pid != os.getpid():
            self.pid, self.spare, self.helpers = os.getpid(), _spare_cpus(), []
        if self.spare < 1 or n_panels < (1 + self.spare) * _MIN_BLOCK_PANELS:
            return []
        chunks = -(-n_panels // _CHUNK_PANELS)
        try:
            while len(self.helpers) < self.spare and chunks >= 2 * (1 + self.spare):
                self.helpers.append(_Helper(self.helpers))
        except OSError:
            self._give_up()
            return []
        return list(self.helpers)

    def run(self, n_panels: int, jobs) -> list:
        """_chunk_results(*job) for each job of jobs(1 + the number of
        helpers), in order: the first here, each later one by its helper, or
        here if that helper returns None."""
        if not self.lock.acquire(blocking=False):
            return [_chunk_results(*jobs(1)[0])]
        helpers = []
        try:
            helpers = self.ready(n_panels)
            mine, *theirs = jobs(1 + len(helpers))
            for helper, job in zip(helpers, theirs):
                helper.send(job)
            t0 = time.perf_counter()
            results = [_chunk_results(*mine)]
            own = time.perf_counter() - t0
            for helper, job in zip(helpers, theirs):
                # Spin before sleeping, as OpenMP runtimes do: on a virtual
                # machine a process that sleeps can wake to cold caches, and
                # the expansions run after each pass were 10-30% slower.
                result = helper.reply(own, _REPLY_WAIT_S + _REPLY_WAIT_RATIO * own)
                results.append(_chunk_results(*job) if result is None else result)
        finally:
            # A reply not read now must never be read later.
            for helper in helpers:
                if helper.failed or helper.pending:
                    helper.stop()
                    self.helpers.remove(helper)
            self.lock.release()
        return results

    def _give_up(self) -> None:
        self.close()
        self.spare = 0

    def close(self) -> None:
        if self.pid == os.getpid():
            for helper in self.helpers:
                helper.stop()
        self.helpers = []


_HELPERS = _Helpers()
atexit.register(_HELPERS.close)


def _worst_panels(sums: _PanelSums, budget: float) -> np.ndarray:
    """Mask of the fewest panels, taken by decreasing certificate, without
    which the rest of the pass's rule certificate (the weighted null sum
    and the excess of the other panels) is within budget: at least one."""
    order = np.argsort(-sums.cert, kind="stable")
    tail = np.cumsum(sums.null[:, order[::-1]], axis=-1)[:, ::-1]
    tail_excess = np.cumsum(sums.excess[order[::-1]])[::-1]
    rest = np.append(np.hypot(*tail[:, 1:]) + tail_excess[1:], 0.0)
    missing = np.zeros(len(order), dtype=bool)
    missing[order[:np.argmax(rest <= budget) + 1]] = True
    return missing


def _bisect_edges(edges: np.ndarray, panels: np.ndarray | None = None) -> np.ndarray:
    """The edges with the midpoint 0.5*(a+b) added inside each panel that
    the boolean mask panels selects, or inside every panel if it is None."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    at = np.arange(len(mids)) if panels is None else np.flatnonzero(panels)
    return np.insert(edges, at + 1, mids[at])


@dataclass(frozen=True)
class QuadratureResult:
    """The oracle's value, in float and as dd parts, and how it was made:
    the final panels, the refinement passes after the first (0 if it
    certified), the integrand evaluations over all passes (nodes; a
    refinement pass evaluates only the halves of the panels it bisects, so
    this is not 24 times the panels) and the certificate diff < tol."""

    value: complex
    re_dd: tuple
    im_dd: tuple
    panels: int
    doublings: int
    nodes: int
    diff: float = math.nan

    def mp_value(self) -> mpmath.mpc:
        return (mpmath.mpf(float(self.re_dd[0])) + mpmath.mpf(float(self.re_dd[1]))
                + 1j * (mpmath.mpf(float(self.im_dd[0])) + mpmath.mpf(float(self.im_dd[1]))))


def oscillatory_quadrature_detail(
        p: PhaseProblem,
        settings: QuadratureSettings | None = None) -> QuadratureResult:
    """Full-detail quadrature result (dd parts exposed for the studies).

    Starts on the phase-split panels (build_breakpoints at tol).  Each pass is
    certified without further integrand evaluations: diff = |sum of the
    panels' weighted embedded null values| + their coarse excess
    (_panel_certificates) + the bound on the float64 rounding of the
    transcendental functions in f and g (_rounding_noise).  No refinement
    lowers the rounding, so a tol not above it raises.  While diff >= tol,
    the panels with the largest certificates are halved, as in QUADPACK's
    QAG: the fewest without which the rest of the null sum and excess is
    within half of what the rounding leaves of tol (_worst_panels).  The
    next pass evaluates only the two halves of each, and keeps the sums of
    every other panel.  Q, the null sum, the excess and the rounding bound
    are summed over all panels in edge order, so the result's bits depend
    only on its final panels.  Once diff < tol, Q is returned.
    """
    settings = settings or QuadratureSettings()
    edges = build_breakpoints(p, settings.tol)
    new = None  # the panels the next pass evaluates; None for all of them
    refinements = nodes = 0
    best = None
    stagnant = 0
    while True:
        n_panels = len(edges) - 1
        if n_panels > _MAX_PANELS:
            raise QuadratureNonConvergence(
                f"needed more than max_panels = {_MAX_PANELS} panels "
                f"to reach tol = {settings.tol:g}")
        fresh = _panels_dd_numpy(p, edges, new)
        nodes += len(fresh.cert) * _NODES_PER_PANEL
        sums = fresh if new is None else _refined(sums, missing, new, fresh)
        re_dd, im_dd = _pairwise(sums.q_hi, sums.q_lo)
        _require_finite(re_dd[0], im_dd[0])
        value = complex(ddmath.to_float(re_dd), ddmath.to_float(im_dd))
        rule = float(np.hypot(*sums.null.sum(axis=-1)) + sums.excess.sum())
        noise = float(sums.noise.sum())
        diff = rule + noise
        floor = 1e-28 * max(1.0, abs(value))
        if settings.tol < floor:
            raise QuadratureNonConvergence(
                f"tol = {settings.tol:g} is below the attainable "
                f"certification floor {floor:.1e}")
        if not settings.tol > noise:  # also nan
            raise QuadratureNonConvergence(
                f"tol = {settings.tol:g} is below the float64 rounding of the "
                f"transcendental functions in f or g, which may move the "
                f"integral by {noise:.1e}")
        if diff < settings.tol:
            return QuadratureResult(value=value, re_dd=re_dd, im_dd=im_dd,
                                    panels=n_panels, doublings=refinements,
                                    nodes=nodes, diff=diff)
        # Against the smallest rule certificate so far: one that alternates
        # (a pole inside the interval) must not reset the count.  A kink's
        # certificate need not halve at each bisection, hence 3 passes.
        if best is not None and rule >= 0.5 * best:
            stagnant += 1
            if stagnant >= 3:
                raise QuadratureNonConvergence(
                    f"panel doubling stagnated at diff = {diff:.3e} "
                    f"(tol = {settings.tol:g} unattainable)")
        else:
            stagnant = 0
        best = rule if best is None else min(best, rule)
        missing = _worst_panels(sums, 0.5 * (settings.tol - noise))
        edges = _bisect_edges(edges, missing)
        new = np.repeat(missing, missing + 1)
        refinements += 1


def oscillatory_quadrature(p: PhaseProblem,
                           settings: QuadratureSettings | None = None) -> complex:
    """Converged value of the integral of g(x) e(f(x)) over [alpha, beta]."""
    return oscillatory_quadrature_detail(p, settings).value


# --- finite differences ------------------------------------------------------

# central stencils as (offset -> coefficient, order of accuracy)
_FD_STENCILS = {
    1: ({-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}, 4),
    2: ({-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12}, 4),
    3: ({-3: 1 / 8, -2: -1.0, -1: 13 / 8, 1: -13 / 8, 2: 1.0, 3: -1 / 8}, 4),
    4: ({-3: -1 / 6, -2: 2.0, -1: -13 / 2, 0: 28 / 3, 1: -13 / 2, 2: 2.0,
         3: -1 / 6}, 4),
    5: ({-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5}, 2),
    6: ({-3: 1.0, -2: -6.0, -1: 15.0, 0: -20.0, 1: 15.0, 2: -6.0, 3: 1.0}, 2),
}

_EPS = float(np.finfo(np.float64).eps)


def fd_derivatives(e: Expr, x0: float, order: int, h: float | None = None,
                   params: dict | None = None) -> list[float]:
    """Central-difference estimates of derivatives 1..order at x0.

    Fourth-order-accurate stencils for k <= 4, second-order above.  With h
    omitted, each order k uses the balanced step eps^(1/(k+acc)) * max(1,
    |x0|); accuracy then runs from ~1e-12 (k = 1) to ~1e-8 (k = 4), fading
    gracefully for k = 5, 6.
    """
    if order > 6 or order < 1:
        raise ValueError("fd_derivatives supports orders 1..6")
    out = []
    for k in range(1, order + 1):
        stencil, accuracy = _FD_STENCILS[k]
        hk = (h if h is not None
              else _EPS ** (1.0 / (k + accuracy)) * max(1.0, abs(x0)))
        acc = 0.0
        for offset, coeff in sorted(stencil.items()):
            acc += coeff * eval_real(e, x0 + offset * hk, params)
        out.append(acc / hk ** k)
    return out


# --- numeric reversion oracle ------------------------------------------------

def numeric_reversion_oracle(p: PhaseProblem, gamma: float, order: int,
                             dps: int = 50) -> list[float]:
    """Recover varpi_0..varpi_order without any series algebra.

    Samples G(y) = g(x(y)) * 2*lam2*y / f'(x(y)) at Chebyshev nodes on
    [-r/8, r/8] (r from the hypothesis audit), solving x(y) pointwise by
    Newton, then least-squares fits a degree-(order+2) polynomial.  Runs in
    mpmath because the k-th coefficient of a fit on a radius-h interval is
    conditioned like h^(-k).
    """
    audit = hypothesis_audit(p)
    r = audit.r
    if not (r > 0) or not math.isfinite(r):
        raise OracleFitError("audit produced no usable substitution radius", float("inf"))
    with mpmath.workdps(dps):
        g_mp = mp_refine_gamma(p, gamma)
        fj = p.f_jet(g_mp, 2)
        f_gamma, lam2 = fj.coeffs[0], fj.coeffs[2]
        if lam2 <= 0:
            raise OracleFitError("numeric reversion needs lambda_2 > 0", float("inf"))
        h = mpmath.mpf(r) / 8
        degree = order + 2
        m = 2 * (degree + 1)
        us = [mpmath.cos(mpmath.pi * (2 * i - 1) / (2 * m)) for i in range(1, m + 1)]
        gs = []
        for u in us:
            y = h * u
            x = solve_x_of_y(p, g_mp, lam2, y, f_gamma=f_gamma)
            fpx = p.f_jet(x, 1).coeffs[1]
            gx = p.g_jet(x, 1).coeffs[0]
            gs.append(gx * 2 * lam2 * y / fpx)
        # Chebyshev-basis least squares via normal equations (cond ~ O(1)).
        basis = []
        for u in us:
            row = [mpmath.mpf(1), u]
            for j in range(2, degree + 1):
                row.append(2 * u * row[-1] - row[-2])
            basis.append(row)
        a_float = np.array([[float(v) for v in row] for row in basis])
        condition = float(np.linalg.cond(a_float))
        if condition > 1e10:
            raise OracleFitError("reversion fit is ill-conditioned", condition)
        ata = mpmath.matrix(degree + 1, degree + 1)
        atg = mpmath.matrix(degree + 1, 1)
        for i in range(m):
            for j in range(degree + 1):
                atg[j, 0] += basis[i][j] * gs[i]
                for l in range(degree + 1):
                    ata[j, l] += basis[i][j] * basis[i][l]
        coef = mpmath.lu_solve(ata, atg)
        # Chebyshev -> power basis in u, then rescale u = y/h.
        power = [[mpmath.mpf(0)] * (degree + 1) for _ in range(degree + 1)]
        power[0][0] = mpmath.mpf(1)
        if degree >= 1:
            power[1][1] = mpmath.mpf(1)
        for j in range(2, degree + 1):
            for k in range(j + 1):
                val = 2 * (power[j - 1][k - 1] if k >= 1 else 0) - power[j - 2][k]
                power[j][k] = val
        out = []
        for k in range(order + 1):
            acc = mpmath.mpf(0)
            for j in range(k, degree + 1):
                acc += coef[j, 0] * power[j][k]
            out.append(float(acc / h ** k))
    return out
