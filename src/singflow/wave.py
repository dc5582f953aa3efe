"""Traveling-wave profiles by tail-corrected quadrature and safeguarded Newton.

A traveling wave W(x) + c t of the flow u_t = f(g(u_x) u_xx) on (-b, b)
solves the profile identity g(W_x) W_xx = f^{-1}(c).  Integrating once gives
G(W_x(x)) = (x + b) G(inf) / (2b) with G the antiderivative of g from -inf,
so the whole construction reduces to

    c    = f(G(inf) / (2b)),
    W_x  = G^{-1}((x + b) G(inf) / (2b)),
    W    = w0 + (H(W_x(x)) - H(W_x(0))) / f^{-1}(c),

where H(s) = int_0^s t g(t) dt.  The last line is the substitution
w = G(s) applied to the integral of W_x, and makes W exact wherever W_x is:
no quadrature runs over the steep boundary layers.

G converges only for tail exponents alpha > 1; the integrable tails are
handled analytically.  Beyond a cut |s| > S0 the weight is replaced by its
declared asymptote cg * |s|^(-alpha), with S0 doubled until (i) the true
weight matches the asymptote to 1e-7 at the cut and (ii) the tail-corrected
total G(inf) is stable to 1e-11 between doublings.  The breakpoints of 2 S0
are those of S0 plus +-2 S0, so each doubling refines only its two new outer
panels and refines nothing twice; the panels of one doubling are bisected
together, one quadrature call per level.  Everything downstream (speed,
inversion, H) is then exact for the hybrid weight, which matches g
pointwise inside the cut and to 1e-7 relative outside.

G, G^{-1} and H are evaluated by one dispatch: points at or beyond the
table's first or last edge (breakpoints for G and H, cumulative values for
G^{-1}) take the closed-form power-law tail, the rest the panel that holds
them, and a float argument gives a float.  Inside the cut G^{-1} is a
safeguarded Newton iteration on one panel of the table: G' = g exactly, so
each step costs one Gauss-Legendre partial integral and one evaluation of
g, and a bracket on the panel catches every step that would leave it.
Newton starts from a degree-12 Chebyshev interpolant of G^{-1} on the
panel, fitted once when the table is built, so most points stop after one
or two steps.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DomainError, ParameterError, RateExtractionError,
                     RegimeError)
from .model import DiffusionWeight, ProblemSpec
from .regime import uniqueness_threshold
from .verify import _fit_psi

# Tail cut search.
_S0_INIT = 8.0
_S0_MAX = 1.0e13
_TAIL_POINT_RTOL = 1.0e-7
_TAIL_TOTAL_RTOL = 1.0e-11

# Panel quadrature.
_PANEL_ABS_TOL = 1.0e-14
_PANEL_MAX_DEPTH = 28
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Rows per quadrature chunk: a (rows, 24) float temporary of 512 rows is
# 96 KiB, under glibc's 128 KiB mmap threshold, so numpy reuses heap blocks
# instead of mapping, faulting and unmapping fresh pages for every temporary.
_GL_CHUNK_ROWS = 512

# Inversion: Newton stops once |G(s) - w| <= _NEWTON_RTOL * w; the count is
# only a cap for residuals that rounding keeps above that.
_NEWTON_RTOL = 4.0 * np.finfo(float).eps
_NEWTON_MAX_ITERS = 80
# Newton start: per-panel Chebyshev interpolant of G^{-1} in w, fitted at
# the first-kind nodes t_j = cos(theta_j); _CHEB_COS[k, j] = T_k(t_j).
_CHEB_DEG = 12
_CHEB_THETA = np.pi * (np.arange(_CHEB_DEG + 1) + 0.5) / (_CHEB_DEG + 1)
_CHEB_COS = np.cos(np.outer(np.arange(_CHEB_DEG + 1), _CHEB_THETA))

# Geometric boundary grid x = +-(b - b 2^-j).
_J_LO = 3
_J_HI = 40
_J_CAP = 50          # beyond this b - b*2^-j collides with b in float
_SLOPE_TARGET = 1.0e6
_WX_CAP = 1.0e280

# Residual check points keep a float-safe distance from the walls.
_CHECK_J_MAX = 26

_RATE_SPREAD_MAX = 0.10


def _gl_partial(fn, a, s):
    """Vectorized 24-node Gauss-Legendre integral of fn over [a_i, s_i].

    More than _GL_CHUNK_ROWS rows go through fn in chunks of that many,
    each chunk's sums written into one output array.  The weighted sum is
    an elementwise product and a per-row reduction, not a BLAS matrix
    product, whose rounding depends on the batch size: every row gets the
    same bits whatever else is in the batch or its chunk.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if max(a.size, s.size) > _GL_CHUNK_ROWS:
        a, s = np.broadcast_arrays(a, s)
        out = np.empty(s.shape)
        flat_a, flat_s, flat_out = a.reshape(-1), s.reshape(-1), \
            out.reshape(-1)
        for i in range(0, flat_out.size, _GL_CHUNK_ROWS):
            rows = slice(i, i + _GL_CHUNK_ROWS)
            flat_out[rows] = _gl_partial(fn, flat_a[rows], flat_s[rows])
        return out
    half = 0.5 * (s - a)
    pts = a[..., None] + half[..., None] * (_GL_NODES + 1.0)
    vals = np.asarray(fn(pts), dtype=float)
    return half * (vals * _GL_WEIGHTS).sum(axis=-1)


class _TailCorrectedG:
    """Hybrid antiderivative G(s) = int_{-inf}^s g with analytic tails.

    Inside [-S0, S0] the integral runs over the true weight on an adaptively
    refined dyadic panel table; outside, over the declared asymptote, which
    integrates and inverts in closed form.  Also carries H(s) = int_0^s t g,
    needed to reconstruct profiles without boundary-layer quadrature.
    """

    def __init__(self, g: DiffusionWeight):
        if g.alpha <= 1.0:
            raise RegimeError(
                f"the weight integral diverges for tail exponent alpha = "
                f"{g.alpha:g} <= 1; no finite antiderivative exists")
        # An equal copy, not the weight itself: the cache keys tables by
        # weak references to their weights, and a table that held its own
        # key would keep every cached weight alive.
        self.g = dataclasses.replace(g)
        self.alpha = float(g.alpha)
        self._build_tables(self._pick_cut())

    # -- construction ------------------------------------------------------

    def _tail_mass(self, cg: float, s0):
        """Mass of the tail cg |s|^(-alpha) beyond |s| = s0."""
        return cg * s0 ** (1.0 - self.alpha) / (self.alpha - 1.0)

    def _breakpoints(self, s0: float) -> np.ndarray:
        k_max = int(np.ceil(np.log2(s0 * 64.0)))
        pos = s0 * 2.0 ** (-np.arange(k_max + 1, dtype=float))
        return np.concatenate([-pos, [0.0], pos[::-1]])

    def _refine_panels(self, keys: list) -> list:
        """Adaptive bisection of the panels keys = [(a, bb), ...]; returns
        (subpanels, integral) per panel.

        Every live interval of every panel is tested at once, one
        quadrature call per level for its whole, left half and right half.
        A panel's integral sums its leaves left to right, and each row's
        quadrature has the same bits in any batch, so the result equals
        refining the panels one by one, depth first.
        """
        g = self.g.eval
        lo = np.array([a for a, _ in keys], dtype=float)
        hi = np.array([bb for _, bb in keys], dtype=float)
        owner = np.arange(len(keys))
        leaves = []
        depth = 0
        while lo.size:
            mid = 0.5 * (lo + hi)
            n = lo.size
            parts = _gl_partial(g, np.concatenate([lo, lo, mid]),
                                np.concatenate([hi, mid, hi]))
            whole, halves = parts[:n], parts[n:2 * n] + parts[2 * n:]
            leaf = (depth >= _PANEL_MAX_DEPTH) | (np.abs(whole - halves) <=
                                                  _PANEL_ABS_TOL *
                                                  (1.0 + np.abs(halves)))
            leaves += zip(*(arr[leaf].tolist()
                            for arr in (owner, lo, hi, halves)))
            split = ~leaf
            lo, hi, owner = (np.concatenate([lo[split], mid[split]]),
                             np.concatenate([mid[split], hi[split]]),
                             np.tile(owner[split], 2))
            depth += 1
        subpanels = [[] for _ in keys]
        totals = [0.0] * len(keys)
        for i, a, bb, part in sorted(leaves):     # by panel, left to right
            subpanels[i].append((a, bb))
            totals[i] += part
        return list(zip(subpanels, totals))

    def _pick_cut(self) -> list:
        """Double S0 until the cut settles; return the refined panels of the
        chosen table, left to right.

        breakpoints(2 S0) is breakpoints(S0) plus +-2 S0, so each doubling
        refines only its two new outer panels and reuses the rest.  The
        reuse map is local to the search, so no finished table carries it.
        """
        g, alpha = self.g, self.alpha
        refined = {}
        s0 = _S0_INIT
        prev_total = None
        while True:
            bps = self._breakpoints(s0).tolist()
            keys = list(zip(bps[:-1], bps[1:]))
            new = [key for key in keys if key not in refined]
            refined.update(zip(new, self._refine_panels(new)))
            panels = [refined[key] for key in keys]
            dev_p = abs(float(np.asarray(g.eval(np.asarray(s0))))
                        * s0 ** alpha / g.cg_plus - 1.0)
            dev_m = abs(float(np.asarray(g.eval(np.asarray(-s0))))
                        * s0 ** alpha / g.cg_minus - 1.0)
            finite = 0.0
            for _, part in panels:
                finite += part
            total = (finite
                     + self._tail_mass(g.cg_minus, s0)
                     + self._tail_mass(g.cg_plus, s0))
            settled = (prev_total is not None and
                       abs(total - prev_total) <=
                       _TAIL_TOTAL_RTOL * max(1.0, abs(total)))
            if max(dev_p, dev_m) <= _TAIL_POINT_RTOL and settled:
                break
            prev_total = total
            s0 *= 2.0
            if s0 > _S0_MAX:
                raise ParameterError(
                    "weight tail never stabilizes against its declared "
                    "asymptote; check alpha and the tail constants")
        self.s0 = s0
        return panels

    def _build_tables(self, panels: list) -> None:
        g = self.g
        subpanels = [sub for sub_list, _ in panels for sub in sub_list]
        bps = np.array([p[0] for p in subpanels] + [subpanels[-1][1]])
        vals_g = _gl_partial(g.eval, bps[:-1], bps[1:])
        vals_h = _gl_partial(self._tg, bps[:-1], bps[1:])

        self.bps = bps
        self.tm_minus = self._tail_mass(g.cg_minus, self.s0)
        self.tm_plus = self._tail_mass(g.cg_plus, self.s0)
        self.cum = np.concatenate([[self.tm_minus],
                                   self.tm_minus + np.cumsum(vals_g)])
        self.total = float(self.cum[-1] + self.tm_plus)

        hraw = np.concatenate([[0.0], np.cumsum(vals_h)])
        i0 = int(np.searchsorted(bps, 0.0))
        if bps[i0] != 0.0:
            raise AssertionError("panel table lost the origin breakpoint")
        self.hcum = hraw - hraw[i0]

        # Chebyshev coefficients of s(w) = G^{-1}(w) on each panel, from
        # Newton at the nodes started by linear interpolation.  The sum over
        # nodes is elementwise, not a BLAS product, so its bits do not
        # depend on the number of panels.
        lo_w, span = self.cum[:-1], np.diff(self.cum)
        frac = 0.5 * (np.cos(_CHEB_THETA) + 1.0)[:, None]
        w = (lo_w + span * frac).ravel()
        idx = np.tile(np.arange(span.size), _CHEB_DEG + 1)
        s = self._panel_inverse(w, idx, bps[idx] + (bps[idx + 1] - bps[idx])
                                * (w - lo_w[idx]) / span[idx])
        s = s.reshape(_CHEB_DEG + 1, span.size)
        coef = (_CHEB_COS[:, :, None] * s).sum(axis=1) * \
            (2.0 / (_CHEB_DEG + 1))
        coef[0] *= 0.5
        self.cheb = coef

    # -- evaluation --------------------------------------------------------

    def _tabled(self, x, edges, below, mid, above):
        """One map of the table at x: below(v) for v <= edges[0], above(v)
        for v >= edges[-1] and mid(v, idx) in panel idx between, each on
        its own points only; a float for a float."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(arr)
        lo = arr <= edges[0]
        hi = arr >= edges[-1]
        inside = ~(lo | hi)
        if np.any(lo):
            out[lo] = below(arr[lo])
        if np.any(hi):
            out[hi] = above(arr[hi])
        if np.any(inside):
            v = arr[inside]
            idx = np.clip(np.searchsorted(edges, v, side="right") - 1,
                          0, len(edges) - 2)
            out[inside] = mid(v, idx)
        return float(out[0]) if np.ndim(x) == 0 else out

    def _tg(self, t):
        """t g(t), the integrand of H."""
        return t * np.asarray(self.g.eval(t))

    def _h_tail(self, cg: float, mag):
        """int_S0^mag t * cg t^(-alpha) dt, the H increment in a tail."""
        alpha, s0 = self.alpha, self.s0
        if alpha == 2.0:
            return cg * np.log(mag / s0)
        return cg * (mag ** (2.0 - alpha) - s0 ** (2.0 - alpha)) / \
            (2.0 - alpha)

    def tail_inverse(self, cg: float, gap):
        """The |s| at which a tail cg |s|^(-alpha) holds mass gap beyond s:
        G^{-1}(gap) = -tail_inverse(cg_minus, gap) in the lower tail and
        G^{-1}(G(inf) - gap) = tail_inverse(cg_plus, gap) in the upper."""
        return (cg / ((self.alpha - 1.0) * gap)) ** (1.0 / (self.alpha - 1.0))

    def value(self, s):
        """G(s), vectorized; accepts +-inf (|s|^(1-alpha) -> 0 in the
        tails)."""
        g = self.g
        return self._tabled(
            s, self.bps,
            lambda v: self._tail_mass(g.cg_minus, np.abs(v)),
            lambda v, idx: self.cum[idx] + _gl_partial(
                g.eval, self.bps[idx], v),
            lambda v: self.total - self._tail_mass(g.cg_plus, v))

    def h_value(self, s):
        """H(s) = int_0^s t g(t) dt for the hybrid weight, vectorized."""
        g = self.g
        return self._tabled(
            s, self.bps,
            lambda v: self.hcum[0] + self._h_tail(g.cg_minus, -v),
            lambda v, idx: self.hcum[idx] + _gl_partial(
                self._tg, self.bps[idx], v),
            lambda v: self.hcum[-1] + self._h_tail(g.cg_plus, v))

    def inverse(self, w):
        """G^{-1}(w), vectorized; safeguarded Newton inside the table (see
        `_panel_inverse`), closed form in the analytic tails.  Each point's
        result is independent of the other points passed with it."""
        arr = np.asarray(w, dtype=float)
        if np.any(arr <= 0.0) or np.any(arr >= self.total):
            raise DomainError(
                f"G^-1 needs arguments strictly inside (0, {self.total:g})")
        g = self.g
        return self._tabled(
            arr, self.cum,
            lambda v: -self.tail_inverse(g.cg_minus, v),
            lambda v, idx: self._panel_inverse(v, idx,
                                               self._cheb_start(v, idx)),
            lambda v: self.tail_inverse(g.cg_plus, self.total - v))

    def _cheb_start(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The panel's Chebyshev interpolant of G^{-1} at w by Clenshaw,
        clipped to the panel.  One coefficient row is gathered at a time,
        and the recurrence runs in four buffers: fresh temporaries per term
        would churn the heap top, which glibc then trims and faults back."""
        lo_w = self.cum[idx]
        t = 2.0 * (w - lo_w) / (self.cum[idx + 1] - lo_w) - 1.0
        t2 = 2.0 * t
        b1, b2 = np.zeros_like(t), np.zeros_like(t)
        c, prod = np.empty_like(t), np.empty_like(t)
        for k in range(_CHEB_DEG, 0, -1):
            # b_k = c_k + 2 t b_{k+1} - b_{k+2}, written over b_{k+2}
            np.take(self.cheb[k], idx, out=c)
            np.multiply(t2, b1, out=prod)
            np.add(c, prod, out=c)
            np.subtract(c, b2, out=b2)
            b1, b2 = b2, b1
        s = self.cheb[0][idx] + t * b1 - b2
        return np.clip(s, self.bps[idx], self.bps[idx + 1])

    def _panel_inverse(self, w: np.ndarray, idx: np.ndarray,
                       s: np.ndarray) -> np.ndarray:
        """Root of F(s) = G(s) - w in table panel idx, by Newton on F' = g.

        Starts from s inside the panel: the Chebyshev interpolant for
        `inverse`, linear interpolation in the cumulative table while the
        interpolant is fitted.  Keeps the bracket [lo, hi] around the root
        by the sign of F; a Newton point outside the open bracket is
        replaced by its midpoint.  A point stops once |F| <= _NEWTON_RTOL * w
        and takes its Newton-polished value, clipped to the bracket, then
        leaves the working arrays.
        """
        g = self.g.eval
        anchor = self.bps[idx]
        lo, hi = anchor, self.bps[idx + 1]
        tau = w - self.cum[idx]
        tol = _NEWTON_RTOL * w        # w >= cum[idx] > 0 inside the table
        out = np.empty_like(w)
        todo = np.arange(w.size)
        for _ in range(_NEWTON_MAX_ITERS):
            resid = _gl_partial(g, anchor, s) - tau
            newton = s - resid / np.asarray(g(s), dtype=float)
            high = resid > 0.0
            hi = np.where(high, s, hi)
            lo = np.where(high, lo, s)
            done = np.abs(resid) <= tol
            if done.any():
                out[todo[done]] = np.clip(newton[done], lo[done], hi[done])
                keep = ~done
                todo, anchor, tau, tol, lo, hi, newton = (
                    arr[keep] for arr in (todo, anchor, tau, tol, lo, hi,
                                          newton))
                if not todo.size:
                    return out
            s = np.where((lo < newton) & (newton < hi), newton,
                         0.5 * (lo + hi))
        out[todo] = s
        return out


_G_CACHE: "weakref.WeakKeyDictionary[DiffusionWeight, _TailCorrectedG]" = \
    weakref.WeakKeyDictionary()


def _antiderivative(g: DiffusionWeight) -> _TailCorrectedG:
    table = _G_CACHE.get(g)
    if table is None:
        table = _TailCorrectedG(g)
        _G_CACHE[g] = table
    return table


def g_antiderivative(g: DiffusionWeight, s) -> float:
    """G(s) = int_{-inf}^s g, tail-corrected; accepts s = +inf for the total.

    Raises
    ------
    RegimeError
        When g.alpha <= 1 (the integral diverges; no traveling wave exists).
    """
    return _antiderivative(g).value(s)


@dataclass(frozen=True)
class WaveProfile:
    """Traveling-wave profile W with speed c on (-b, b).

    ``w`` and ``wx`` are closed maps valid at any interior point; ``x_grid``
    and ``w_values`` sample them on a grid that is uniform in the middle and
    geometric near the walls (distances b * 2^-j).  ``f_inv_c`` stores
    f^{-1}(c) = G(inf)/(2b) exactly as used by the construction.
    """

    c: float
    x_grid: np.ndarray
    w_values: np.ndarray
    w: Callable[[np.ndarray], np.ndarray]
    wx: Callable[[np.ndarray], np.ndarray]
    d_plus: Optional[float]
    d_minus: Optional[float]
    g_total: float
    b: float
    f_inv_c: float


def _tail_js(b: float, q: float, table: _TailCorrectedG) -> np.ndarray:
    """Geometric tail indices j: default 3..40, trimmed where W_x would
    overflow, extended (never past 50) until the last slope clears 1e6."""
    def model_wx(j: float) -> float:
        gap = q * b * 2.0 ** (-j)
        gap = min(gap, table.tm_plus)  # inside the analytic-tail regime
        # As a numpy float the power overflows to inf (past _WX_CAP) for
        # alpha near 1, where a Python float raises OverflowError.
        with np.errstate(over="ignore"):
            return float(table.tail_inverse(table.g.cg_plus, np.float64(gap)))

    j_hi = _J_HI
    while model_wx(j_hi) > _WX_CAP and j_hi > _J_LO:
        j_hi -= 1
    while model_wx(j_hi) < _SLOPE_TARGET and j_hi < _J_CAP:
        j_hi += 1
    return np.arange(_J_LO, j_hi + 1, dtype=float)


def compute_wave(spec: ProblemSpec, n_grid: int = 512,
                 w0: float = 0.0) -> WaveProfile:
    """Compute the traveling-wave profile (W, c) for ``spec``.

    Parameters
    ----------
    spec : ProblemSpec
        Only b, f, g are used; the initial datum plays no role here.
    n_grid : int
        Points of the uniform interior grid on [-0.75 b, 0.75 b]; at least
        64.  Geometric boundary points are appended on both sides.
    w0 : float
        Anchor value W(0); profiles are unique up to this vertical shift.

    Raises
    ------
    RegimeError
        For alpha <= 1, where the defining integral G(inf) diverges.
    """
    if n_grid < 64:
        raise ParameterError(f"n_grid must be at least 64, got {n_grid}")
    b = spec.b
    table = _antiderivative(spec.g)
    q = table.total / (2.0 * b)        # = f^{-1}(c) by construction
    c = float(np.asarray(spec.f.eval(np.asarray(q))))
    alpha = table.alpha

    def wx_fn(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.asarray(x).ndim == 0
        if np.any(np.abs(arr) >= b):
            raise DomainError("the profile slope is only defined on (-b, b)")
        out = np.empty_like(arr)
        # Near the right wall, b - x is exact (Sterbenz) and the target sits
        # in the analytic tail: invert from the top gap to dodge the
        # catastrophic cancellation in G(inf) - (x+b) q.
        gap = q * (b - arr)
        top = gap <= table.tm_plus
        if np.any(top):
            out[top] = table.tail_inverse(table.g.cg_plus, gap[top])
        if np.any(~top):
            out[~top] = table.inverse((arr[~top] + b) * q)
        return float(out[0]) if scalar else out

    wx0 = float(wx_fn(0.0))
    h0 = table.h_value(wx0)

    def w_fn(x):
        return w0 + (table.h_value(wx_fn(x)) - h0) / q

    js = _tail_js(b, q, table)
    dists = b * 2.0 ** (-js)
    x_grid = np.union1d(
        np.union1d(np.linspace(-0.75 * b, 0.75 * b, n_grid), [0.0]),
        np.union1d(b - dists, -(b - dists)))
    w_values = w_fn(x_grid)

    d_plus = d_minus = None
    if 1.0 < alpha <= 2.0:
        d_plus, d_minus = _fit_divergence(x_grid, w_values, b, alpha)

    return WaveProfile(c=c, x_grid=x_grid, w_values=w_values, w=w_fn,
                       wx=wx_fn, d_plus=d_plus, d_minus=d_minus,
                       g_total=table.total, b=b, f_inv_c=q)


def _fit_divergence(x_grid: np.ndarray, w_values: np.ndarray, b: float,
                    alpha: float) -> Tuple[float, float]:
    """Slope of W against psi_gamma(wall distance) over the last decade of
    grid points on each side, with an intercept to absorb the anchor shift."""
    gamma = uniqueness_threshold(alpha)
    out = []
    for side in (+1, -1):
        dist = b - side * x_grid
        keep = (side * x_grid > 0.75 * b)
        d_min = float(np.min(dist[keep]))
        sel = keep & (dist <= 10.0 * d_min)
        if int(np.count_nonzero(sel)) < 3:
            raise RateExtractionError(
                "not enough boundary-layer points for a rate fit")
        coef, design = _fit_psi(gamma, dist[sel], w_values[sel])
        slopes = (w_values[sel] - coef[1]) / design[:, 0]
        mean = float(np.mean(slopes))
        spread = float((np.max(slopes) - np.min(slopes)) / abs(mean)) \
            if mean != 0.0 else np.inf
        if spread > _RATE_SPREAD_MAX:
            raise RateExtractionError(
                f"divergence-rate fit did not converge (spread {spread:.3g} "
                f"over the last decade)")
        out.append(float(coef[0]))
    return out[0], out[1]


def divergence_rate(profile: WaveProfile, g_alpha: float):
    """Boundary divergence constants (d_plus, d_minus) of the profile.

    For 1 < alpha <= 2 the profile diverges like D * psi_gamma(wall
    distance) with gamma = (2 - alpha)/(alpha - 1) (the log profile at
    alpha = 2); the constants are the last-decade fit `compute_wave`
    stored in the profile.  For alpha > 2 the wave is bounded and
    (None, None) is returned.

    Raises
    ------
    ParameterError
        For g_alpha <= 1 (no profile exists there at all).
    RateExtractionError
        When the per-point slopes spread more than 10%.
    """
    if g_alpha <= 1.0:
        raise ParameterError(
            "divergence rates require a tail exponent above 1")
    if g_alpha > 2.0:
        return None, None
    return profile.d_plus, profile.d_minus


def check_points(profile: WaveProfile) -> np.ndarray:
    """Grid points far enough from the walls for finite-difference checks
    (wall distance at least b * 2^-26)."""
    floor = profile.b * 2.0 ** (-_CHECK_J_MAX)
    keep = np.minimum(profile.b - profile.x_grid,
                      profile.b + profile.x_grid) >= floor
    return profile.x_grid[keep]


def profile_residuals(profile: WaveProfile, spec: ProblemSpec,
                      xs: np.ndarray) -> np.ndarray:
    """Relative residual |f^{-1}(c) - g(W_x) W_xx| / f^{-1}(c) with W_xx by
    centered differencing of the slope map (step 1e-4 of wall distance,
    using the actually representable step after rounding)."""
    xs = np.asarray(xs, dtype=float)
    dist = np.minimum(profile.b - xs, profile.b + xs)
    h = np.maximum(1e-4 * dist, 4.0 * np.finfo(float).eps * np.abs(xs))
    xp = xs + h
    xm = xs - h
    # One inversion for all three point sets; the inverse is
    # batch-independent, so the bits equal three separate calls.
    slope, sp, sm = (part.reshape(xs.shape) for part in np.split(
        np.asarray(profile.wx(np.concatenate([xs, xp, xm], axis=None)),
                   dtype=float), 3))
    wxx = (sp - sm) / (xp - xm)
    q = profile.f_inv_c
    return np.abs(q - np.asarray(spec.g.eval(slope)) * wxx) / abs(q)
