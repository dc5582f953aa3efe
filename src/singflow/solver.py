"""Explicit finite differences for u_t = f(g(u_x) u_xx) on (-b, b).

The singular boundary condition u(+-b, t) = +infinity is realized by a cap:
ghost nodes at +-b carry a large finite value M, and behavior as M grows
separates the regimes.  The PDE's capped solutions are nondecreasing in the
cap, since the Dirichlet problem has a comparison principle: in existence
regimes they saturate as the cap increases, in blow-up regimes they keep
climbing cap after cap.  `cap_study` automates that dichotomy read-out.
This scheme is not monotone in its ghost values for weights with tail
exponent alpha > 1: next to a wall the centered g(Dc u) * D2 u scales like
M^(1 - alpha), so there the update falls as the cap rises.  For
curvature(1) at n = 100, u(0, 0.1) falls from 5.17e-4 to 8.08e-6 as the cap
goes from 10 to 640.  The flux form f((G(u_x))_x), with G an antiderivative
of g, is monotone in every neighbour and is the pending fix.

The scheme is the plain explicit update

    u_i  <-  u_i + dt * f(g(Dc u_i) * D2 u_i)

with centered first and second differences, and dt bounded by `cfl_limit`,
which estimates the local slope of z -> f(g(p) z) by symmetric secants over
the realized (p, z) range of the field.  That bound does not make the scheme
order-preserving for sublinear f (growth rate beta < 1): the unit secant
floor understates f' near zero curvature, and ordered pairs a small gap
apart (1e-3 and below) swap order by up to about 1e-5 within 50 steps.  An
implicit monotone step is the pending fix.  The tests check the maximum
principle and, through `march_ordered`, that ordered pairs at least 0.05
apart stay ordered.

One kernel evaluates the scheme on a batch of ghost-padded rows on one grid;
`cfl_limit` and `step` run it on one row, and `solve`, `cap_study` and
`march_ordered` march through `_march`, the one march loop, which steps
ordered pairs in lockstep.

`_march` validates blocks of steps, not steps.  It takes up to `BLOCK` steps
on its live rows at a time, as many as the first row to reach its next stop
would take at the CFL step it last took; a march's first step, and a block
of fewer than 2 steps, is one step on the exact path.  Each step of a block
only evaluates the kernel, writes u + dt * rate into the idle state buffer,
adds dt to the row times, records dt and keeps a running elementwise max of
the states.  The block is committed when, at its end, every row's time lies
below its next stop (snapshot or end time), no dt fell below the floor, no
value passed its row's bound, nothing turned -inf and numpy reported no
floating-point error.  Times only grow, so then min(limit, stop - time) was
the limit on every step, and the block is bit for bit what step-by-step
marching gives.  Otherwise the state is restored and the block's steps are
replayed on the exact path, which retires, snapshots and advances rows one
by one and emits any floating-point warning under the caller's numpy
settings; f and g may see the discarded block's non-finite states before
that.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (InsufficientDataError, ParameterError,
                     SolverOverflowError, StepSizeError)
from .model import ProblemSpec
from .wave import fit_boundary_rate

log = logging.getLogger(__name__)

CFL_SAFETY = 0.5
LAMBDA_FLOOR = 1.0e-8
# Half-width floor for the secant window in the argument of f; see cfl_limit.
SECANT_ARG_FLOOR = 1.0
BLOWUP_VALUE = 1.0e12
DT_FLOOR = 1.0e-14
# A row has reached a stop t once its time is at least t * (1 - STOP_RTOL).
STOP_RTOL = 1.0e-12
# A pair in `march_ordered` steps this share of its two rows' CFL limits.
ORDERED_SAFETY = 0.9
# `_march` takes this many steps before it checks them.
BLOCK = 32

# Boundary-rate fits use unclamped nodes with wall distance in
# [RATE_DIST_INNER * dx, RATE_DIST_OUTER * b].
RATE_DIST_INNER = 1.5
RATE_DIST_OUTER = 0.25


@dataclass(frozen=True)
class GridField:
    """Interior values on the uniform grid x_i = -b + (i+1) dx, dx = 2b/(n+1).

    ``cap`` is the ghost value at x = +b; ``cap_minus`` overrides the ghost
    at x = -b (defaults to ``cap``; a negative value there is allowed, which
    makes odd-symmetric experiments possible).
    """

    b: float
    n: int
    values: np.ndarray
    cap: float
    time: float
    cap_minus: Optional[float] = None

    @property
    def dx(self) -> float:
        return 2.0 * self.b / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return -self.b + self.dx * np.arange(1, self.n + 1)

    @property
    def ghost_left(self) -> float:
        return self.cap if self.cap_minus is None else self.cap_minus


@dataclass(frozen=True)
class SolveReport:
    final: GridField
    dt_history: Dict[str, float]
    comparison_violations: int
    diverged: bool
    rate_fit: Optional[Dict[str, Tuple[float, float, float]]] = None
    blowup_time: Optional[float] = None
    snapshots: Tuple[Tuple[float, np.ndarray], ...] = ()


def make_field(b: float, n: int, values, cap: float,
               cap_minus: Optional[float] = None,
               time: float = 0.0) -> GridField:
    """Build a GridField from an array or a callable on the nodes.

    Values above the cap are clamped to it, the finite stand-in for data
    diverging at the walls.
    """
    if not 0.0 < b < math.inf:
        raise ParameterError(
            f"half-width must be positive and finite, got {b}")
    if n < 3:
        raise ParameterError(f"need at least 3 interior nodes, got {n}")
    if not (math.isfinite(cap) and cap >= 0.0):
        raise ParameterError(f"cap must be finite and nonnegative, got {cap}")
    if cap_minus is not None and not math.isfinite(cap_minus):
        raise ParameterError(f"cap_minus must be finite, got {cap_minus}")
    dx = 2.0 * b / (n + 1)
    if not math.isfinite(dx * dx):
        raise ParameterError(f"grid step dx = {dx:g} (half-width {b:g}, "
                             f"{n} nodes) has no finite square")
    nodes = -b + dx * np.arange(1, n + 1)
    vals = np.asarray(values(nodes) if callable(values) else values,
                      dtype=float).copy()
    if vals.shape != (n,):
        raise ParameterError(f"values must have shape ({n},), got {vals.shape}")
    if not np.all(np.isfinite(np.minimum(vals, cap))):
        raise ParameterError("initial values are not finite below the cap")
    np.minimum(vals, cap, out=vals)
    return GridField(b=b, n=n, values=vals, cap=cap, time=time,
                     cap_minus=cap_minus)


def _padded(fields: Sequence[GridField]) -> np.ndarray:
    """Rows of ghost-padded states: [ghost_left, values..., cap]."""
    u = np.empty((len(fields), fields[0].n + 2))
    for row, fld in zip(u, fields):
        row[0], row[1:-1], row[-1] = fld.ghost_left, fld.values, fld.cap
    return u


def _workspace(rows: int, n: int) -> Tuple[np.ndarray, ...]:
    """Scratch arrays for `_kernel` on `rows` rows of n interior nodes."""
    return (np.empty((rows, n)), np.empty((rows, n)), np.empty((3, rows, n)),
            np.empty((rows, n)), np.empty(rows))


def _kernel(u: np.ndarray, dx: float, spec: ProblemSpec,
            work: Optional[Tuple[np.ndarray, ...]] = None,
            out: Optional[np.ndarray] = None):
    """The scheme on ghost-padded rows u: per-row CFL step and f(g(p) z).

    Slope, curvature and g(slope) are evaluated once, and f once on the
    stacked arguments [s, s + r, s - r] of the update and of the secants
    (see cfl_limit); f and g see flat 1-D arrays.  The secant width
    2r = max(|s|, 2) is formed directly: halving and doubling are exact, so
    it equals twice the half-width r = max(|s|/2, 1) bit for bit, and so
    the step (0.5 * CFL_SAFETY * dx^2) / Lambda equals CFL_SAFETY * dx^2 /
    (2 Lambda).  Intermediates go to ``work`` (a `_workspace` of u's shape)
    and the step to ``out`` when given; the returned rate may be a view of
    ``work``, valid until the next call with it.
    """
    slope, curv, args, width, lam = work or _workspace(len(u), u.shape[1] - 2)
    left, mid, right = u[:, :-2], u[:, 1:-1], u[:, 2:]
    np.subtract(right, left, out=slope)
    slope /= 2.0 * dx
    np.multiply(mid, 2.0, out=curv)
    np.subtract(right, curv, out=curv)
    curv += left
    curv /= dx * dx
    weight = np.asarray(spec.g.eval(slope.ravel()),
                        dtype=float).reshape(curv.shape)
    arg = np.multiply(weight, curv, out=args[0])
    np.abs(arg, out=width)
    np.maximum(width, 2.0 * SECANT_ARG_FLOOR, out=width)
    half = np.multiply(width, 0.5, out=curv)
    np.add(arg, half, out=args[1])
    np.subtract(arg, half, out=args[2])
    vals = np.asarray(spec.f.eval(args.ravel()),
                      dtype=float).reshape(args.shape)
    spread = np.subtract(vals[1], vals[2], out=half)
    spread *= weight
    spread /= width
    np.maximum.reduce(spread, axis=1, initial=LAMBDA_FLOOR, out=lam)
    return np.divide(0.5 * CFL_SAFETY * dx ** 2, lam, out=out), vals[0]


def cfl_limit(field: GridField, spec: ProblemSpec) -> float:
    """Largest admissible explicit step 0.5 * dx^2 / (2 Lambda).

    Lambda bounds the slope of z -> f(g(p) z) over the field's realized
    derivative range, node by node, via symmetric secants.  The secant is
    taken in the argument of f: around s_i = g(p_i) z_i with half-width
    max(|s_i|/2, 1), so Lambda_i = g(p_i) * [f(s+r) - f(s-r)] / (2r).  The
    unit floor on the window keeps concave f (growth rate below 1, hence
    infinite slope at zero) from collapsing dt on nearly flat fields, while
    leaving the heat-equation value Lambda = max g and the superlinear
    large-curvature growth intact.  A secant (not a derivative) keeps this
    meaningful for non-smooth f.  The limit is the step kernel's own, bit
    for bit.
    """
    return float(_kernel(_padded([field]), field.dx, spec)[0][0])


def step(field: GridField, spec: ProblemSpec, dt: float) -> GridField:
    """One explicit update of a field; rejects steps beyond the CFL bound."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    u = _padded([field])
    limit, rate = _kernel(u, field.dx, spec)
    if dt > limit[0] * (1.0 + 1e-9):
        raise StepSizeError(
            f"dt = {dt:.3g} exceeds the stability limit {limit[0]:.3g}")
    new = u[0, 1:-1] + dt * rate[0]
    if not np.isfinite(new).all():
        node = int(np.flatnonzero(~np.isfinite(new))[0])
        raise SolverOverflowError(
            f"non-finite value at node {node} (x = {field.nodes[node]:.6g}) "
            f"at t = {field.time + dt:.6g}", node=node, time=field.time + dt)
    return replace(field, values=new, time=field.time + dt)


def march_ordered(spec: ProblemSpec, lows: Sequence[GridField],
                  highs: Sequence[GridField], t_end: float
                  ) -> Tuple[List[GridField], List[GridField], np.ndarray]:
    """March ordered pairs (lows[k], highs[k]) on one grid in lockstep.

    One kernel call a step serves every pair; pair k steps 0.9 times the
    smaller CFL limit of its two rows, clipped at t_end, and leaves the
    batch at t_end, bit for bit the loop of `cfl_limit` and `step` calls on
    it alone.  Returns the final lows and highs and each pair's largest
    excess max(low - high) after any step (-inf if it takes none).  A CFL
    step below 1e-14 or nan raises StepSizeError, a non-finite update
    SolverOverflowError; both name the pair.
    """
    fields, m = [*lows, *highs], len(lows)
    if m != len(highs) or len({(fld.b, fld.n) for fld in fields}) > 1 or any(
            lo.time != hi.time for lo, hi in zip(lows, highs)):
        raise ParameterError("pairs need one grid and a start time per pair")
    if not math.isfinite(t_end):
        raise ParameterError(f"t_end must be finite, got {t_end}")
    excess = np.full(m, -math.inf)
    finals = [rep.final for rep in _march(spec, fields, t_end, excess=excess)]
    return finals[:m], finals[m:], excess


def _fit_rates(field: GridField, spec: ProblemSpec):
    """Boundary-rate fits on the unclamped near-wall windows, both sides."""
    nodes = field.nodes
    vals = field.values
    out = {}
    for key, side in (("plus", 1), ("minus", -1)):
        dist = field.b - side * nodes
        wall_cap = field.cap if side == 1 else field.ghost_left
        keep = ((dist >= RATE_DIST_INNER * field.dx)
                & (dist <= RATE_DIST_OUTER * field.b)
                & (vals < wall_cap * (1.0 - 1e-9)))
        try:
            out[key] = fit_boundary_rate(nodes[keep], vals[keep], field.b,
                                         side=side, alpha=spec.g.alpha)
        except InsufficientDataError:
            return None
    return out


def _march(spec: ProblemSpec, fields: Sequence[GridField], t_end: float,
           snapshot_times: Optional[Sequence[float]] = None,
           excess: Optional[np.ndarray] = None) -> List[SolveReport]:
    """Evolve fields on one grid to t_end together, one kernel call a step
    for the batch, in blocks of steps (see the module docstring).

    Every row keeps its own CFL step, time, step count, dt range, violation
    count and snapshots, exactly as if it were marched alone.  A row that
    finishes or diverges is copied out and the batch is compacted then; a
    row that starts at or past t_end takes no step.  Snapshot times within
    the stop tolerance of an earlier requested time (their mark at or below
    it) share its stop; every requested time gets its own snapshot.
    Snapshot times must lie in [0, t_end].

    With ``excess`` (one entry per pair) the fields are the lows followed by
    the highs of `march_ordered`'s pairs.  Both rows of a pair step
    ORDERED_SAFETY times the smaller of their CFL limits, each step raises
    the pair's entry to its max(low - high), pairs do not retire at 1e12,
    and a row that would end early raises instead of retiring.
    """
    if not fields:
        return []
    b, n, dx = fields[0].b, fields[0].n, fields[0].dx
    wanted = sorted(map(float, snapshot_times or ()))
    # Requested times per stop; times 0.0 are snapshotted at the start.
    groups: List[List[float]] = []
    for t in wanted:
        if groups and t * (1.0 - STOP_RTOL) <= groups[-1][0]:
            groups[-1].append(t)
        elif t > 0.0:
            groups.append([t])
    stops = np.array([group[0] for group in groups] + [t_end])
    marks = stops * (1.0 - STOP_RTOL)
    snaps = [[(0.0, fld.values.copy()) for _ in range(wanted.count(0.0))]
             for fld in fields]
    reports: List[Optional[SolveReport]] = [None] * len(fields)

    def retire(k: int, values: np.ndarray, time: float, n_steps: int,
               blowup_time: Optional[float]) -> None:
        """Copy batch row k out as a report."""
        src = fields[row[k]]
        final = GridField(b=b, n=n, values=values.copy(), cap=src.cap,
                          time=float(time), cap_minus=src.cap_minus)
        reports[row[k]] = SolveReport(
            final=final,
            dt_history={
                "n_steps": float(n_steps),
                "dt_min": float(dt_min[k]) if n_steps else 0.0,
                "dt_max": float(dt_max[k]),
                "dt_mean": final.time / n_steps if n_steps else 0.0,
            },
            comparison_violations=int(violations[k]),
            diverged=blowup_time is not None,
            blowup_time=None if blowup_time is None else float(blowup_time),
            snapshots=tuple(snaps[row[k]]))

    def couple(limit: np.ndarray) -> None:
        """Each pair's rows step ORDERED_SAFETY times their smaller limit."""
        pairs = limit.reshape(2, -1)   # the lows' limits above the highs'
        pairs[:] = ORDERED_SAFETY * pairs.min(axis=0)

    def widen(new: np.ndarray) -> None:
        """Raise each pair's excess to max(low - high) of its new state."""
        h = len(new) // 2
        excess[row[:h]] = np.maximum(excess[row[:h]],
                                     np.max(new[:h] - new[h:], axis=1))

    row = np.arange(len(fields))
    # The state and the next state; ghost columns are set in both, and each
    # step writes only the interior of the idle buffer.
    u = _padded(fields)
    time = np.array([fld.time for fld in fields])
    bounds = [max(fld.cap, fld.ghost_left, float(np.max(fld.values)))
              for fld in fields]
    tol = np.array([bd + 1e-9 * max(1.0, abs(bd)) for bd in bounds])
    # A block commits only if no value passes this: no violation, no blow-up.
    ceiling = np.minimum(tol, BLOWUP_VALUE)
    blowup = BLOWUP_VALUE if excess is None else math.inf
    dt_min = np.full(len(fields), math.inf)
    dt_max = np.zeros(len(fields))
    violations = np.zeros(len(fields), dtype=np.int64)
    nxt = np.zeros(len(fields), dtype=np.intp)
    # The CFL step each row last took; a march's first step is exact.
    last = np.full(len(fields), math.inf)
    n_steps = 0   # rows start together, so one count serves them all
    replayed = failed = replay = 0
    # Inside a block every floating-point error numpy would report is only
    # recorded; the exact replay reports it as the caller's settings say.
    errors: List[Tuple[str, int]] = []
    modes = {key: "ignore" if mode == "ignore" else "call"
             for key, mode in np.geterr().items()}
    shape = None
    gone = time >= t_end   # such rows take no step
    for k in np.flatnonzero(gone):
        retire(k, u[k, 1:-1], time[k], 0, None)

    while not gone.all():
        if gone.any():
            keep = ~gone
            (row, u, time, tol, ceiling, dt_min, dt_max, violations, nxt,
             last, gone) = (arr[keep] for arr in (
                 row, u, time, tol, ceiling, dt_min, dt_max, violations, nxt,
                 last, gone))
        stop, mark = stops[nxt], marks[nxt]
        if shape != u.shape:
            # Per batch shape, never per block: large temporaries are mapped
            # fresh on every allocation.
            shape, spare, saved = u.shape, u.copy(), np.empty_like(u)
            work = _workspace(len(u), n)
            hist, peak = np.empty((BLOCK, len(u))), np.empty((len(u), n))
            start = np.empty(len(u))
        if not replay:
            # As many steps as the first row to reach its next stop would
            # take at its last step; fewer than 2 are taken exactly.
            size = int(min(BLOCK, np.min((mark - time) / last)))
            replay = int(size < 2)
        if not replay:
            block = hist[:size]
            np.copyto(saved, u)
            np.copyto(start, time)
            kept = None if excess is None else excess.copy()
            peak.fill(-math.inf)
            errors.clear()
            with np.errstate(call=lambda *err: errors.append(err), **modes):
                for dt in block:
                    _, rate = _kernel(u, dx, spec, work, dt)
                    if excess is not None:
                        couple(dt)
                    new = np.multiply(dt[:, None], rate, out=spare[:, 1:-1])
                    np.add(u[:, 1:-1], new, out=new)
                    time += dt
                    np.maximum(peak, new, out=peak)
                    if excess is not None:
                        widen(new)
                    u, spare = spare, u
            # A value that turned -inf stays -inf or turns nan, and max and
            # min carry nan, so end-of-block checks cover every step.
            if (not errors and (time < mark).all()
                    and block.min() >= DT_FLOOR
                    and (np.maximum.reduce(peak, axis=1) <= ceiling).all()
                    and u[:, 1:-1].min() > -math.inf):
                n_steps += size
                np.minimum(dt_min, block.min(axis=0), out=dt_min)
                np.maximum(dt_max, block.max(axis=0), out=dt_max)
                np.copyto(last, block[-1])
                continue
            np.copyto(u, saved)
            np.copyto(time, start)
            if excess is not None:
                excess[:] = kept
            replay = size
            failed += size
        replay -= 1
        replayed += 1
        limit, rate = _kernel(u, dx, spec, work, hist[0])
        stalled = ~(limit >= DT_FLOOR)
        if excess is not None:
            if stalled.any():
                k = np.flatnonzero(stalled)[0]
                raise StepSizeError(
                    f"CFL step of pair {row[k] % len(excess)} collapsed to "
                    f"{limit[k]:.3g} at t = {time[k]:.6g}")
            couple(limit)
        dt = np.minimum(limit, stop - time)
        new = np.multiply(dt[:, None], rate, out=spare[:, 1:-1])
        np.add(u[:, 1:-1], new, out=new)
        n_steps += 1
        later = time + dt
        # Rows whose CFL step collapsed or is nan (f returned non-finite
        # values on the secants), or whose update left the float range, end
        # on their current state without taking the step.
        gone = stalled | ~np.isfinite(new).all(axis=1)
        for k in np.flatnonzero(gone):
            if excess is not None:
                node = int(np.flatnonzero(~np.isfinite(new[k]))[0])
                side, pair = divmod(int(row[k]), len(excess))
                raise SolverOverflowError(
                    f"non-finite value at node {node} at t = {later[k]:.6g} "
                    f"in the {('low', 'high')[side]} field of pair {pair}",
                    node=node, time=float(later[k]))
            if np.isnan(limit[k]):
                log.warning("f returned non-finite values at t = %.6g",
                            time[k])
            elif stalled[k]:
                log.warning("CFL step collapsed to %.3g at t = %.6g",
                            limit[k], time[k])
            retire(k, u[k, 1:-1], time[k], n_steps - 1,
                   time[k] if stalled[k] else later[k])
        u, spare = spare, u
        time = later
        np.copyto(last, limit)
        np.minimum(dt_min, dt, out=dt_min)
        np.maximum(dt_max, dt, out=dt_max)
        violations += np.count_nonzero(new > tol[:, None], axis=1)
        if excess is not None:
            widen(new)
        blown = ~gone & (new.max(axis=1) > blowup)
        gone |= blown
        hit = ~gone & (nxt < len(groups)) & (time >= mark)
        for k in np.flatnonzero(hit):
            snaps[row[k]].extend((t, new[k].copy()) for t in groups[nxt[k]])
        nxt += hit
        done = ~gone & (time >= marks[-1])
        for k in np.flatnonzero(blown | done):
            retire(k, new[k], time[k], n_steps, time[k] if blown[k] else None)
        gone |= done
    log.debug("march of %d rows: %d steps, %d committed in blocks, %d "
              "replayed, %d kernel calls on failed blocks", len(fields),
              n_steps, n_steps - replayed, replayed, failed)
    return reports


def solve(spec: ProblemSpec, n: int, cap: float, t_end: float,
          cap_minus: Optional[float] = None,
          snapshot_times: Optional[Sequence[float]] = None) -> SolveReport:
    """Evolve the capped problem to t_end with per-step CFL adaptivity.

    Snapshots, when requested, are taken at the exact times listed (the
    stepper lands on them).  For B3 data the report carries boundary-rate
    fits of the final state; ``None`` when the unclamped window is too
    narrow to fit.

    A run is flagged ``diverged`` when a node passes 1e12, a value leaves
    the float range, the CFL step collapses below 1e-14, or f returns
    non-finite values on the CFL secants; in the last two cases
    ``blowup_time`` is the time reached.  Snapshot times outside [0, t_end],
    nan included, raise ParameterError.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ParameterError(f"t_end must be positive and finite, got {t_end}")
    if not all(0.0 <= float(t) <= t_end for t in snapshot_times or ()):
        raise ParameterError(
            f"snapshot times must lie in [0, t_end = {t_end:g}]")
    field = make_field(spec.b, n, spec.u0.values, cap, cap_minus=cap_minus)
    report = _march(spec, [field], t_end, snapshot_times)[0]
    if spec.u0.klass != "B3" or report.diverged:
        return report
    return replace(report, rate_fit=_fit_rates(report.final, spec))


@dataclass(frozen=True)
class CapStudy:
    rows: Tuple[Dict[str, float], ...]
    verdict: str
    probe: Tuple[float, float]


def _probe_value(report: SolveReport, x: float) -> float:
    field = report.final
    xs = np.concatenate([[-field.b], field.nodes, [field.b]])
    us = np.concatenate([[field.ghost_left], field.values, [field.cap]])
    return float(np.interp(x, xs, us))


def _cap_verdict(values: List[float], any_diverged: bool) -> str:
    if len(values) < 4:
        return "inconclusive"
    diffs = np.diff(np.asarray(values))
    last = diffs[-3:]
    scale = max(1.0, abs(values[-1]))
    if np.all(np.abs(last) <= 1e-9 * scale):
        return "saturating"
    # Mean per-step ratio across the last three differences; the geometric
    # mean tolerates a sign wobble at saturation depth that pointwise ratios
    # would not.
    ratio = math.sqrt(abs(last[-1]) / max(abs(last[0]), 1e-300))
    if ratio < 0.7:
        return "saturating"
    if ratio > 0.95 and (last[-1] > 1.0 or any_diverged):
        return "diverging"
    return "inconclusive"


def cap_study(spec: ProblemSpec, n: int, caps: Sequence[float],
              probe: Tuple[float, float]) -> CapStudy:
    """Probe u(x, t) across an increasing cap sequence and call the regime.

    The whole ladder is marched as one batch, each cap a row with its own
    CFL step, so every row equals the one-cap `solve` and reruns are
    deterministic.  Verdict rules on the last three successive probe
    differences via their mean geometric ratio: below
    0.7 (or a dead-flat tail) reads ``saturating``; above 0.95 with the last
    difference still exceeding 1 reads ``diverging``; anything else,
    including fewer than four caps, is ``inconclusive``.
    """
    return cap_studies(spec, n, caps, [probe])[0]


def cap_studies(spec: ProblemSpec, n: int, caps: Sequence[float],
                probes: Sequence[Tuple[float, float]]) -> List[CapStudy]:
    """`cap_study` at each probe; probes that share a time share one march.

    A study whose probe value falls as the cap rises (see the module
    docstring) logs one warning naming the first falling rung.

    Probes at different times keep their own march: a stop at one probe's
    time would shorten a step of the other's and change every later bit.
    """
    caps = [float(cv) for cv in caps]
    if any(c2 <= c1 for c1, c2 in zip(caps, caps[1:])):
        raise ParameterError("caps must be strictly increasing")
    probes = [(float(x), float(t)) for x, t in probes]
    if any(not (-spec.b < x < spec.b and 0.0 < t < math.inf)
           for x, t in probes):
        raise ParameterError(
            "probe must be interior with a positive finite time")

    fields = [make_field(spec.b, n, spec.u0.values, cap) for cap in caps]
    marched: Dict[float, List[SolveReport]] = {}
    studies: List[CapStudy] = []
    for x, t in probes:
        if t not in marched:
            marched[t] = _march(spec, fields, t)
        reports = marched[t]
        rows: List[Dict[str, float]] = []
        values: List[float] = []
        prev: Optional[float] = None
        for cap, report in zip(caps, reports):
            val = _probe_value(report, x)
            rows.append({
                "cap": cap,
                "value": val,
                "diff": math.nan if prev is None else val - prev,
                "monotone": 1.0 if (prev is None or val >= prev) else 0.0,
                "diverged": 1.0 if report.diverged else 0.0,
            })
            values.append(val)
            prev = val
        fall = next((row for row in rows if row["diff"] < 0.0), None)
        if fall is not None:
            log.warning("cap study at (x, t) = (%g, %g) is not monotone in "
                        "the cap: at cap %g the probe value %.6g is %.3g "
                        "below the rung before it", x, t, fall["cap"],
                        fall["value"], -fall["diff"])
        verdict = _cap_verdict(values, any(r.diverged for r in reports))
        studies.append(CapStudy(rows=tuple(rows), verdict=verdict,
                                probe=(x, t)))
    return studies
