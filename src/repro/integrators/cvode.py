"""A from-scratch CVODE-style stiff/non-stiff ODE integrator, batched over
independent systems.

Reimplements the algorithm family of CVODE (Cohen & Hindmarsh, "CVODE, a
stiff/nonstiff ODE solver in C", Computers in Physics 1996) — the library
the paper wraps as ``CvodeComponent``:

* **BDF mode** (stiff): variable-order (1-5), variable-step backward
  differentiation formulas on a non-uniform time grid, solved by modified
  Newton iteration with a finite-difference dense Jacobian.  The Jacobian
  is differenced once at the initial point and kept — whatever happens to
  the step size — until it is over 20 attempts old or a Newton iteration
  fails to converge on it (CVODE's ``jok``: ``I - gamma J`` is re-formed
  from the saved ``J`` on every attempt, only ``J`` itself is expensive).
  A caller with an analytic Jacobian passes it as ``jac`` (CVODE's
  ``CVodeSetJacFn``); it is formed at the same moments and counted as
  the same ``nje``, and the difference quotients are skipped.
* **Adams mode** (non-stiff): variable-order (1-5) Adams-Moulton
  predictor-corrector solved by functional iteration.

Local error is controlled in the weighted RMS norm
``||e|| = sqrt(mean((e_i / (rtol |y_i| + atol_i))^2))`` with a
proportional step controller; order ramps up as history accrues and backs
off on repeated failures — the same control structure as CVODE, with the
Nordsieck array replaced by an explicit solution history (whose
divided-difference predictors are algebraically equivalent).  CVODE's
array starts as ``[y0, h f0]``; the history starts with the two nodes
that say the same thing, ``(t0, y0)`` and ``(t0 - h0, y0 - h0 f0)``, so
the first step predicts ``y0 + h f0`` and is judged by the second-order
estimate of every later order-1 step.  An order-q predictor always has
q + 1 nodes under it.

**Batched layout.**  The state is ``(n, B)``: ``B`` independent systems
("columns" — the cells of a chemistry half-step) of ``n`` unknowns each.
Every column keeps its own time, step size, order, solution history,
Jacobian and statistics, exactly as ``B`` separate solvers would; what
the batch shares is the *calls*.  Columns advance in lockstep through the
fixed phases of one step attempt (predict, refresh Jacobians, Newton
iterations, error test, order/step update) under per-column masks, so one
RHS round is one call on the columns still iterating, the
finite-difference Jacobians of all stale columns are one call on
``(n, B_stale * (n + 1))``, and the Newton systems are one stacked LAPACK
solve.  A 1-D ``y0`` is the ``B = 1`` case.

**Column independence.**  A column's result does not depend, bit for bit,
on which other columns share its batch, on their order, or on ``B``:
everything here is elementwise along the column axis, sums over the
``n`` unknowns or the history are explicit accumulations in index order,
the history arrays have a fixed length (no shape depends on the batch's
largest order), and the linear algebra is one LAPACK call per column.
The RHS callable must keep the same promise (see
:mod:`repro.chemistry.mechanism`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import IntegratorError
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry

#: batched ``f(t, y, *args) -> dy/dt`` with ``t`` of shape ``(b,)`` and
#: ``y`` of shape ``(n, b)``; or, for a 1-D ``y0``, scalar ``f(t, y)``
RHS = Callable[..., np.ndarray]

_MAX_ORDER = 5
_MAX_NEWTON = 4
_MAX_FUNCTIONAL = 10
_MAX_STEP_FAILS = 12
_HIST = _MAX_ORDER + 2   # history entries kept per column, newest first
#: ``CVodeStats`` field -> the ``kind="cvode"`` counter it feeds
_PUBLISHED = {"nsteps": "integrator.steps", "nfe": "integrator.rhs_evals",
              "nje": "integrator.jac_evals", "nerrfail": "integrator.err_fails",
              "nconvfail": "integrator.conv_fails"}


@dataclass
class CVodeStats:
    """Cumulative integrator statistics (mirrors CVodeGetNumSteps &c).

    One ``(B,)`` integer array per field for a batched solve — each
    column counts what a solver of its own would have counted — and plain
    integers for a 1-D ``y0``.
    """

    nsteps: int | np.ndarray = 0
    nfe: int | np.ndarray = 0       # RHS evaluations of this column
    nje: int | np.ndarray = 0
    nni: int | np.ndarray = 0       # nonlinear iterations
    nerrfail: int | np.ndarray = 0  # error-test failures
    nconvfail: int | np.ndarray = 0  # nonlinear-convergence failures


# -- per-column polynomial weights ------------------------------------------
# ``nodes`` is (M, b) and ``count`` holds, per column, how many of its
# leading nodes to use.  Unused rows are skipped by ``np.where`` (never by
# a shorter loop), so every column sees the same operations whatever its
# neighbours.

def _lagrange_weights(nodes: np.ndarray, count: np.ndarray,
                      t: np.ndarray) -> np.ndarray:
    """``L[i, q, j]``: the i-th Lagrange basis polynomial through the
    first ``count[q, j]`` nodes of column j, evaluated at ``t[j]`` (zero
    on unused rows)."""
    rows = np.arange(len(nodes))
    used = rows[:, None, None] < count
    L = np.ones(used.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # ratio[i, m] = (t - x_m) / (x_i - x_m)
        ratio = (t - nodes) / (nodes[:, None] - nodes)
        ratio[rows, rows] = 1.0
        for m in rows:
            L = np.where(used[m], L * ratio[:, m, None], L)
    return np.where(used, L, 0.0)


def _integral_weights(nodes: np.ndarray, count: np.ndarray, a: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Weights w with ∫_a^b p(t) dt = sum_i w[i] f(nodes[i]) for the
    interpolating polynomial through each column's nodes (Lagrange basis
    integrals).

    Nodes are shifted/scaled to [0, 1]-ish magnitudes before forming the
    monomial basis, keeping the small systems (<= 6 nodes) well
    conditioned.
    """
    M = len(nodes)
    used = np.arange(M)[:, None] < count
    scale = np.maximum(np.abs(b - a), 1e-300)
    x = (nodes - a) / scale
    upper = (b - a) / scale
    w = np.zeros(nodes.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(M):
            # basis polynomial i, coefficients lowest power first
            poly = np.zeros(nodes.shape)
            poly[0] = 1.0
            for m in range(M):
                if m == i:
                    continue
                times_x = np.zeros(nodes.shape)
                times_x[1:] = poly[:-1]
                grown = (times_x - x[m] * poly) / (x[i] - x[m])
                poly = np.where(used[m], grown, poly)
            integral = poly[M - 1] / M
            for p in range(M - 2, -1, -1):
                integral = integral * upper + poly[p] / (p + 1)
            w[i] = integral * upper * scale
    return np.where(used, w, 0.0)


def _combine(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[q] = sum_i weights[i, q] * values[i]`` accumulated in index
    order; ``weights`` is (M, Q, b), ``values`` (M, n, b)."""
    out = weights[0][:, None] * values[0]
    for i in range(1, len(weights)):
        out += weights[i][:, None] * values[i]
    return out


def _solve_columns(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrices[j] x = rhs[:, j]`` for every column j: one LAPACK
    ``gesv`` per column.  An exactly singular column comes back NaN (its
    Newton iteration then fails to converge and the step shrinks) instead
    of aborting the batch."""
    stacked = rhs.T[:, :, None]
    try:
        x = np.linalg.solve(matrices, stacked)
    except np.linalg.LinAlgError:
        x = np.full(stacked.shape, np.nan)
        for j in range(len(matrices)):
            try:
                x[j] = np.linalg.solve(matrices[j], stacked[j])
            except np.linalg.LinAlgError:
                pass
    return np.ascontiguousarray(x[:, :, 0].T)


def _per_column(rhs: RHS) -> RHS:
    """Lift a scalar-state ``f(t, y_1d)`` (or its Jacobian) to the
    batched calling convention with a loop over columns."""

    def batched(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        columns = np.ascontiguousarray(y.T)
        return np.stack([np.asarray(rhs(float(t[j]), columns[j]), dtype=float)
                         for j in range(len(columns))], axis=-1)

    return batched


class CVode:
    """Variable-order, variable-step BDF/Adams integrator over a batch of
    independent systems (see the module docstring for the layout and the
    column-independence contract).

    Parameters
    ----------
    rhs:
        For a 2-D ``y0``: batched ``f(t, y, *args) -> dy/dt`` with ``t``
        of shape ``(b,)`` and ``y`` of shape ``(n, b)``, called on
        whichever columns need an evaluation (``b`` varies, and a column
        may appear more than once).  For a 1-D ``y0``: ``f(t, y)`` with a
        float ``t`` and 1-D ``y``; it is looped over columns.
    t0, y0:
        Initial condition: ``y0`` of shape ``(n, B)`` with ``t0`` a
        scalar or ``(B,)``; or a single 1-D state, in which case times,
        steps, orders, states and statistics read as scalars / 1-D.
    rtol, atol:
        Relative / absolute tolerances (``atol`` scalar or per-component).
    method:
        ``"bdf"`` (stiff; modified Newton) or ``"adams"`` (non-stiff;
        functional iteration).
    max_order:
        Cap on the method order (<= 5).
    h0:
        Optional initial step (positive); otherwise chosen from the
        initial slope and, in BDF mode, the initial second derivative.
    max_step:
        Optional (positive) upper bound on the internal step size.
    args:
        Per-column constants of a batched solve (e.g. each vessel's
        density): arrays with a trailing axis of length ``B``, handed to
        ``rhs`` after ``(t, y)`` restricted to the columns evaluated.
    jac:
        Optional analytic Jacobian in ``rhs``'s calling convention,
        returning ``(n, n, b)`` with ``[i, j, c]`` = ∂f_i/∂y_j of column
        ``c`` (``(n, n)`` for a 1-D ``y0``); without it the Jacobians are
        forward differences of ``rhs``.
    """

    def __init__(self, rhs: RHS, t0: float | np.ndarray, y0: np.ndarray,
                 rtol: float = 1e-6, atol: float | np.ndarray = 1e-9,
                 method: str = "bdf", max_order: int = _MAX_ORDER,
                 h0: float | None = None,
                 max_step: float | None = None,
                 args: tuple[np.ndarray, ...] = (),
                 jac: RHS | None = None) -> None:
        if method not in ("bdf", "adams"):
            raise IntegratorError(f"unknown method {method!r}")
        if not (0 < rtol < 1):
            raise IntegratorError(f"rtol must be in (0, 1), got {rtol}")
        if not 1 <= max_order <= _MAX_ORDER:
            raise IntegratorError(
                f"max_order must be in [1, {_MAX_ORDER}], got {max_order}")
        self.method = method
        self.rtol = float(rtol)
        self.atol = np.asarray(atol, dtype=float)
        if np.any(self.atol <= 0):
            raise IntegratorError("atol must be positive")
        self.max_order = max_order
        if h0 is not None and not 0 < h0 < np.inf:
            raise IntegratorError(
                f"h0 must be positive and finite, got {h0}")
        if max_step is not None and not max_step > 0:
            raise IntegratorError(f"max_step must be positive, got {max_step}")
        self.max_step = max_step

        y0 = np.array(y0, dtype=float)
        self._single = y0.ndim == 1
        if self._single:
            if args:
                raise IntegratorError(
                    "args are the per-column constants of an (n, B) solve")
            rhs = _per_column(rhs)
            jac = None if jac is None else _per_column(jac)
            y0 = y0[:, None]
        elif y0.ndim != 2:
            raise IntegratorError(
                f"y0 must be (n,) or (n, B), got shape {y0.shape}")
        self.rhs, self.jac = rhs, jac
        self.n, self.B = n, B = y0.shape
        self._args = tuple(np.asarray(a) for a in args)
        self._atol_col = self.atol[:, None] if self.atol.ndim else self.atol
        self._stats = CVodeStats(*(np.zeros(B, dtype=int) for _ in range(6)))

        # per-column history of (t, y[, f]), newest first; only Adams
        # reads past derivatives
        self._ts = np.zeros((_HIST, B))
        self._ys = np.zeros((_HIST, n, B))
        self._ts[0] = t0
        self._ys[0] = y0
        self._t_start = self._ts[0].copy()
        cols = np.arange(B)
        f0 = self._f(cols, self._ts[0], y0)
        self._order = np.ones(B, dtype=int)
        self._fails = np.zeros(B, dtype=int)   # of the step in progress
        # modified Newton: Jacobians are kept until they go stale.  The
        # first one is differenced here, where it also bounds the first
        # step, instead of at the first attempt's predictor
        self._jac_ok = np.full(B, method == "bdf")
        self._jac_age = np.zeros(B, dtype=int)
        self._jac = (self._jacobians(cols, self._ts[0], y0)
                     if method == "bdf" else np.zeros((B, n, n)))
        self._h = (np.full(B, float(h0)) if h0 is not None
                   else self._initial_step(y0, f0))
        # the Nordsieck array's ``h f0``, as a history node: the line
        # through (t0, y0) with slope f0, sampled one first step back
        # (over the spacing as rounded)
        self._ts[1] = self._ts[0] - self._h
        self._ys[1] = y0 - (self._ts[0] - self._ts[1]) * f0
        self._nhist = np.full(B, 2)
        if method == "adams":
            self._fs = np.zeros((_HIST, n, B))
            self._fs[:2] = f0
        # totals already sent to the metrics registry
        self._published = dict.fromkeys(_PUBLISHED, 0)

    # -- public API ------------------------------------------------------------
    def _out(self, a: np.ndarray):
        """A per-column quantity as the caller sees it: ``(..., B)``
        arrays for a batch, the one column's value for a 1-D ``y0``."""
        if self._single:
            a = a[..., 0]
        return a.copy() if a.ndim else a.item()

    @property
    def t(self):
        """Current time of every column (each is at its own)."""
        return self._out(self._ts[0])

    @property
    def y(self):
        """Current state, ``(n, B)`` (or 1-D)."""
        return self._out(self._ys[0])

    @property
    def h(self):
        """Step size each column will try next."""
        return self._out(self._h)

    @property
    def order(self):
        """Current method order of every column."""
        return self._out(self._order)

    @property
    def stats(self) -> CVodeStats:
        return CVodeStats(**{name: self._out(count)
                             for name, count in vars(self._stats).items()})

    def step(self):
        """Advance every column by one internal step of its own; returns
        the new (t, y)."""
        pending = np.arange(self.B)
        while pending.size:
            pending = pending[~self._attempt(pending)]
        return self.t, self.y

    def integrate_to(self, t_end: float | np.ndarray):
        """Step every column to ``t_end`` (scalar or ``(B,)``) and return
        the state there."""
        t_end = np.broadcast_to(np.asarray(t_end, dtype=float), (self.B,))
        behind = np.flatnonzero(t_end < self._ts[0])
        if behind.size:
            j = behind[0]
            raise IntegratorError(
                f"cannot integrate backwards ({t_end[j]} < {self._ts[0, j]})")
        t0 = time.perf_counter() if _obs.on else 0.0
        rounds = 0
        while True:
            # columns drop out of the lockstep as they arrive
            idx = np.flatnonzero(self._ts[0] < t_end)
            if not idx.size:
                break
            # the last step is shortened to land on t_end
            room = np.maximum(t_end[idx] - self._ts[0, idx], 1e-300)
            self._h[idx] = np.minimum(self._h[idx], room)
            self._attempt(idx)
            rounds += 1
        out = self.interpolate(t_end)
        if _obs.on:
            # what this solver has done since it last reported — from its
            # construction on, whose RHS and Jacobian evaluations belong
            # to the first call
            totals = {name: int(getattr(self._stats, name).sum())
                      for name in _PUBLISHED}
            new = {name: totals[name] - self._published[name]
                   for name in _PUBLISHED}
            self._published = totals
            _obs.complete("cvode.integrate_to", "integrator", t0,
                          t_end=float(t_end.max()), columns=self.B,
                          rounds=rounds, **new)
            reg = _obs_registry()
            for name, counter in _PUBLISHED.items():
                reg.counter(counter, kind="cvode").inc(new[name])
        return out

    def integrate_to_event(self, t_max: float,
                           event: Callable[[float, np.ndarray], float],
                           tol: float = 1e-10
                           ) -> tuple[float, np.ndarray, bool]:
        """Integrate until ``event(t, y)`` changes sign or ``t_max``.

        Root localization uses bisection on the dense output inside the
        step that bracketed the sign change (CVODE's rootfinding role —
        used e.g. to measure ignition delay).  Returns
        ``(t, y, event_found)``.  Locates the root of one system, so it
        needs a 1-D ``y0``.
        """
        if not self._single:
            raise IntegratorError(
                "integrate_to_event locates the root of a single system: "
                f"it needs a 1-D y0 (B = 1), got an (n, {self.B}) batch")
        g_prev = float(event(self.t, self.y))
        while self.t < t_max:
            t_prev = self.t
            self._h[0] = min(self._h[0], max(t_max - t_prev, 1e-300))
            self.step()
            g_now = float(event(self.t, self.y))
            if g_prev == 0.0:
                return t_prev, self.interpolate(t_prev), True
            if g_prev * g_now < 0.0:
                lo, hi = t_prev, self.t
                g_lo = g_prev
                while hi - lo > tol * max(1.0, abs(hi)):
                    mid = 0.5 * (lo + hi)
                    g_mid = float(event(mid, self.interpolate(mid)))
                    if g_lo * g_mid <= 0.0:
                        hi = mid
                    else:
                        lo, g_lo = mid, g_mid
                t_root = 0.5 * (lo + hi)
                return t_root, self.interpolate(t_root), True
            g_prev = g_now
        return self.t, self.y, False

    def interpolate(self, t: float | np.ndarray):
        """Dense output via each column's current history polynomial."""
        t = np.broadcast_to(np.asarray(t, dtype=float), (self.B,))
        count = np.minimum(self._order + 1, self._nhist)
        # the history runs newest first; the seeded node is not history
        hi = self._ts[0]
        lo = np.maximum(self._ts[count - 1, np.arange(self.B)], self._t_start)
        outside = np.flatnonzero(~((lo - 1e-12 <= t) & (t <= hi + 1e-12)))
        if outside.size:
            j = outside[0]
            raise IntegratorError(
                f"column {j}: interpolation point {t[j]} outside history "
                f"range [{lo[j]}, {hi[j]}]")
        weights = _lagrange_weights(self._ts, count[None], t)
        return self._out(_combine(weights, self._ys)[0])

    # -- internals --------------------------------------------------------------
    def _f(self, cols: np.ndarray, t: np.ndarray, y: np.ndarray,
           repeats: int = 1) -> np.ndarray:
        """One RHS call: ``repeats`` consecutive columns of ``y`` for each
        column in ``cols`` (which counts ``repeats`` evaluations)."""
        self._stats.nfe[cols] += repeats
        args = (a[..., cols] for a in self._args)
        if repeats > 1:
            args = (np.repeat(a, repeats, axis=-1) for a in args)
        f = np.asarray(self.rhs(t, y, *args), dtype=float)
        if f.shape != y.shape:
            raise IntegratorError(
                f"rhs returned shape {f.shape} for a state of shape "
                f"{y.shape}: a 2-D y0 needs a batched f(t (b,), y (n, b))")
        return f

    def _wrms(self, e: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Weighted RMS norm of every column of ``e`` (shape (..., n, b))
        with the weights of ``y`` (n, b)."""
        r = e / (self.rtol * np.abs(y) + self._atol_col)
        r *= r
        total = r[..., 0, :].copy()
        for i in range(1, self.n):
            total += r[..., i, :]
        return np.sqrt(total / self.n)

    def _initial_step(self, y0: np.ndarray, f0: np.ndarray) -> np.ndarray:
        """First-step guess: 1% of the solution's own time scale
        ``||y|| / ||f||`` and, in BDF mode, no more than half the step
        ``sqrt(2 / ||y''||)`` whose order-1 local error ``h^2 y'' / 2``
        meets the tolerance (CVODE's ``CVHin`` and its bias).
        ``y'' = J f0`` comes from the Jacobians already in hand; ``f_t``
        is left out, the value being only an upper bound."""
        d0 = self._wrms(y0, y0)
        d1 = self._wrms(f0, y0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / d1, 1e-6)
            if self.method == "bdf":
                # sum over the unknowns in index order (column independence)
                ypp = self._jac[:, :, 0].T * f0[0]
                for j in range(1, self.n):
                    ypp += self._jac[:, :, j].T * f0[j]
                # fmin: a NaN curvature bounds nothing
                h = np.fmin(h, 0.5 * np.sqrt(2.0 / self._wrms(ypp, y0)))
        if self.max_step is not None:
            h = np.minimum(h, self.max_step)
        return np.maximum(h, 1e-14)

    def _attempt(self, idx: np.ndarray) -> np.ndarray:
        """One step attempt on the columns ``idx``, each at its own order
        and step size, in lockstep.  Commits the columns that pass the
        error test, shrinks the step (and perhaps the order) of those
        that fail it or fail to converge, and returns the mask (over
        ``idx``) of columns that advanced."""
        h = self._h[idx]
        # invariant: order < history length (it only rises with history),
        # so an order-q predictor is never built from fewer than q + 1 nodes
        k = self._order[idx]
        nhist = self._nhist[idx]
        ts = self._ts[:, idx]
        ys = self._ys[:, :, idx]
        t_new = ts[0] + h
        # predictors at orders k-1, k, k+1 feed the order-selection logic
        orders = k + np.array([[-1], [0], [1]])
        usable = (orders >= 1) & (orders <= self.max_order) & (orders < nhist)
        weights = _lagrange_weights(ts, np.minimum(orders + 1, nhist), t_new)
        preds = _combine(weights, ys)
        y_pred = preds[1]
        if self.method == "bdf":
            y_new, converged, retry = self._solve_bdf(
                idx, ts, ys, t_new, weights[:, 0], y_pred)
        else:
            y_new, f_new, converged = self._solve_adams(idx, ts, ys, t_new,
                                                        k, y_pred)
            retry = np.zeros(len(idx), dtype=bool)
        # local error estimates: corrector minus each predictor, scaled
        # by the standard order-dependent constant; the step's own is
        # the same-order one
        with np.errstate(invalid="ignore"):
            ests = self._wrms(y_new - preds, y_new) / (orders + 2)
            err = ests[1]
            accepted = converged & (err <= 1.0)

        a = np.flatnonzero(accepted)
        if a.size:
            cols = idx[a]
            self._ts[1:, cols] = ts[:-1, a]
            self._ts[0, cols] = t_new[a]
            self._ys[1:, :, cols] = ys[:-1, :, a]
            self._ys[0][:, cols] = y_new[:, a]
            if self.method == "adams":
                self._fs[1:, :, cols] = self._fs[:-1, :, cols]
                self._fs[0][:, cols] = f_new[:, a]
            self._nhist[cols] = np.minimum(nhist[a] + 1, _HIST)
            self._stats.nsteps[cols] += 1
            self._fails[cols] = 0
            order = self._adapt_order(k[a], self._nhist[cols], ests[:, a],
                                      usable[:, a])
            self._order[cols] = order
            factor = 0.9 * np.maximum(err[a], 1e-10) ** (-1.0 / (order + 1))
            h_next = h[a] * np.minimum(3.0, np.maximum(0.2, factor))
            if self.max_step is not None:
                h_next = np.minimum(h_next, self.max_step)
            self._h[cols] = h_next

        e = np.flatnonzero(converged & ~accepted)
        if e.size:
            cols = idx[e]
            self._stats.nerrfail[cols] += 1
            self._fails[cols] += 1
            factor = np.fmax(0.1, 0.9 * err[e] ** (-1.0 / (k[e] + 1)))
            self._h[cols] = h[e] * np.minimum(factor, 0.5)
            self._order[cols] = np.where(
                (self._fails[cols] >= 3) & (k[e] > 1), k[e] - 1, k[e])

        c = np.flatnonzero(~converged & ~retry)
        if c.size:
            cols = idx[c]
            self._stats.nconvfail[cols] += 1
            self._fails[cols] += 1
            self._jac_ok[cols] = False   # force a fresh Jacobian
            self._h[cols] = h[c] * 0.25
            self._order[cols] = np.maximum(k[c] - 1, 1)

        # every column's bookkeeping is complete before one gives up
        stuck = idx[self._fails[idx] > _MAX_STEP_FAILS]
        if stuck.size:
            j = stuck[0]
            self._fails[j] = 0
            kind = "error-test" if j in idx[e] else "nonlinear"
            raise IntegratorError(
                f"column {j}: too many {kind} failures at "
                f"t={self._ts[0, j]:.6g}, h={self._h[j]:.3e}")
        return accepted

    # -- BDF ---------------------------------------------------------------
    def _solve_bdf(self, idx: np.ndarray, ts: np.ndarray, ys: np.ndarray,
                   t_new: np.ndarray, lower_weights: np.ndarray,
                   y_pred: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Modified Newton on ``y = gamma f(t, y) + psi``.  Returns the
        iterate, the mask of converged columns, and the mask of columns
        that failed on an aged Jacobian: those get a fresh one and retry
        the same step at the next attempt, free of charge.

        ``lower_weights`` are the order-(k-1) predictor's: the Lagrange
        basis l_i of the k newest history nodes at ``t_new``.  The BDF
        derivative weight of node i is l_i(t_new) / (t_i - t_new), and
        that of the new point minus their sum.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(lower_weights != 0.0,
                         lower_weights / (ts - t_new), 0.0)
        c_new = -c[0]
        for i in range(1, len(c)):
            c_new -= c[i]
        gamma = 1.0 / c_new
        psi = -gamma * _combine(c[:, None], ys)[0]
        self._refresh_jacobians(idx, t_new, y_pred)
        newton = -gamma[:, None, None] * self._jac[idx]
        diag = np.arange(self.n)
        newton[:, diag, diag] += 1.0

        y = y_pred.copy()
        converged = np.zeros(len(idx), dtype=bool)
        prev_norm = np.full(len(idx), np.inf)
        live = np.arange(len(idx))   # columns still iterating
        for _ in range(_MAX_NEWTON):
            self._stats.nni[idx[live]] += 1
            y_live = y[:, live]
            f = self._f(idx[live], t_new[live], y_live)
            resid = y_live - gamma[live] * f - psi[:, live]
            delta = _solve_columns(newton[live], resid)
            y_live -= delta
            y[:, live] = y_live
            with np.errstate(invalid="ignore"):
                norm = self._wrms(delta, y_live)
                done = norm < 0.1
                diverging = norm > 2.0 * prev_norm[live]
            converged[live[done]] = True
            prev_norm[live] = norm
            live = live[~done & ~diverging]
            if not live.size:
                break
        retry = ~converged & (self._jac_age[idx] > 0)
        self._jac_ok[idx[retry]] = False
        return y, converged, retry

    def _refresh_jacobians(self, idx: np.ndarray, t: np.ndarray,
                           y: np.ndarray) -> None:
        """Recompute the Jacobian of every column whose copy is missing
        (dropped after a convergence failure) or over 20 attempts old —
        all of them in one RHS call.  A change of ``gamma`` alone is no
        reason: the Newton matrix is re-formed from the saved Jacobian
        on every attempt."""
        stale = ~self._jac_ok[idx] | (self._jac_age[idx] > 20)
        self._jac_age[idx] = np.where(stale, 0, self._jac_age[idx] + 1)
        s = np.flatnonzero(stale)
        if s.size:
            cols = idx[s]
            self._jac[cols] = self._jacobians(cols, t[s], y[:, s])
            self._jac_ok[cols] = True

    def _jacobians(self, cols: np.ndarray, t: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
        """Jacobians ``(b, n, n)`` of the columns ``cols``: one call of
        the analytic ``jac`` if there is one, else forward differences."""
        if self.jac is None:
            return self._fd_jacobians(cols, t, y)
        self._stats.nje[cols] += 1
        args = (a[..., cols] for a in self._args)
        J = np.asarray(self.jac(t, y, *args), dtype=float)
        if J.shape != (self.n, self.n, len(cols)):
            raise IntegratorError(
                f"jac returned shape {J.shape} for a state of shape "
                f"{y.shape}: it must be (n, n, b)")
        return J.transpose(2, 0, 1)

    def _fd_jacobians(self, cols: np.ndarray, t: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobians ``(b, n, n)`` of the columns
        ``cols`` from one RHS call on ``(n, b * (n + 1))``: each column's
        base point followed by its n perturbed copies."""
        n = self.n
        self._stats.nje[cols] += 1
        w = self.rtol * np.abs(y) + self._atol_col
        dy = np.maximum(np.sqrt(np.finfo(float).eps) * np.abs(y), 1e-7 * w)
        points = np.repeat(y[:, :, None], n + 1, axis=2)
        unknown = np.arange(n)
        points[unknown, :, unknown + 1] += dy
        f = self._f(cols, np.repeat(t, n + 1),
                    points.reshape(n, -1), repeats=n + 1)
        f = f.reshape(n, len(cols), n + 1)
        # J[b, i, j] = (f_i(y + dy_j e_j) - f_i(y)) / dy_j
        return ((f[:, :, 1:] - f[:, :, :1]) / dy.T).transpose(1, 0, 2)

    # -- Adams --------------------------------------------------------------
    def _solve_adams(self, idx: np.ndarray, ts: np.ndarray, ys: np.ndarray,
                     t_new: np.ndarray, k: np.ndarray, y_pred: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Functional iteration on ``y = y_n + w0 f(t, y) + known``.
        Returns the iterate, ``f`` at the converged columns, and the
        convergence mask (a failure here suggests stiffness: use
        ``method='bdf'``)."""
        fs = self._fs[:, :, idx]
        nodes = np.concatenate((t_new[None], ts[:_MAX_ORDER]))
        w = _integral_weights(nodes, k + 1, ts[0], t_new)
        known = ys[0] + _combine(w[1:, None], fs[:_MAX_ORDER])[0]

        y = y_pred.copy()
        converged = np.zeros(len(idx), dtype=bool)
        prev_norm = np.full(len(idx), np.inf)
        live = np.arange(len(idx))
        for _ in range(_MAX_FUNCTIONAL):
            self._stats.nni[idx[live]] += 1
            f = self._f(idx[live], t_new[live], y[:, live])
            y_next = known[:, live] + w[0, live] * f
            with np.errstate(invalid="ignore"):
                norm = self._wrms(y_next - y[:, live], y_next)
                done = norm < 0.1
                diverging = norm > prev_norm[live]
            y[:, live] = y_next
            converged[live[done]] = True
            prev_norm[live] = norm
            live = live[~done & ~diverging]
            if not live.size:
                break
        f_new = np.zeros(y.shape)
        ok = np.flatnonzero(converged)
        if ok.size:
            f_new[:, ok] = self._f(idx[ok], t_new[ok], y[:, ok])
        return y, f_new, converged

    # -- order control ---------------------------------------------------------
    @staticmethod
    def _adapt_order(k: np.ndarray, nhist: np.ndarray, ests: np.ndarray,
                     usable: np.ndarray) -> np.ndarray:
        """CVODE-style order selection: compare the step-size multipliers
        implied by the error estimates at orders k-1, k, k+1 and move to
        the order promising the largest step (with a 20% switching bias
        toward staying put).  ``nhist`` is the history length after the
        step just taken."""
        # eta[q] = est[q] ** (-1 / (q + 1)) for q = k-1, k, k+1
        lower, same, higher = np.maximum(ests, 1e-14) ** (
            -1.0 / (k + np.array([[0], [1], [2]])))
        best = same
        order = k
        down = usable[0] & (lower > 1.2 * best)
        best = np.where(down, lower, best)
        order = np.where(down, k - 1, order)
        # a higher order also needs enough history to predict with
        up = usable[2] & (nhist >= k + 2) & (higher > 1.2 * best)
        return np.where(up, k + 1, order)
