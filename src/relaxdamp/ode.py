"""Dormand-Prince 5(4) shooting with events and dense output.

A step-for-step port of ``solve_ivp(method="RK45", events=...,
dense_output=True)`` as scipy 1.17 implements it (``integrate/_ivp``:
``rk.py`` for the tableau, the step, the error norm, the step control and
the dense output; ``common.py`` for the initial step and the per-segment
solution lookup; ``ivp.py`` for the event test) and of the Brent root search
(``optimize/Zeros/brentq.c``) that locates events on a step's dense output.
The same tableau, the same ``np.dot`` calls and the same order of floating
point operations give the same steps, event times and dense values as scipy,
bit for bit, with numpy alone.  The bookkeeping around those calls runs on
Python floats, which round as numpy's scalars do: the RMS norm is
``np.linalg.norm``'s own sqrt(x . x) through ``math.sqrt``, the smallest
step comes from ``math.nextafter``, the event signs are compared one event
at a time, and the stage rows of the tableau are sliced once, at import.
Only forward integration of real states is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps

# Dormand-Prince 5(4): stage times C, stage coefficients A, the 5th-order
# weights B, the error weights E (5th minus 4th order) and the quartic dense
# output P with the optimum c_6 of Shampine (1986).
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
N_STAGES = 6
# (stage, its row of A, its time in the step) for the stages after the first
STAGES = tuple((s, A[s, :s], float(C[s])) for s in range(1, N_STAGES))
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4

SAFETY = 0.9
MIN_FACTOR = 0.2   # smallest step-size decrease
MAX_FACTOR = 10    # largest step-size increase
MAXITER = 100      # Brent iterations per event

FINISHED, TERMINATED, STOPPED, FAILED = 0, 1, 2, -1
MESSAGES = {
    FINISHED: "The solver successfully reached the end of the integration interval.",
    TERMINATED: "A termination event occurred.",
    STOPPED: "The shot reached its stopping time.",
    FAILED: "Required step size is less than spacing between numbers.",
}


def _rms(x: np.ndarray) -> float:
    """RMS of a 1-D x: np.linalg.norm's own sqrt(x . x), over sqrt(size)."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step of size h; the stages go to the rows of K."""
    K[0] = f
    for s, a, c in STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _initial_step(fun, t0, y0, f0, interval, rtol, atol):
    """First step size (Hairer, Norsett & Wanner, Sec. II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval)


def _step(fun, t, y, f, h_abs, t_bound, rtol, atol, K):
    """One accepted step from (t, y) with the proposed size h_abs.

    Returns the new time, state and slope and the next proposed size, or
    None once the size falls under ten spacings of floats at t.
    """
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    h_abs = max(h_abs, min_step)
    rejected = False
    while h_abs >= min_step:
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        h_abs = np.abs(h)
        y_new, f_new = _rk_step(fun, t, y, f, h, K)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms(np.dot(K.T, E) * h / scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        rejected = True
    return None


class _StepInterpolant:
    """Quartic dense output over one step [t_old, t_old + h]."""

    __slots__ = ("t_old", "h", "y_old", "Q")

    def __init__(self, t_old, t, y_old, K):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.Q = K.T.dot(P)

    def __call__(self, t):
        """States at t: shape (N,) for a scalar t, (N, len(t)) for an array."""
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            p = np.cumprod(np.tile(x, 4))
        else:
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        if y.ndim == 2:
            y += self.y_old[:, None]
        else:
            y += self.y_old
        return y


class DenseSolution:
    """The shot's step interpolants joined; a step time belongs to the step
    that ends there, and times outside the shot use its end steps."""

    def __init__(self, ts: np.ndarray, pieces: list):
        self.ts = ts
        self.pieces = pieces

    def __call__(self, t):
        """States at t: shape (N,) for a scalar t, (N, len(t)) for an array."""
        t = np.asarray(t)
        last = len(self.pieces) - 1
        if t.ndim == 0:
            ind = np.searchsorted(self.ts, t, side="left")
            return self.pieces[min(max(ind - 1, 0), last)](t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.clip(np.searchsorted(self.ts, t_sorted, side="left") - 1, 0, last)
        bounds = np.flatnonzero(np.diff(segments)) + 1  # where a run of one step starts
        ys = [self.pieces[segment](run) for segment, run in
              zip(segments[np.r_[0, bounds]].tolist(), np.split(t_sorted, bounds))]
        return np.hstack(ys)[:, reverse]


@dataclass
class Shot:
    """Result of ``shoot``: the step times ``t`` and states ``y`` (one column
    per time), the dense solution ``sol``, the times of each event and how
    the shot ended."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution
    t_events: list
    status: int
    message: str


def _active_events(g, g_new, direction) -> list:
    """Indices of the events whose sign changed over a step in their direction:
    up (g <= 0 <= g_new) for direction >= 0, down (g >= 0 >= g_new) for <= 0."""
    return [i for i, (a, b, d) in enumerate(zip(g, g_new, direction))
            if d >= 0 and a <= 0 <= b or d <= 0 and a >= 0 >= b]


def brentq(f, xa: float, xb: float) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method, to within
    4 EPS (1 + |x|), with scipy's choice of steps."""
    xtol = rtol = 4 * EPS
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent search failed to converge after {MAXITER} iterations, "
                       f"value is {xcur}")


def shoot(fun, t_span, y0, rtol: float, atol, events=(), until=None) -> Shot:
    """Integrate y' = fun(t, y) from y(t_span[0]) = y0 towards t_span[1].

    Each event is a function ``event(t, y)``; its sign changes over a step are
    located on the step's dense output.  An optional ``direction`` attribute
    (+1 or -1) keeps only rising or only falling changes, and a true
    ``terminal`` attribute ends the shot at the first one.  ``until``, if
    given, maps the event times found so far to the time after which the
    shot may end (``np.inf`` while that is unknown): the shot stops after the
    first step that reaches it, and every earlier step is the step a shot to
    t_span[1] takes.
    """
    t, t_bound = map(float, t_span)
    if not t_bound > t:
        raise ValueError("shoot integrates forward: need t_span[1] > t_span[0]")
    y = np.asarray(y0, dtype=float)
    if rtol < 100 * EPS:
        rtol = 100 * EPS
    atol = np.asarray(atol)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound - t, rtol, atol)
    K = np.empty((N_STAGES + 1, y.size))
    direction = [float(getattr(event, "direction", 0)) for event in events]
    terminal = np.array([bool(getattr(event, "terminal", False)) for event in events])
    g = [event(t, y) for event in events]
    t_events = [[] for _ in events]
    ts, ys, pieces = [t], [y], []

    status = None
    while status is None:
        step = _step(fun, t, y, f, h_abs, t_bound, rtol, atol, K)
        if step is None:
            status = FAILED
            break
        t_old, y_old = t, y
        t, y, f, h_abs = step
        if t >= t_bound:
            status = FINISHED
        piece = _StepInterpolant(t_old, t, y_old, K)
        pieces.append(piece)

        g_new = [event(t, y) for event in events]
        active = _active_events(g, g_new, direction)
        if active:
            active = np.array(active)
            roots = np.asarray([brentq(lambda s, event=events[i]: event(s, piece(s)), t_old, t)
                                for i in active])
            if terminal[active].any():
                order = np.argsort(roots)
                active, roots = active[order], roots[order]
                first = np.nonzero(terminal[active])[0][0]
                active, roots = active[:first + 1], roots[:first + 1]
                status = TERMINATED
                t = roots[-1]
                y = piece(t)
            for i, root in zip(active, roots):
                t_events[i].append(root)
        g = g_new
        ts.append(t)
        ys.append(y)
        if status is None and until is not None and t >= until(t_events):
            status = STOPPED

    ts = np.array(ts)
    return Shot(t=ts, y=np.vstack(ys).T, sol=DenseSolution(ts, pieces),
                t_events=[np.asarray(te) for te in t_events],
                status=status, message=MESSAGES[status])
