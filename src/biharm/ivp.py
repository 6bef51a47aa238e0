"""Scalar DOP853 driver for the shooter's four-entry systems.

The method is Dormand and Prince's explicit Runge-Kutta pair of order 8 with
error estimates of orders 5 and 3 and a 7th-order interpolant (Hairer,
Norsett & Wanner, *Solving ODEs I*, Sec. II.10).  The tableau is read from the
class attributes of scipy.integrate.DOP853, and the initial step, error norm,
step controller and step-failure test follow scipy's, so a leg takes the
steps scipy.integrate.solve_ivp(method="DOP853") takes, up to rounding.
States are four Python floats, unrolled: on four entries numpy's per-call
overhead is most of the cost of scipy's step.

The step and the interpolant's extra stages are straight-line code, generated
once at import from the tableau: one line per stage, each nonzero coefficient
a literal.  Every stage sum is written 0.0 + c_j k_j + ... in the row's order
and every state update as y_i + h (sum), so each float operation happens in
the order of a loop over the tableau's rows, and a step is bit-identical to
that loop form (tests/test_ivp.py keeps it as the oracle).

Events are terminal.  Each event function carries a `direction` attribute and
is checked at the step ends; the first root, located by brentq on the step's
interpolant, ends the integration.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, DenseOutput, OdeSolution
from scipy.optimize import brentq


def _rows(table):
    # the nonzero (stage, coefficient) pairs of each row
    return [[(j, c) for j, c in enumerate(row) if c != 0.0] for row in np.atleast_2d(table).tolist()]


_N_STAGES = DOP853.n_stages
_A = _rows(DOP853.A)
_C = DOP853.C.tolist()
_B, = _rows(DOP853.B)
_E3, = _rows(DOP853.E3)
_E5, = _rows(DOP853.E5)
_A_EXTRA = _rows(DOP853.A_EXTRA)
_C_EXTRA = DOP853.C_EXTRA.tolist()
_D = _rows(DOP853.D)
_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0  # scipy's step controller
_EPS = np.finfo(float).eps


def _sum(row, i):
    """Entry i of the sum over row's (j, c) of c * K[j], as source: 0.0 plus
    the terms in the row's order."""
    return "0.0" + "".join(f" + {c!r} * k{j}_{i}" for j, c in row)


def _state(row):
    """The four entries y_i + h * (entry i of row's sum), as a tuple source."""
    return "(" + ", ".join(f"y{i} + h * ({_sum(row, i)})" for i in range(4)) + ")"


def _unpack(j, value):
    """Stage j's four floats bound to k{j} and its entries to k{j}_0..k{j}_3."""
    return f"    k{j} = {value}\n    k{j}_0, k{j}_1, k{j}_2, k{j}_3 = k{j}\n"


def _step_source():
    """def _step(fun, t, y, f, h, rtol, atol): one step of 13 stages; returns
    the stages K, y at t + h and the error norm."""
    src = "def _step(fun, t, y, f, h, rtol, atol):\n    y0, y1, y2, y3 = y\n"
    src += _unpack(0, "f")
    for s in range(1, _N_STAGES):
        src += _unpack(s, f"fun(t + {_C[s]!r} * h, {_state(_A[s])})")
    src += f"    y_new = n0, n1, n2, n3 = {_state(_B)}\n"
    src += _unpack(_N_STAGES, "fun(t + h, y_new)")
    for i in range(4):
        # b if b > a else a: max(a, b), without the builtin call
        src += f"    a = abs(y{i})\n    b = abs(n{i})\n    sc{i} = atol + (b if b > a else a) * rtol\n"
    for name, row in (("e5", _E5), ("e3", _E3)):
        for i in range(4):
            src += f"    q{i} = ({_sum(row, i)}) / sc{i}\n"
        src += f"    {name} = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3\n"
    src += "    K = [" + ", ".join(f"k{j}" for j in range(_N_STAGES + 1)) + "]\n"
    src += "    if e5 == 0.0 and e3 == 0.0:\n        return K, y_new, 0.0\n"
    src += "    return K, y_new, h * e5 / math.sqrt((e5 + 0.01 * e3) * 4.0)\n"
    return src


def _extra_source():
    """def _extra(fun, K, t_old, h, y_old): the interpolant's three extra
    stages; returns its four D rows, each scaled by h."""
    src = "def _extra(fun, K, t_old, h, y_old):\n    y0, y1, y2, y3 = y_old\n"
    for j in range(_N_STAGES + 1):
        src += f"    k{j}_0, k{j}_1, k{j}_2, k{j}_3 = K[{j}]\n"
    for j, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1):
        src += _unpack(j, f"fun(t_old + {c!r} * h, {_state(a)})")
    rows = ", ".join("[" + ", ".join(f"h * ({_sum(row, i)})" for i in range(4)) + "]" for row in _D)
    return src + f"    return [{rows}]\n"


# The source is registered with linecache, so tracebacks show its lines.
_SOURCE = _step_source() + _extra_source()
linecache.cache["<DOP853 tableau>"] = (len(_SOURCE), None, _SOURCE.splitlines(True), "<DOP853 tableau>")
_namespace = {"__name__": __name__, "math": math}
exec(compile(_SOURCE, "<DOP853 tableau>", "exec"), _namespace)
_step, _extra = _namespace["_step"], _namespace["_extra"]


def _sumsq(v):
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


def _rms(v):
    return math.sqrt(_sumsq(v) / 4.0)


class _Interpolant(DenseOutput):
    """The 7th-order DOP853 interpolant of one step from t_old to t."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h = t - t_old
        self.y_old = y_old
        self.F = F  # seven coefficient rows of four floats

    def point(self, t):
        """State at a float t, as four floats."""
        x = (t - self.t_old) / self.h
        y0 = y1 = y2 = y3 = 0.0
        for i, (f0, f1, f2, f3) in enumerate(reversed(self.F)):
            w = x if i % 2 == 0 else 1.0 - x
            y0, y1, y2, y3 = (y0 + f0) * w, (y1 + f1) * w, (y2 + f2) * w, (y3 + f3) * w
        u0, u1, u2, u3 = self.y_old
        return y0 + u0, y1 + u1, y2 + u2, y3 + u3

    def _call_impl(self, t):
        if t.ndim == 0:
            return np.array(self.point(float(t)))
        return np.array([self.point(x) for x in t.tolist()]).T


@dataclass
class IvpResult:
    """One integration, shaped like solve_ivp's result: t and y (entries by
    steps) at the step ends; sol the dense output or None; t_events one
    array per event; nfev the right-hand side calls; status 0 (reached the
    end), 1 (a terminal event) or -1 (the step size fell below 10 ulp of t,
    the last entry of t); step the last step size tried."""

    t: np.ndarray
    y: np.ndarray
    sol: OdeSolution | None
    t_events: list
    nfev: int
    status: int
    step: float


def solve_ivp(fun, t_span, y0, rtol, atol, events=(), dense_output=False):
    """Integrate y' = fun(t, y) forward over t_span = (t0, t_bound) from y0.

    y has four entries; fun takes them as a sequence of floats and returns
    four floats.  events are terminal event functions g(t, y) with a
    `direction` attribute: +1 fires where g rises through zero, -1 where it
    falls, 0 on both.  dense_output only adds the interpolants (three more
    fun calls per step); the steps are the same.
    """
    t0, t_bound = (float(t) for t in t_span)
    y = tuple(float(v) for v in y0)
    nfev = 0

    def interpolant(K, t_old, t, y_old, y_new):
        nonlocal nfev
        h = t - t_old
        nfev += len(_A_EXTRA)
        delta = [b - a for a, b in zip(y_old, y_new)]
        F = [
            delta,
            [h * f - d for f, d in zip(K[0], delta)],
            [2.0 * d - h * (f1 + f0) for d, f1, f0 in zip(delta, K[_N_STAGES], K[0])],
        ]
        F += _extra(fun, K, t_old, h, y_old)
        return _Interpolant(t_old, t, y_old, F)

    # initial step (Hairer, Norsett & Wanner, Sec. II.4), as scipy selects it
    f = fun(t0, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([v / sc for v, sc in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t0)
    f1 = fun(t0 + h0, tuple(a + h0 * b for a, b in zip(y, f)))
    nfev += 2
    d2 = _rms([(b - a) / sc for a, b, sc in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100.0 * h0, h1, t_bound - t0)

    # per event: the function, whether a rise through zero fires it, whether a fall does
    checks = [(ev, ev.direction >= 0, ev.direction <= 0) for ev in events]
    g = [ev(t0, y) for ev in events]  # event values at the last step end, updated in place
    ts, ys, interpolants = [t0], [y], []
    t_events = [[] for _ in events]
    t = t0
    status = None  # 0 at the end of the span, 1 on an event, -1 on a step failure
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            K, y_new, err = _step(fun, t, y, f, h, rtol, atol)
            nfev += _N_STAGES
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
        else:  # rejected down to below 10 ulp of t
            status = -1
            break
        t_old, y_old, t, y, f = t, y, t_new, y_new, K[_N_STAGES]
        interp = interpolant(K, t_old, t, y_old, y) if dense_output else None
        if t == t_bound:
            status = 0
        active = None  # events that fired in this step, in order
        for i, (ev, rise, fall) in enumerate(checks):
            a = g[i]
            g[i] = b = ev(t, y)
            if (rise and a <= 0.0 <= b) or (fall and a >= 0.0 >= b):
                active = [i] if active is None else active + [i]
        if active is not None:
            if interp is None:
                interp = interpolant(K, t_old, t, y_old, y)
            roots = [
                brentq(lambda x, ev=events[i]: ev(x, interp.point(x)), t_old, t,
                       xtol=4 * _EPS, rtol=4 * _EPS)
                for i in active
            ]
            first = min(range(len(active)), key=roots.__getitem__)
            t = roots[first]
            t_events[active[first]].append(t)
            y = interp.point(t)
            status = 1
        ts.append(t)
        ys.append(y)
        if interp is not None:
            interpolants.append(interp)

    return IvpResult(
        t=np.array(ts),
        y=np.array(ys).T,
        sol=OdeSolution(ts, interpolants) if dense_output else None,
        t_events=[np.array(te) for te in t_events],
        nfev=nfev,
        status=status,
        step=h_abs,
    )
