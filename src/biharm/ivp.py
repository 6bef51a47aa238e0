"""Scalar DOP853 driver for the shooter's four-entry systems.

The method is Dormand and Prince's explicit Runge-Kutta pair of order 8 with
error estimates of orders 5 and 3 and a 7th-order interpolant (Hairer,
Norsett & Wanner, *Solving ODEs I*, Sec. II.10).  The tableau is read from the
class attributes of scipy.integrate.DOP853, and the initial step, error norm,
step controller and step-failure test follow scipy's, so a leg takes the
steps scipy.integrate.solve_ivp(method="DOP853") takes, up to rounding.
States are four Python floats, unrolled: on four entries numpy's per-call
overhead is most of the cost of scipy's step.

A system, written once as expressions, is compiled once into a factory of
scalar right-hand sides, terminal events and leg kernels.  A kernel is
straight-line code for a whole leg: the 13 stages with the right-hand side
inline and each nonzero coefficient a literal, the error norm, the step
controller, the step-failure test and the events' sign test at each step
end.  Every stage sum adds its terms in the row's order from the first and
every state update is y_i + h (sum), so each float operation happens in the
order of a loop over the tableau's rows (tests/test_ivp.py keeps that loop
as the oracle).  Events carry a `direction` (+1 rising, -1 falling, 0
both); the first root on the step whose end fires, located by brentq on the
step's interpolant, ends the leg.
"""

from __future__ import annotations

import linecache
import math
import textwrap
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
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
    """Entry i of the sum over row's (j, c) of c * K[j], as source, from the first term."""
    return " + ".join(f"{c!r} * k{j}_{i}" for j, c in row)


def _update(row):
    """The four entries y_i + h * (entry i of row's sum), as sources."""
    return [f"y{i} + h * ({_sum(row, i)})" for i in range(4)]


def _stage(j, x, state, rhs):
    """Lines binding stage j, k{j}_0..k{j}_3, to the right-hand side at x
    and the four state entries."""
    return [f"x = {x}"] + [f"u{i} = {v}" for i, v in enumerate(state)] + [
        f"k{j}_{i} = {e}" for i, e in enumerate(rhs)]


def _block(indent, lines):
    return "".join(" " * indent + line + "\n" for line in lines)


# One leg from t (state y, derivative f, first trial step h_abs) to t_bound;
# each accepted step end goes to ts, its state to ys, and when dense is a
# list, the step to dense as one flat row of 34 floats: t_old, t, the 4
# entries of y_old and the interpolant's 7 rows of 4, row by row.
# Returns (status, h_abs, attempted steps, fired, step): status 0 at t_bound,
# -1 on a step below 10 ulp of t, 1 when the events flagged in fired fired at
# the end of step (not appended).  Each min/max of scipy's controller is the
# conditional that picks the same operand.
_KERNEL = """\
def kernel(t, y, f, h_abs, t_bound, rtol, atol, ts, ys, dense):
    y0, y1, y2, y3 = u0, u1, u2, u3 = y
    k0_0, k0_1, k0_2, k0_3 = f
    x = t
{g_start}\
    steps = 0
    while True:
        min_step = 10.0 * (nextafter(t, inf) - t)
        h_abs = min_step if min_step > h_abs else h_abs
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs
            if t_bound < t_new:
                t_new = t_bound
            h = t_new - t
            steps += 1
{step}\
            err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / sqrt((e5 + 0.01 * e3) * 4.0)
            if err < 1.0:
                factor = {max_factor!r} if err == 0.0 else {safety!r} * err ** {exponent!r}
                top = 1.0 if rejected else {max_factor!r}
                h_abs = h * (factor if factor < top else top)
                break
            factor = {safety!r} * err ** {exponent!r}
            h_abs = h * (factor if factor > {min_factor!r} else {min_factor!r})
            rejected = True
        else:
            return -1, h_abs, steps, None, None
        x = t_new
{g_end}\
        if dense is not None or {fired}:
{extra}\
            step = (t, t_new, y0, y1, y2, y3, {rows})
            if dense is not None:
                dense.append(step)
            if {fired}:
                return 1, h_abs, steps, ({flags}), step
        t = t_new
        y0, y1, y2, y3 = n0, n1, n2, n3
        k0_0, k0_1, k0_2, k0_3 = k{last}_0, k{last}_1, k{last}_2, k{last}_3
{g_shift}\
        ts.append(t)
        ys.append((y0, y1, y2, y3))
        if t == t_bound:
            return 0, h_abs, steps, None, None
"""


def _kernel_source(rhs, events):
    """The source of kernel (see _KERNEL) for four right-hand side expressions
    and (name, expression, direction) events, all in x and u0..u3."""
    step = []
    for s in range(1, _N_STAGES):
        step += _stage(s, f"t + {_C[s]!r} * h", _update(_A[s]), rhs)
    step += [f"n{i} = {v}" for i, v in enumerate(_update(_B))]
    step += _stage(_N_STAGES, "t + h", [f"n{i}" for i in range(4)], rhs)
    for i in range(4):
        # b if b > a else a: max(a, b), without the builtin call
        step += [f"a = abs(y{i})", f"b = abs(n{i})", f"sc{i} = atol + (b if b > a else a) * rtol"]
    for name, row in (("e5", _E5), ("e3", _E3)):
        step += [f"q{i} = ({_sum(row, i)}) / sc{i}" for i in range(4)]
        step += [f"{name} = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3"]
    extra = []
    for j, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1):
        extra += _stage(j, f"t + {c!r} * h", _update(a), rhs)
    rows = [[f"n{i} - y{i}" for i in range(4)],
            [f"h * k0_{i} - (n{i} - y{i})" for i in range(4)],
            [f"2.0 * (n{i} - y{i}) - h * (k{_N_STAGES}_{i} + k0_{i})" for i in range(4)]]
    rows += [[f"h * ({_sum(row, i)})" for i in range(4)] for row in _D]
    g_end = []
    for i, (_, expr, d) in enumerate(events):
        rise, fall = f"g{i} <= 0.0 <= b{i}", f"g{i} >= 0.0 >= b{i}"
        g_end += [f"b{i} = {expr}", f"on{i} = " + (rise if d > 0 else fall if d < 0 else f"{rise} or {fall}")]
    return _KERNEL.format(
        g_start=_block(4, [f"g{i} = {expr}" for i, (_, expr, _) in enumerate(events)]),
        step=_block(12, step),
        g_end=_block(8, g_end),
        extra=_block(12, extra),
        rows=", ".join(e for row in rows for e in row),
        fired=" or ".join(f"on{i}" for i in range(len(events))) or "False",
        flags="".join(f"on{i}, " for i in range(len(events))),
        g_shift=_block(8, [f"g{i} = b{i}" for i in range(len(events))]),
        last=_N_STAGES, safety=_SAFETY, min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR, exponent=_EXPONENT,
    )


def system(name, params, rhs, events):
    """Compile a four-entry system into a factory of its integrators.

    rhs holds four expressions and events (name, expression, direction)
    triples, all in the independent variable x, the state u0..u3 and the
    constants named in params.  factory(**constants) returns the scalar
    right-hand side fun(x, u), called name, with attributes `events` (the
    terminal event functions g(x, u), each called by its event's name) and
    `kernel` (the leg kernel of _KERNEL), for solve_ivp.  The constants are
    bound by closure, so a new set of them compiles nothing.
    """
    defs = [(name, "(" + ", ".join(rhs) + ")")] + [(ev, expr) for ev, expr, _ in events]
    src = f"def factory({', '.join(params)}):\n"
    src += "".join(f"    def {fn}(x, u):\n        u0, u1, u2, u3 = u\n        return {expr}\n" for fn, expr in defs)
    src += "".join(f"    {ev}.terminal, {ev}.direction = True, {d}\n" for ev, _, d in events)
    src += textwrap.indent(_kernel_source(rhs, events), "    ")
    src += f"    {name}.events = ({''.join(ev + ', ' for ev, _, _ in events)})\n"
    src += f"    {name}.kernel = kernel\n    return {name}\n"
    # registered with linecache, so tracebacks show the generated lines
    filename = f"<DOP853 leg: {name}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = {"nextafter": math.nextafter, "inf": math.inf, "sqrt": math.sqrt}
    exec(compile(src, filename, "exec"), namespace)
    return namespace["factory"]


def _rms(v):
    return math.sqrt((v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]) / 4.0)


def _point(step, t):
    """The state at a float t on step, a dense row, as four floats: the
    interpolant's Horner sum in x = (t - t_old) / h, last row first."""
    x = (t - step[0]) / (step[1] - step[0])
    state = []
    for j in range(4):
        y = 0.0
        for i in range(7):
            y = (y + step[30 - 4 * i + j]) * (x if i % 2 == 0 else 1.0 - x)
        state.append(y + step[2 + j])
    return tuple(state)


class Dense:
    """A leg's dense output: steps holds one row per accepted step, laid out
    as the kernel hands it out (see _KERNEL), and ts the leg's start and
    its step ends."""

    def __init__(self, steps):
        self.steps = steps
        self.ts = np.append(steps[:1, 0], steps[:, 1])

    def __call__(self, xs):
        """The state at the 1-D float array xs, as 4 by len(xs).  Each x
        takes the step scipy's OdeSolution picks (the earlier one for an x
        on a step end, the end steps for an x outside) and _point's Horner
        sum, for all nodes at once."""
        i = np.clip(np.searchsorted(self.ts, xs, "left") - 1, 0, len(self.steps) - 1)
        steps = self.steps[i]
        x = ((xs - steps[:, 0]) / (steps[:, 1] - steps[:, 0]))[:, None]
        rows = steps[:, 6:].reshape(-1, 7, 4)
        y = np.zeros((len(xs), 4))
        for k in range(7):
            y = (y + rows[:, -1 - k]) * (x if k % 2 == 0 else 1.0 - x)
        return (y + steps[:, 2:6]).T


@dataclass
class IvpResult:
    """One integration, shaped like solve_ivp's result: t and y (entries by
    steps) at the step ends; sol the dense output, a Dense over the leg's
    step rows, or None; event the name of the terminal event whose root
    ended the leg, or None; nfev the right-hand side calls; status 0 (reached
    the end), 1 (a terminal event) or -1 (the step size fell below 10 ulp of
    t, the last entry of t); step the last step size tried."""

    t: np.ndarray
    y: np.ndarray
    sol: Dense | None
    event: str | None
    nfev: int
    status: int
    step: float


def solve_ivp(fun, t_span, y0, rtol, atol, dense_output=False):
    """Integrate y' = fun(t, y) forward over t_span = (t0, t_bound) from y0.

    fun is a right-hand side made by a `system` factory; its terminal
    events, fun.events, are tested inline by its kernel, and the first root
    on the firing step ends the leg and names its event.
    dense_output only adds the interpolants (three more right-hand side
    evaluations per step); the steps are the same.
    """
    t0, t_bound = (float(t) for t in t_span)
    y = tuple(float(v) for v in y0)

    # initial step (Hairer, Norsett & Wanner, Sec. II.4), as scipy selects it
    f = fun(t0, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([v / sc for v, sc in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t0)
    f1 = fun(t0 + h0, tuple(a + h0 * b for a, b in zip(y, f)))
    d2 = _rms([(b - a) / sc for a, b, sc in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100.0 * h0, h1, t_bound - t0)

    ts, ys = [t0], [y]
    dense = [] if dense_output else None
    status, h_abs, steps, fired, last = fun.kernel(t0, y, f, h_abs, t_bound, rtol, atol, ts, ys, dense)
    event = None
    if status == 1:
        # last is the firing step, also dense's last row
        active = [ev for ev, on in zip(fun.events, fired) if on]
        roots = [
            brentq(lambda x, ev=ev: ev(x, _point(last, x)), last[0], last[1],
                   xtol=4 * _EPS, rtol=4 * _EPS)
            for ev in active
        ]
        first = min(range(len(active)), key=roots.__getitem__)
        event = active[first].__name__
        ts.append(roots[first])
        ys.append(_point(last, roots[first]))
    n_interp = len(dense) if dense_output else int(status == 1)
    return IvpResult(
        t=np.array(ts),
        y=np.array(ys).T,
        sol=Dense(np.array(dense).reshape(-1, 34)) if dense_output else None,
        event=event,
        nfev=2 + _N_STAGES * steps + len(_A_EXTRA) * n_interp,
        status=status,
        step=h_abs,
    )
