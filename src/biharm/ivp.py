"""Scalar DOP853 driver for the shooter's systems of n first-order equations.

The method is Dormand and Prince's explicit Runge-Kutta pair of order 8 with
error estimates of orders 5 and 3 and a 7th-order interpolant (Hairer,
Norsett & Wanner, *Solving ODEs I*, Sec. II.10).  The tableau is
scipy.integrate.DOP853's, held as float literals (class DOP853), and the
initial step, error norm, step controller and step-failure test follow
scipy's, so a leg takes the steps scipy.integrate.solve_ivp(method="DOP853")
takes, up to rounding.  scipy is the reference of the tests only: loading
scipy.integrate would cost more than the rest of the CLI's start.
States are n Python floats, unrolled: on a few entries numpy's per-call
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
both); the first root on the step whose end fires, located on the step's
interpolant by Brent's method as scipy's brentq runs it (_brentq) on the
state entries the event reads, ends the leg.
"""

from __future__ import annotations

import linecache
import math
import re
import textwrap
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np


class DOP853:
    """DOP853's tableau under the names of scipy.integrate.DOP853's class
    attributes.  Each literal is the repr of scipy's double (from scipy's
    dop853_coefficients.py, after Hairer's dop853.f), so it reads back bit
    for bit; tests/test_ivp.py compares them with scipy's."""

    n_stages = 12
    error_estimator_order = 7
    A = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.05260015195876773, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0197250569845379, 0.0591751709536137, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.0],
        [0.02958758547680685, 0.0, 0.08876275643042054, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.0],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
            -0.015319437748624402, 0.008273789163814023, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
            27.59209969944671, 20.154067550477894, -43.48988418106996, 0.0, 0.0, 0.0, 0.0],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
            21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
            0.0, 0.0, 0.0],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
            -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
            -3.0467644718982196, 0.0, 0.0],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
            -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
            12.360567175794303, 0.6433927460157636, 0.0],
    ])
    C = np.array([
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
        0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
        1.0,
    ])
    B = np.array([
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ])
    E3 = np.array([
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
        0.02265179219836082, 0.0,
    ])
    E5 = np.array([
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
        1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
        -0.022355307863886294, 0.0,
    ])
    A_EXTRA = np.array([
        [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
            -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
            0.007567897660545699, -0.008298, 0.0, 0.0, 0.0],
        [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
            -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
            -0.00034046500868740456, 0.1413124436746325, 0.0, 0.0],
        [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
            4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
            2.9475147891527724, -9.15095847217987, 0.0],
    ])
    C_EXTRA = np.array([
        0.1, 0.2, 0.7777777777777778,
    ])
    D = np.array([
        [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
            2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
            0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
            -4.436036387594894],
        [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
            -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
            -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
            35.81684148639408],
        [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
            527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
            0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
            11.99229113618279],
        [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
            357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
            29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
            -149.72683625798564],
    ])


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
_BRENT_TOL, _BRENT_MAXITER = 4 * math.ulp(1.0), 100  # an event root's xtol = rtol; scipy's maxiter


def _sum(row, i):
    """Entry i of the sum over row's (j, c) of c * K[j], as source, from the first term."""
    return " + ".join(f"{c!r} * k{j}_{i}" for j, c in row)


def _update(row, n):
    """The n entries y_i + h * (entry i of row's sum), as sources."""
    return [f"y{i} + h * ({_sum(row, i)})" for i in range(n)]


def _names(prefix, n):
    """prefix0, ..., prefix{n-1} as the source of a tuple (one name keeps its comma)."""
    return ", ".join(f"{prefix}{i}" for i in range(n)) + ("," if n == 1 else "")


def _stage(j, x, state, rhs):
    """Lines binding stage j, k{j}_0..k{j}_{n-1}, to the right-hand side at x
    and the n state entries."""
    return [f"x = {x}"] + [f"u{i} = {v}" for i, v in enumerate(state)] + [
        f"k{j}_{i} = {e}" for i, e in enumerate(rhs)]


def _reads(expr):
    """The indices i of the state entries u{i} that expr reads, ascending."""
    return sorted({int(i) for i in re.findall(r"\bu(\d+)\b", expr)})


def _block(indent, lines):
    return "".join(" " * indent + line + "\n" for line in lines)


# One leg from t (state y, derivative f, first trial step h_abs) to t_bound;
# each accepted step end goes to ts, its state to ys, and when dense is a
# list, the step to dense as one flat row of 2 + 8n floats: t_old, t, the n
# entries of y_old and the interpolant's 7 rows of n, row by row.
# Returns (status, h_abs, attempted steps, fired, step): status 0 at t_bound,
# -1 on a step below 10 ulp of t, 1 when the events flagged in fired fired at
# the end of step (not appended).  Each min/max of scipy's controller is the
# conditional that picks the same operand.
_KERNEL = """\
def kernel(t, y, f, h_abs, t_bound, rtol, atol, ts, ys, dense):
    {y} = {u} = y
    {k0} = f
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
            err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / sqrt((e5 + 0.01 * e3) * {n!r})
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
            step = (t, t_new, {rows})
            if dense is not None:
                dense.append(step)
            if {fired}:
                return 1, h_abs, steps, ({flags}), step
        t = t_new
        {y} = {new}
        {k0} = {k_last}
{g_shift}\
        ts.append(t)
        ys.append(({y}))
        if t == t_bound:
            return 0, h_abs, steps, None, None
"""


def _kernel_source(rhs, events):
    """The source of kernel (see _KERNEL) for n = len(rhs) right-hand side expressions
    and (name, expression, direction) events, all in x and u0..u{n-1}."""
    n = len(rhs)
    step = []
    for s in range(1, _N_STAGES):
        step += _stage(s, f"t + {_C[s]!r} * h", _update(_A[s], n), rhs)
    step += [f"n{i} = {v}" for i, v in enumerate(_update(_B, n))]
    step += _stage(_N_STAGES, "t + h", [f"n{i}" for i in range(n)], rhs)
    for i in range(n):
        # b if b > a else a: max(a, b), without the builtin call
        step += [f"a = abs(y{i})", f"b = abs(n{i})", f"sc{i} = atol + (b if b > a else a) * rtol"]
    for name, row in (("e5", _E5), ("e3", _E3)):
        step += [f"q{i} = ({_sum(row, i)}) / sc{i}" for i in range(n)]
        step += [f"{name} = " + " + ".join(f"q{i} * q{i}" for i in range(n))]
    extra = []
    for j, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1):
        extra += _stage(j, f"t + {c!r} * h", _update(a, n), rhs)
    rows = [[f"y{i}" for i in range(n)], [f"n{i} - y{i}" for i in range(n)],
            [f"h * k0_{i} - (n{i} - y{i})" for i in range(n)],
            [f"2.0 * (n{i} - y{i}) - h * (k{_N_STAGES}_{i} + k0_{i})" for i in range(n)]]
    rows += [[f"h * ({_sum(row, i)})" for i in range(n)] for row in _D]
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
        y=_names("y", n), u=_names("u", n), new=_names("n", n), k0=_names("k0_", n),
        k_last=_names(f"k{_N_STAGES}_", n), n=float(n),
        safety=_SAFETY, min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR, exponent=_EXPONENT,
    )


def system(name, params, rhs, events):
    """Compile a system of n = len(rhs) entries into a factory of its integrators.

    rhs holds n expressions and events (name, expression, direction)
    triples, all in the independent variable x, the state u0..u{n-1} and the
    constants named in params.  factory(**constants) returns the scalar
    right-hand side fun(x, u), called name, with attributes `events` (the
    terminal event functions g(x, u), each called by its event's name, with
    `entries` the indices i of the u{i} it reads) and `kernel` (the leg
    kernel of _KERNEL), for solve_ivp.  The constants are bound by closure,
    so a new set of them compiles nothing.
    """
    defs = [(name, "(" + "".join(e + ", " for e in rhs) + ")")] + [(ev, expr) for ev, expr, _ in events]
    src = f"def factory({', '.join(params)}):\n"
    src += "".join(f"    def {fn}(x, u):\n        {_names('u', len(rhs))} = u\n        return {expr}\n" for fn, expr in defs)
    reads = [_reads(expr) for _, expr, _ in events]
    src += "".join(f"    {ev}.terminal, {ev}.direction, {ev}.entries = True, {d}, {i}\n"
                   for (ev, _, d), i in zip(events, reads))
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
    # summed in v's order, as the kernel's error norm (sum() compensates from Python 3.12)
    return math.sqrt(reduce(lambda total, x: total + x * x, v, 0.0) / len(v))


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa, xb):
    """The root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4):
    scipy's brentq(f, xa, xb, xtol=4 eps, rtol=4 eps) operation for
    operation (scipy/optimize/Zeros/brentq.c, at its 100 iterations), so it
    returns the same double.  As scipy's, it raises ValueError on a NaN
    value of f or on ends whose values have the same sign bit, returns an
    end where f is exactly 0, and raises RuntimeError after 100 iterations
    without convergence."""

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError(f"f({xa!r}) and f({xb!r}) have the same sign")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_TOL + _BRENT_TOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"no root within {_BRENT_TOL!r} after {_BRENT_MAXITER} iterations; last x={xcur!r}")


def _point(step, t, entries=None):
    """The state at a float t on step, a dense row, as a list of n floats:
    the interpolant's Horner sum in x = (t - t_old) / h, last row first;
    given entries, only those indices are summed, the others are None."""
    n = (len(step) - 2) // 8  # the row is 2 + 8n floats (see _KERNEL)
    x = (t - step[0]) / (step[1] - step[0])
    state = [None] * n
    for j in range(n) if entries is None else entries:
        y = 0.0
        for i in range(7):
            y = (y + step[2 + n * (7 - i) + j]) * (x if i % 2 == 0 else 1.0 - x)
        state[j] = y + step[2 + j]
    return state


def _array(rows, width):
    """rows, sequences of width floats each, as a len(rows) by width array."""
    return np.fromiter(chain.from_iterable(rows), float, len(rows) * width).reshape(-1, width)


class Dense:
    """A leg's dense output: steps holds one row per accepted step, laid out
    as the kernel hands it out (see _KERNEL), 2 + 8n floats for an n-entry
    state, and ts the leg's start and its step ends."""

    def __init__(self, steps):
        self.steps = steps
        self.ts = np.append(steps[:1, 0], steps[:, 1])

    def __call__(self, xs):
        """The state at the 1-D float array xs, as n by len(xs).  Each x
        takes the step scipy's OdeSolution picks (the earlier one for an x
        on a step end, the end steps for an x outside) and _point's Horner
        sum, for all nodes at once."""
        i = np.clip(np.searchsorted(self.ts, xs, "left") - 1, 0, len(self.steps) - 1)
        steps = self.steps[i]
        x = ((xs - steps[:, 0]) / (steps[:, 1] - steps[:, 0]))[:, None]
        n = (steps.shape[1] - 2) // 8
        rows = steps[:, 2 + n:].reshape(-1, 7, n)
        y = np.zeros((len(xs), n))
        for k in range(7):
            y = (y + rows[:, -1 - k]) * (x if k % 2 == 0 else 1.0 - x)
        return (y + steps[:, 2:2 + n]).T


@dataclass
class IvpResult:
    """One integration, shaped like solve_ivp's result: t and y (entries by
    steps) at the step ends; sol the dense output, a Dense over the leg's
    step rows, or None; event the name of the terminal event whose root
    ended the leg, or None; nfev the right-hand side calls; status 0 (reached
    the end), 1 (a terminal event) or -1 (the step size fell below 10 ulp of
    t, the last entry of t, or the initial step rounded to 0 at t0, with no
    sol); step the last step size tried."""

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
    on the firing step, located on the interpolant of the entries the event
    reads (its `entries`), ends the leg and names its event.
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
    if h0 == 0.0:
        # the first trial step rounds to 0 (on a derivative that overflows,
        # say): the leg fails where it starts
        return IvpResult(t=np.array([t0]), y=_array([y], len(y)).T, sol=None, event=None, nfev=1,
                         status=-1, step=0.0)
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
        roots = [_brentq(lambda x, ev=ev: ev(x, _point(last, x, ev.entries)), last[0], last[1])
                 for ev in active]
        first = min(range(len(active)), key=roots.__getitem__)
        event = active[first].__name__
        ts.append(roots[first])
        ys.append(_point(last, roots[first]))
    n_interp = len(dense) if dense_output else int(status == 1)
    return IvpResult(
        t=np.array(ts),
        y=_array(ys, len(y)).T,
        sol=Dense(_array(dense, 2 + 8 * len(y))) if dense_output else None,
        event=event,
        nfev=2 + _N_STAGES * steps + len(_A_EXTRA) * n_interp,
        status=status,
        step=h_abs,
    )
