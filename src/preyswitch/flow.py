"""Event-detecting integration and Filippov concatenation.

Every integration runs by Taylor series.  Each field of the model is
quadratic, so each step expands the solution to order 24 by the
Cauchy-product recurrence of its quadratic form, compiled once
(:func:`~preyswitch.model.quadratic_series`), takes
the step of Jorba and Zou (2005) at the local tolerance 1e-4*abs_tol, and on
the step's polynomials either excludes each event or locates the first, by
an in-house port of Brent's method (:func:`_brent`) on a generated Horner
evaluation (:func:`_horner_program`), so no scipy is loaded.
Every integration runs through one Taylor step loop (:func:`_taylor_lanes`),
which advances K lanes, each by its own step: one lane for every arc,
smooth or sliding (:func:`_smooth_lanes`, :func:`_sliding_lanes`), and for
both arcs of the planar period (:func:`lv_period`), which are X-arcs on
the invariant plane y = 0; one X-lane a launch for the fold launches
(:func:`integrate_fold_launches`), which are X-arcs leaving the fold like
those :func:`integrate_smooth` runs, by the same code
(:func:`_smooth_lanes`).  The lanes advance in rounds: while _ARRAY_LANES
lanes or more run, a round steps them together on numpy arrays
(:func:`_array_round`); below that, each lane takes its step on Python
floats (:func:`_float_round`), by one program generated here for its
form and for the shapes of the call's events (:func:`_taylor_step`,
compiled once for both, on the form's series lines; Y's series runs on
(y, x, z), where its form is X's, so that Y-arcs take X's programs, and a
lane steps in its series' coordinates and records its states in the
field's): the series, Jorba
and Zou's step (whose lines the array round's step runs too), the end
state, and the float test of every event on the step's own coefficients,
whose lines each event's class writes: a plane's spread test and signed
lower bound on its Bernstein coefficients, on a tangent lane's first step
with the contact divided out; the focus ball's enclosure, or else two
lower bounds on the squared distance.  Only the rows that no test clears
are formed as polynomials (:func:`_float_step`).
Either way each lane's arc is the one it has alone, bit for bit.  No step
is capped: each proves every event absent or stops at the first.
Every lane ends at the first event of its caller's table, each an event
that ends an arc, declared as data in the series' coordinates: the
switching plane s_0 - s_1 for a smooth arc (h = x - y for X, y - x = -h
for Y on (y, x, z)), the fold line and the focus ball for a sliding arc, the
section z = r1 for the planar period; both kinds of round form each
event's polynomial from the same data.  No coordinate plane is watched,
since no arc can cross one: X's and Y's coordinate planes and the sliding
field's x = 0 are invariant, and a sliding arc's z meets the fold line
before it could reach 0 (see :func:`_taylor_lanes`).  The loop's close
rule raises :class:`BlowUp` when a lane's start, or the end of one of its
steps, lies beyond the norm bound _NORM_BOUND.  A start that is not finite
coordinates of the right number, or has a negative one, raises
:class:`DomainError`.
Each fact of a call is stated once: a field's series carries the sign of
time (``series.sgn``), and the sliding series the focus of its parameters
(``series.focus``), so no lane function takes either; ``cfg.t_max`` ends
the time window of every integration, and only the step loop turns it into
the time left, a float, for a call that starts at t_start != 0.
The Filippov concatenator stitches smooth and sliding arcs per the
convex-combination convention: trajectories entering the sliding region
follow the sliding field until the visible fold hands them back to X.  It
checks its start and builds the fields' series once a trajectory, and runs
each arc as one lane of :func:`_smooth_lanes` or :func:`_sliding_lanes`
from the time the arc before it ends, under the trajectory's own ``cfg``;
an arc that ends on Sigma or at the fold line records its end state put
onto it when the record is made.

Every integration that starts on a tangency watches a desingularised event,
valued at the start by its limit, so the initial contact is never mistaken
for a return.  On the first step of an arc, in u = t/step on [0, 1], the
event polynomial has the contact divided out exactly: an X-arc leaving a
fold point watches h/u**2, positive at u = 0 on the visible fold; a sliding
arc starting on the fold line (z0 within the event tolerance of phi) watches
(z - z0)/u; each arc of the planar period watches its section value over u.
An X-arc from the fold that returns before its lift-off X2h*t**2/2 exceeds
the event tolerance is a :class:`TangencyAmbiguity`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    BlowUp,
    ChatteringGuard,
    DomainError,
    NoReturn,
    PreySwitchError,
    StepFailure,
    TangencyAmbiguity,
    _lone,
)
from .model import (
    Parameters,
    Piece,
    RegionLabel,
    _compiled,
    _finite,
    _instance,
    _past_cusp,
    _series_lines,
    classify_sigma_point,
    lie_derivatives,
    smooth_series,
)
from .sliding import sliding_series


# never called, and scipy is not imported until it is looked up; the
# benchmark's probe wraps flow.solve_ivp, and this goes once it stops
# (ROADMAP item 1)
def __getattr__(name: str):
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Taylor order, and local tolerance relative to abs_tol (1e-16 at the
# defaults; order 16 at 1e-12 drifted 5.5e-12 from DOP853 on the
# certificate's capture arc, close to the oracle bound 1e-11).  Order 24
# is the fastest of those scanned: with the step generated whole, 8
# interleaved cold runs a value (minimum, 2-vCPU host, Python 3.11) at
# orders 24/26/28/30/32 took 18.9/18.5/17.9/18.8/19.4 ms on the
# benchmark's connection, 35.2/35.7/35.4/35.4/35.6 ms on sweep and
# 70.3/72.1/73.4/76.0/82.2 ms on simulate, and orders 16-22 were slower on
# sweep and simulate
_TAYLOR_ORDER = 24
_TAYLOR_TOL = 1e-4
_MAX_ARCS = 10_000
# the state norm above which a lane's start or step end raises BlowUp, and
# the radius within which a Filippov trajectory's sliding arc, and the
# certificate's backward sliding orbit, are captured by the pseudo-focus
_NORM_BOUND = 1e6
_CAPTURE_RADIUS = 1e-4
_FOLD_LABELS = (RegionLabel.VISIBLE_FOLD, RegionLabel.CUSP)


class Direction(Enum):
    FORWARD = 1
    BACKWARD = -1


class ArcKind(Enum):
    SMOOTH_X = "SmoothX"
    SMOOTH_Y = "SmoothY"
    SLIDING = "Sliding"


class EventKind(Enum):
    """How an arc ends, and in a trajectory of :func:`integrate_filippov`
    what follows it.  A lone smooth arc ends every hit on Sigma as
    SIGMA_CROSSING."""

    SIGMA_CROSSING = "SigmaCrossing"  # a hit on Sigma; an X-arc follows
    SIGMA_ENTRY_SLIDING = "SigmaEntrySliding"  # a hit on Sigma; a sliding arc follows
    FOLD_EXIT = "FoldExit"  # z reaches phi on a sliding arc; X, or more sliding where the flow stays, follows
    FOCUS_CAPTURE = "FocusCapture"  # within the capture radius of the pseudo-focus; nothing follows
    DOMAIN_EXIT = "DomainExit"  # a hit on the origin line; nothing follows
    HORIZON_REACHED = "HorizonReached"  # t_max; nothing follows


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and horizon for all integrations.

    ``abs_tol`` sets the local tolerance 1e-4*abs_tol of every Taylor step
    of the one step loop, arcs and fold launches alike (see
    :func:`_taylor_lanes`), and :meth:`halved` halves it.  ``t_max`` ends
    the time window of every integration: t runs over [0, t_max] forward
    and [-t_max, 0] backward, and an arc that starts at t_start inside it
    (a later arc of :func:`integrate_filippov`, the second arc of
    :func:`lv_period`) runs for the time left, t_max - sgn*t_start, which
    only :func:`_taylor_lanes` derives.  All fields must be finite positive
    numbers, and ``event_tol`` may not exceed 100 * ``abs_tol``.
    """

    abs_tol: float = 1e-12
    event_tol: float = 1e-12
    t_max: float = 400.0

    def __post_init__(self):
        for name in ("abs_tol", "event_tol", "t_max"):
            (value,) = _finite((getattr(self, name),), f"IntegratorConfig.{name}", 1)
            if not value > 0.0:
                raise DomainError(f"IntegratorConfig.{name} must be finite and positive, got {value}")
        if self.event_tol > 100.0 * self.abs_tol:
            raise DomainError("event_tol must not exceed 100 * abs_tol")

    def halved(self) -> "IntegratorConfig":
        """A copy with the integration tolerance halved (for cross-checks)."""
        return replace(self, abs_tol=self.abs_tol / 2.0)


@dataclass(frozen=True)
class EventRecord:
    kind: EventKind
    t: float
    state: np.ndarray


@dataclass(frozen=True)
class Arc:
    """One piece of a Filippov trajectory under a single vector field.

    ``states`` rows are (x, y, z) for smooth arcs and (x, z) for sliding
    arcs (embedded in Sigma as (x, x, z)), the only planar arcs.
    ``ts`` is strictly increasing for forward arcs and strictly decreasing
    for backward arcs.  ``ts`` and ``states`` hold the start and the end
    of each of the arc's Taylor steps, and ``steps`` counts those steps.
    """

    kind: ArcKind
    t0: float
    t1: float
    ts: np.ndarray
    states: np.ndarray
    terminal_event: EventRecord
    steps: int

    @property
    def samples(self) -> list[tuple[float, np.ndarray]]:
        return [(float(t), self.states[i]) for i, t in enumerate(self.ts)]

    @property
    def planar(self) -> bool:
        return self.states.shape[1] == 2


@dataclass(frozen=True)
class Trajectory:
    initial: np.ndarray
    arcs: tuple[Arc, ...]

    def events(self) -> list[EventRecord]:
        return [a.terminal_event for a in self.arcs]


def _bernstein_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree-n maps on coefficient vectors: power basis on [0, 1] to
    Bernstein basis, and Bernstein basis to the Bernstein bases of the left
    and right halves (de Casteljau at 1/2)."""
    to_bernstein = np.zeros((n + 1, n + 1))
    left = np.zeros((n + 1, n + 1))
    right = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(j + 1):
            to_bernstein[j, k] = math.comb(j, k) / math.comb(n, k)
            left[j, k] = math.comb(j, k) / 2.0**j
            right[n - j, n - k] = math.comb(j, k) / 2.0**j
    return to_bernstein, left, right


_TO_BERNSTEIN, _LEFT_HALF, _RIGHT_HALF = _bernstein_matrices(_TAYLOR_ORDER)
_POWERS = np.arange(_TAYLOR_ORDER + 1)
_ONE = np.eye(1, _TAYLOR_ORDER + 1)[0]  # the series of the constant 1
_ROOT_TOL = 4.0 * math.ulp(1.0)
# below this many running lanes, each takes its step on Python floats: a
# float step of a fold launch takes about 17 us a lane, its event tests
# and root searches included, and forms no event polynomial that a float
# test clears, while an array round of them takes about 250 us and 2 us
# more a lane, 270 us for 16 lanes and 350 us for 48, so a round costs
# the same both ways at about 16 lanes (2-vCPU host, Python 3.11, numpy
# 2.4).  With a float step of 24-27 us, in the benchmark's connection and
# sweep runs
# (seed 1, 24 alternating repetitions of each value), none of 8, 12 and 24
# was measurably faster than 16 on both: 8 and 12 within 1.3% in the median,
# faster in 9 to 14 of 24, and 24 4% faster on connection (12 of 24) but
# 1.5% slower on sweep (8 of 24) (2-vCPU host, Python 3.11, numpy 2.4).
# It must stay at 2 or more: numpy adds the Cauchy product of one lane
# alone pairwise, so an array round of one lane would not equal its float
# step bit for bit
_ARRAY_LANES = 16


@functools.cache
def _horner_program():
    """p(u) = sum_k c_k u**k, for the _TAYLOR_ORDER + 1 coefficients c_k of
    a step's row, by Horner's rule, compiled on first use as one
    expression: from 0.0*u + c_n, each order times u plus the next
    coefficient down, in turn."""
    n = _TAYLOR_ORDER
    value = f"0.0*u + c{n}"
    for k in range(n - 1, -1, -1):
        value = f"({value})*u + c{k}"
    body = [f"{''.join(f'c{k}, ' for k in range(n + 1))}= c", f"return {value}"]
    return _compiled("horner", "c, u", body, f"<Horner's rule to degree {n}>", {})


def _brent(coefficients: list[float], lo: float, hi: float, p_lo: float, p_hi: float) -> float:
    """The root in [lo, hi] of the polynomial with these _TAYLOR_ORDER + 1
    coefficients, by Brent's method to 4 eps, given its values p_lo and
    p_hi at the ends.

    A port of scipy's ``brentq.c`` at ``xtol = rtol = 4 eps``: the same
    iteration on the same floats, so it returns the same root, with p by
    :func:`_horner_program`, which must also have given p_lo and p_hi.
    They must differ in sign unless one is zero.  Raises
    :class:`StepFailure` if 100 iterations do not converge.
    """
    horner = _horner_program()
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = p_lo, p_hi
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
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
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = horner(coefficients, xcur)
    raise StepFailure(f"Brent's method did not converge on [{lo}, {hi}] in 100 iterations")


def _first_root(a: np.ndarray, b: np.ndarray) -> float | None:
    """The first u in (0, 1] where p(u) = sum a_k u**k falls to zero, or None.

    ``b`` holds p's Bernstein coefficients on [0, 1]; p(0) = b_0 must not be
    negative beyond roundoff.  p is their combination with weights positive
    on (0, 1), so an interval where b_0 >= 0 and every other b_j > 0 holds no
    root.  Any other interval is halved, left half first, until one sign
    change of its b brackets a single root, which :func:`_brent` locates
    to 4 eps.
    """
    coefficients, horner = a.tolist(), _horner_program()
    stack = [(0.0, 1.0, b)]
    while stack:
        lo, hi, b = stack.pop()
        # the tests read the coefficients as floats; a NaN is not positive
        v = b.tolist()
        positive = [x > 0.0 for x in v]
        if v[0] >= 0.0 and all(positive[1:]):
            continue
        # every interval left of lo is root-free, so p(lo) < 0 is roundoff
        # of a root at lo
        if v[0] < 0.0:
            return lo
        if hi - lo <= _ROOT_TOL:
            return hi
        # one sign change: positive up to the first b_k <= 0, and none after
        if positive[0] and v[-1] <= 0.0 and True not in positive[positive.index(False) :]:
            p_lo, p_hi = horner(coefficients, lo), horner(coefficients, hi)
            if p_lo <= 0.0:
                return lo
            if p_hi <= 0.0:
                return _brent(coefficients, lo, hi, p_lo, p_hi)
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, _RIGHT_HALF @ b))
        stack.append((lo, mid, _LEFT_HALF @ b))
    return None


def _underflow(s: float) -> StepFailure:
    return StepFailure(f"Taylor step underflow at {s} after the start of an integration")


def _step_rule(norms: list[str], order: int) -> list[str]:
    """Jorba and Zou's step from the time s into an integration, as lines
    that set ``end``: h = min over k = order-1, order of (tol/|c_k|)**(1/k),
    with tol = _TAYLOR_TOL*abs_tol and ``norms`` the expressions of the
    largest |c_(order-1)| and |c_order| of the coordinates (a zero one sets
    no bound), clamped to ``left``, the time left in the window; the lines
    raise :func:`_underflow` if s + h does not exceed s.  Both kinds of
    round take them: a float step's program (:func:`_taylor_step`), and an
    array round by :func:`_step_end`."""
    lines = ["step = inf"]
    for k, norm in zip((order - 1, order), norms):
        bound = [f"norm = {norm}", "if norm > 0.0:", f"    bound_k = (tol / norm) ** {1.0 / k!r}"]
        lines += [*bound, "    if bound_k < step:", "        step = bound_k"]
    return lines + ["if step >= left - s:", "    end = left", "else:", "    end = s + step", "    if not end > s:", "        raise underflow(s)"]


@functools.cache
def _step_end_program():
    body = ["norm0, norm1 = norms", *_step_rule(["norm0", "norm1"], _TAYLOR_ORDER), "return end"]
    namespace = {"inf": math.inf, "underflow": _underflow}
    return _compiled("step_end", "norms, s, tol, left", body, "<Jorba and Zou's step>", namespace)


def _step_end(norms: list[float], s: float, tol: float, left: float) -> float:
    """The end of Jorba and Zou's step (:func:`_step_rule`) from the time s
    into an integration, with ``norms`` the largest |c_(n-1)| and |c_n| of
    the coordinates: an array round's step of one lane, compiled on first
    use."""
    return _step_end_program()(norms, s, tol, left)


def _divide_out(g: np.ndarray, k: int) -> np.ndarray:
    """g/u**k on every lane (row) of g, whose k lowest orders are the
    contact of a tangential start, zero up to roundoff."""
    return np.concatenate((g[:, k:], np.zeros((len(g), k))), axis=1)


def _sum_of_squares(v: np.ndarray) -> np.ndarray:
    """The series of the sum of squares of the coordinates of v, shape
    (lanes, dim, order + 1), to their order, on every lane."""
    return np.array([sum(map(np.convolve, lane, lane)) for lane in v])[:, : v.shape[2]]


# An event is data, and both rounds of the step loop form its rows from it:
# ``rows(a, first, lanes)`` is the polynomial of each lane of a, shape
# (lanes, dim, order + 1), falling through zero, or None if no lane can
# have a root; ``lanes`` are the lanes' indices in the call; ``landing(p)``
# is the state that an arc ending at the event at p records.  The rows of
# the first step are clamped at 0 at u = 0, so that a start within roundoff
# of an event surface is not an event.  An event's ``shape`` keys its part
# of a float step's program, the lines of its float tests, which its class
# writes (``tests``), and ``constants`` are its arguments there (see
# :func:`_taylor_step`); a test clears a row only if it has no root.


def _signed(g0: float, side: float, d: list[float], c: int) -> bool:
    """The signed test of a plane's row g_0, g_k = side*d_k (k >= 1):
    g_0 + (side*sum d_k - sum |d_k|)/2 > 1e-13*(|g_0| + sum |d_k|), each sum
    a left fold from 0.0; on a tangent lane's first step (contact c != 0)
    on the row with the contact divided out, g_0 = max(side*d_c, 0.0) and
    the d_k from k = c + 1 on.

    Every Bernstein coefficient sum_k C(j,k)/C(n,k) g_k of the row is at
    least g_0 + sum_(k>=1) min(g_k, 0), which this is, and the margin
    1e-13*sum |g_k| is the array round's, far above the rounding of either
    sum (under 50 eps*sum |g_k|), so that a row it clears is one that
    :func:`_first_root` clears at its first test.
    """
    if c:
        g0, d = max(side * d[c - 1], 0.0), d[c:]
    size = total = 0.0
    for v in d:
        size += abs(v)
        total += v
    return g0 + (side * total - size) * 0.5 > 1e-13 * (abs(g0) + size)


def _far(dist, spread, radius: float):
    """The focus ball's enclosure test: a step whose distance ``dist`` from
    the centre at its start, less the sum ``spread`` of its coefficients'
    spreads, exceeds ``radius`` by 1e-6 of their sum (a margin for the
    rounding of the row) stays out of the ball.  Both kinds of round take
    it, on floats or on arrays of lanes."""
    return dist - spread > radius + 1e-6 * (dist + spread)


def _ball_bounds(p: list[float], centre: tuple[float, ...], radius: float, a: list[list[float]], S: float) -> bool:
    """Whether a lower bound of |s(u) - centre|**2 - radius**2 on [0, 1]
    clears the ball's row of a step from p with the coefficients a_k,
    k >= 1 (a list per coordinate) and the sum S of their spreads.

    With d = p - centre, either bound must exceed 1e-9 of the row's size
    |d|**2 + radius**2 + 2 sum_(k>=1) |d.a_k| + S**2, far above the
    rounding of the row that :meth:`_Ball.rows` forms (under 100 eps of
    the same size) and the orders of |s(u) - s_0|**2 past the series' own,
    which the row drops and the step's tolerance keeps near 1e-16, so that
    :func:`_first_root` finds no root in a row either clears:
    - the signed bound |d|**2 - radius**2 + 2 sum_(k>=1) min(d.a_k, 0),
      which drops |s(u) - s_0|**2 >= 0;
    - the segment bound (m - rho)**2 - radius**2 for m > rho, with m the
      distance from the centre to the segment p + u a_1 and rho the sum of
      every |a_k| with k >= 2, the most that the later orders move s(u)
      off it; it keeps the linear part of |s(u) - s_0|**2, which a step
      that turns about the centre, as a sliding arc about its focus,
      mostly is.
    Every sum is a left fold from 0.0.
    """
    d = list(map(operator.sub, p, centre))
    dots = [0.0] * len(a[0])
    for v, col in zip(d, a):
        dots = [x + v * y for x, y in zip(dots, col)]
    dist2 = neg = size = 0.0
    for v in d:
        dist2 += v * v
    for v in dots:
        size += abs(v)
        if v < 0.0:
            neg += v
    r2 = radius * radius
    margin = 1e-9 * (dist2 + r2 + 2.0 * size + S**2)
    if dist2 - r2 + 2.0 * neg > margin:
        return True
    lin = rho = 0.0
    for col in a:
        lin += col[0] * col[0]
        for v in col[1:]:
            rho += abs(v)
    u = min(max(-dots[0] / lin, 0.0), 1.0) if lin > 0.0 else 0.0
    m = math.hypot(*(v + u * col[0] for v, col in zip(d, a)))
    return m > rho and (m - rho) ** 2 - r2 > margin


@dataclass(frozen=True)
class _Plane:
    """The event side*(s_i - s_j - level), or side*(s_i - level) if j is
    None, with side = 1 or -1.  Lane l starts tangent to it if
    contact[l] > 0, and on its first step watches the row divided by
    u**contact[l] instead; at most one plane of a table has a contact.  If
    ``snap``, an arc that ends at it records its end state put onto the
    plane (:meth:`landing`)."""

    kind: EventKind
    i: int
    j: int | None = None
    level: float = 0.0
    side: float = 1.0
    contact: tuple[int, ...] = ()
    snap: bool = False

    @property
    def shape(self) -> tuple:
        # whether the plane has a contact, not the call's contacts, so that
        # one program serves every call of a caller
        return ("plane", self.i, self.j, bool(self.contact))

    @property
    def constants(self) -> tuple:
        return (self.level, self.side)

    @staticmethod
    def tests(e: int, a: list[str], i: int, j: int | None, tangent: bool) -> tuple[list[str], list[str], set[int]]:
        """The names of the constants of the plane event e of shape
        ("plane", i, j, tangent), the lines of its float tests on the
        step's coefficients, whose tuple (a_1, .., a_order) is a[q] for
        coordinate q, and on the spreads sp{q}, which add e to ``pend``
        unless one clears the step's row g, and the coordinates whose
        spreads they read, i and j.  The spread test clears
        g_0 > (1 + 1e-9)*(sp_i + sp_j) (a margin for the rounding of the
        row and of its Bernstein coefficients); else :func:`_signed` runs on
        d_k = a_(i,k) - a_(j,k), and alone on a tangent lane's first step,
        of contact ``c`` != 0, if the plane is ``tangent``."""
        d = a[i] if j is None else f"list(map(sub, {a[i]}, {a[j]}))"
        g0 = f"s{i}_0" if j is None else f"(s{i}_0 - s{j}_0)"
        spread = f"sp{i}" if j is None else f"(sp{i} + sp{j})"
        return [f"level{e}", f"side{e}"], [
            f"g = side{e}*({g0} - level{e})",
            f"if {'c or ' if tangent else ''}not g > (1.0 + 1e-9)*{spread}:",
            f"    if not signed(g, side{e}, {d}, {'c' if tangent else 0}):",
            f"        pend += ({e},)",
        ], {i} if j is None else {i, j}

    def landing(self, p: list[float]) -> list[float]:
        """The state an arc that ends at p on this event records: p, or if
        ``snap`` p with s_i = level, or with s_i and s_j both their mean."""
        if not self.snap:
            return p
        q = list(p)
        if self.j is None:
            q[self.i] = self.level
        else:
            q[self.i] = q[self.j] = 0.5 * (p[self.i] + p[self.j])
        return q

    def rows(self, a: np.ndarray, first: bool, lanes: list[int]) -> np.ndarray:
        g = a[:, self.i]
        if self.j is not None:
            g = g - a[:, self.j]
        if self.level:
            g = g - self.level * _ONE
        if self.side != 1.0:
            g = self.side * g
        if first:
            for k in set(self.contact) - {0}:
                tangent = np.array([self.contact[l] == k for l in lanes])
                g = np.where(tangent[:, None], _divide_out(g, k), g)
            g = np.concatenate((np.maximum(g[:, :1], 0.0), g[:, 1:]), axis=1)
        return g


@dataclass(frozen=True)
class _Ball:
    """The event |s - centre|**2 - radius**2.  Its row is formed only for a
    lane whose step can come within the radius, judged by the enclosure
    (:func:`_far`).  A float step whose enclosure comes that near may still
    be cleared by a lower bound on the squared distance
    (:func:`_ball_bounds`), which the array round does not take: it decides
    every formed row by its exact Bernstein coefficients in one matrix
    product."""

    kind: EventKind
    centre: tuple[float, ...]
    radius: float
    shape = ("ball",)

    @property
    def constants(self) -> tuple:
        return (self.centre, self.radius)

    @staticmethod
    def tests(e: int, a: list[str]) -> tuple[list[str], list[str], set[int]]:
        """The names of the constants of the ball event e, the lines of its
        float tests on the step's coefficients, whose tuple is a[q] for
        coordinate q, and on the spreads sp{q}, which add e to ``pend``
        unless one clears the step's row, and the coordinates whose spreads
        they read, all: the enclosure (:func:`_far`), with the distance from
        p to the centre and the sum S of the spreads, or else
        :func:`_ball_bounds`."""
        n = len(a)
        return [f"centre{e}", f"radius{e}"], [
            f"S = {' + '.join(f'sp{q}' for q in range(n))}",
            f"if not far(dist(p, centre{e}), S, radius{e}):",
            f"    if not bounds(p, centre{e}, radius{e}, [{', '.join(a)}], S):",
            f"        pend += ({e},)",
        ], set(range(n))

    def landing(self, p: list[float]) -> list[float]:
        return p

    def rows(self, a: np.ndarray, first: bool, lanes: list[int]) -> np.ndarray | None:
        offset = a - np.array(self.centre)[:, None] * _ONE
        dist = np.sqrt((offset[:, :, 0] ** 2).sum(axis=1))
        near = ~_far(dist, np.abs(offset[:, :, 1:]).sum(axis=(1, 2)), self.radius)
        if not near.any():
            return None
        g = np.tile(_ONE, (len(a), 1))  # the constant 1: no root
        g[near] = _sum_of_squares(offset[near])
        g[near, 0] -= self.radius * self.radius
        if first:
            g[:, 0] = np.maximum(g[:, 0], 0.0)
        return g


def _event_lines(shapes: tuple[tuple, ...], a: list[str]) -> tuple[list[str], list[str], set[int]]:
    """The names of the constants of the events of these shapes, in turn,
    the lines of their float tests, each written by its class
    (:meth:`_Plane.tests`, :meth:`_Ball.tests`), and the coordinates whose
    spreads they read.  The lines read p, its coordinates s{q}_0, the
    step's coefficients, whose tuple (a_1, .., a_order) is the expression
    a[q] for coordinate q, the spreads sp{q} of the coordinates they name
    and the step's contact c, and leave in ``pend`` the indices of the
    events whose rows they do not clear; they run in the names of
    :func:`_event_namespace`."""
    constants, lines, read = [], ["pend = ()"], set()
    for e, (kind, *fields) in enumerate(shapes):
        names, tests, spreads = (_Plane if kind == "plane" else _Ball).tests(e, a, *fields)
        constants += names
        lines += tests
        read |= spreads
    return constants, lines, read


def _event_namespace() -> dict:
    """The names that the float tests' lines call."""
    return {"dist": math.dist, "sub": operator.sub, "signed": _signed, "far": _far, "bounds": _ball_bounds}


@functools.cache
def _taylor_step(structure: tuple[tuple[int, ...], ...], i: int, j: int, order: int, shapes: tuple[tuple, ...]):
    """A whole Taylor step of one point of floats to ``order``, with the
    float tests of its events, compiled as one straight-line function
    ``(p, args, c, s)`` of the form's structure (``series.form``, see
    :func:`~preyswitch.model.quadratic_series`) and of the events' shapes,
    as Jorba and Zou's ``taylor`` generates the whole step, not just the
    jet.

    ``args`` holds the form's weights, then tol = _TAYLOR_TOL*abs_tol and
    the time left in the window, then each event's ``constants``.  ``c`` is
    the contact of the step, 0 but on a tangent lane's first step, and
    ``s`` the time into the integration.  The plane's signed test and the
    ball's bounds, which run on a minority of steps, are calls of
    :func:`_signed` and :func:`_ball_bounds`, which written out per event
    would add about two thirds to the function's compile time.

    The function runs, in straight-line code:
    - the recurrence of :func:`~preyswitch.model._series_lines`, and
      returns None if a coefficient is not finite;
    - Jorba and Zou's step (:func:`_step_rule`);
    - the step's coefficients a_k = c_k h**k, each its own name, with h**k
      numpy's power of h (Python's ``h ** k`` differs in the last bit) and
      a_0 = p, and the end state, a left fold from -0.0, as
      ``np.add.accumulate`` adds the orders of an array round, so that a
      lane's float step equals its array round;
    - the spread sum_(k>=1) |a_k| of each coordinate that an event's test
      reads, a left fold;
    - each event's float tests (:func:`_event_lines`), which build the
      tuple of a coordinate's coefficients only where they read it.

    It returns the step's end, its end state, and None if the tests clear
    every event; else, in place of None, the indices of the events whose
    rows the tests do not clear, h, the coefficients a_k (a list per
    coordinate, built there alone) and their spreads (None for a
    coordinate whose spread no test reads).
    """
    n = len(structure)
    a = [[f"a{q}_{k}" for k in range(1, order + 1)] for q in range(n)]
    constants, tests, read = _event_lines(shapes, [f"({''.join(v + ', ' for v in col)})" for col in a])
    names, body = _series_lines(structure, i, j, order, ["tol", "left", *constants])
    norms = [", ".join(f"abs({col[k]})" for col in names) for k in (order - 1, order)]
    body += _step_rule([f"max({norm})" if n > 1 else norm for norm in norms], order)
    body += ["h = end - s", f"_, {', '.join(f'h{k}' for k in range(1, order + 1))}, = power(h, powers).tolist()"]
    for q, col in enumerate(names):
        body += [f"{v} = {col[k]}*h{k}" for k, v in enumerate(a[q], 1)]
        body.append(f"end{q} = {' + '.join(['-0.0', col[0], *a[q]])}")
        if q in read:
            body.append(f"sp{q} = {' + '.join(f'abs({v})' for v in a[q])}")
    body += tests
    state = f"[{', '.join(f'end{q}' for q in range(n))}]"
    coefficients = ", ".join(f"[{', '.join([col[0], *a[q]])}]" for q, col in enumerate(names))
    spreads = ", ".join(f"sp{q}" if q in read else "None" for q in range(n))
    body += [
        "if pend:",
        f"    return end, {state}, (pend, h, [{coefficients}], [{spreads}])",
        f"return end, {state}, None",
    ]
    # float exponents spare numpy a cast of the integer ones each call
    namespace = {"power": np.power, "powers": np.arange(order + 1.0), "inf": math.inf, "underflow": _underflow}
    namespace.update(_event_namespace())
    filename = f"<quadratic form {structure}, {i}, {j}: a float step to order {order}, events {shapes}>"
    return _compiled("step", "p, args, c, s", body, filename, namespace)


def _finish(kind: ArcKind, t_start: float, ts: list, states: list, event: EventKind, steps: int, end=None) -> Arc:
    """The arc of these times and states, ending at ``event``, whose record
    holds the state ``end``, or the arc's last state if None."""
    t1, states_a = float(ts[-1]), np.array(states)
    record = EventRecord(event, t1, states_a[-1].copy() if end is None else np.array(end))
    return Arc(kind, t_start, t1, np.array(ts, dtype=float), states_a, record, steps)


def _overflow(t: float, state) -> StepFailure:
    return StepFailure(f"Taylor coefficients overflow at t = {t}, state {np.asarray(state)}")


def _blow_up(t: float) -> BlowUp:
    return BlowUp(f"state norm exceeded {_NORM_BOUND} at t = {t}")


@dataclass(slots=True)
class _Lane:
    """One lane of :func:`_taylor_lanes`: its index in the call, its state p
    (a list of floats) at the time s into the integration, its steps so far,
    and the times and states of its arc."""

    index: int
    p: list
    ts: list
    states: list
    s: float = 0.0
    steps: int = 0


def _program(series, events: list, tol: float, left: float):
    """The float step of ``series`` with the event table ``events``, the
    generated program of the form and of the events' shapes
    (:func:`_taylor_step`), and its arguments: the weights, the local
    tolerance ``tol``, the time ``left`` in the window and the events'
    constants."""
    program = _taylor_step(*series.form, _TAYLOR_ORDER, tuple(ev.shape for ev in events))
    return program, (*series.weights, tol, left, *(v for ev in events for v in ev.constants))


def _float_step(events: list, first: bool, lane: int, s: float, step: tuple):
    """The end, end state and event, or None, of a float step from the
    time s whose program left rows that its float tests could not clear.

    ``step`` is the program's result (see :func:`_taylor_step`): the step's
    end, its end state, and the indices of those events, h and the
    coefficients a_k.  Their
    rows are formed here, as arrays, as an array round forms them, and go
    to :func:`_first_root`; the first root, if any, ends the step.
    """
    end, state, (pending, h, a, _) = step
    hit, lane_a = None, np.array([a])
    for e in pending:
        ev = events[e]
        g = ev.rows(lane_a, first, [lane])
        if g is None:
            continue
        u = _first_root(g[0], _TO_BERNSTEIN @ g[0])
        if u is not None and (hit is None or u < hit[1]):
            hit = ev, u
    if hit is None:
        return end, state, None
    ev, u = hit
    horner = _horner_program()
    return s + u * h, [horner(col, u) for col in a], ev


def _float_round(live: list[_Lane], program, args: tuple, contact: tuple[int, ...], events: list):
    """One Taylor step of every live lane on Python floats, by the generated
    program of the form and of the events' shapes, which takes the whole
    step and its events' float tests (:func:`_taylor_step`), then by
    :func:`_float_step` for the rows left: per lane, as :func:`_array_round`,
    its end, its end state and the event it ends at, or None.
    """
    out = []
    for lane in live:
        first = lane.steps == 0
        step = program(lane.p, args, contact[lane.index] if first else 0, lane.s)
        if step is None:
            raise _overflow(lane.ts[-1], lane.p)
        out.append(step if step[2] is None else _float_step(events, first, lane.index, lane.s, step))
    return out


def _array_round(live: list[_Lane], series, events: list, tol: float, left: float):
    """One Taylor step of every live lane together on numpy arrays, each by
    its own step: per lane, as :func:`_float_step`, its end, its end state
    and the event it ends at, or None.

    One call of ``series`` on the (dim, K) array of the lanes' states
    expands every lane, as an array of shape (dim, order + 1, K), every event
    forms its rows for every lane (the ball only for the lanes near it),
    and one matrix product gives their Bernstein coefficients.  Its caller
    runs it with numpy's overflow and invalid-value warnings off, so that
    a lane whose coefficients overflow raises :class:`StepFailure` from
    the round's finiteness check, as it does alone.  It clears a row
    only if each coefficient exceeds 1e-13*sum |g_k|, far above its
    rounding gap from the row's own product (under 26 eps*sum |g_k|), so
    every row that the lane alone would search is searched, by
    :func:`_first_root` with its own product.
    """
    n = _TAYLOR_ORDER
    state = np.array([lane.p for lane in live])
    c = series(state.T, n).transpose(2, 0, 1)
    if not np.isfinite(c).all():
        j = int((~np.isfinite(c)).any(axis=(1, 2)).argmax())
        raise _overflow(live[j].ts[-1], live[j].p)
    norms = np.abs(c[:, :, n - 1 :]).max(axis=1).tolist()
    ends = [_step_end(pair, lane.s, tol, left) for pair, lane in zip(norms, live)]
    h = [end - lane.s for end, lane in zip(ends, live)]
    a = c * np.array(h)[:, None, None] ** _POWERS
    indices = [lane.index for lane in live]
    # array rounds come first in a call, so the live lanes have taken equal steps
    first = live[0].steps == 0
    rows = [(ev, g) for ev in events if (g := ev.rows(a, first, indices)) is not None]
    polys = np.array([g for _, g in rows]).reshape(len(rows) * len(live), n + 1)
    cleared = polys @ _TO_BERNSTEIN.T > 1e-13 * np.abs(polys).sum(axis=1, keepdims=True)
    hits = {}
    for k in np.flatnonzero(~cleared.all(axis=1)).tolist():
        r, j = divmod(k, len(live))
        u = _first_root(polys[k], _TO_BERNSTEIN @ polys[k])
        if u is not None and (j not in hits or u < hits[j][1]):
            hits[j] = (rows[r][0], u)
    # accumulate adds the orders in turn for any number of lanes, where sum
    # may add them pairwise
    out = [(end, p, None) for end, p in zip(ends, np.add.accumulate(a, axis=2)[:, :, -1].tolist())]
    horner = _horner_program()
    for j, (ev, u) in hits.items():
        out[j] = live[j].s + u * h[j], [horner(v, u) for v in a[j].tolist()], ev
    return out


def _taylor_lanes(
    kind: ArcKind, series, p0: np.ndarray, events: list, t_start: float, cfg: IntegratorConfig
) -> list[Arc]:
    """The arcs of ``series`` from the rows of p0 at t_start by Taylor steps,
    each up to its first event or the end of the time window.

    Time runs along ``series.sgn``, the sign the series carries, so that
    t = t_start + sgn*s at the time s into the integration, and the window
    ends at ``cfg.t_max`` (see :class:`IntegratorConfig`): the call runs
    for s up to the time left, t_max - sgn*t_start, which this function
    alone derives, as a float that both kinds of round take.  Each step
    expands a lane to order _TAYLOR_ORDER and takes Jorba and Zou's step
    (:func:`_step_end`).  In u = s/h on [0, 1] the event functions are
    polynomials in the step's coefficients a_k = c_k h**k, all falling
    through zero, and each ends an arc: the caller's ``events``, declared
    as data (a :class:`_Plane` or a :class:`_Ball`), and no other.  Each
    step proves that none has a root in (0, 1] or ends its lane at the
    first root, by :func:`_first_root`.

    A lane steps in the series' coordinates, in which ``events`` are
    declared, and records its states in the field's: Y's series runs on
    (y, x, z) (``series.axes``, a swap, see
    :func:`~preyswitch.model.smooth_series`), so that its starts are
    swapped into that order and each state, and an event's landing, back
    out of it before the norm check and the arc's record.

    No coordinate plane is an event, since no lane can cross one.  Every
    field of the model is of Kolmogorov type along its coordinates (Piltz,
    Porter and Maini 2014): each row q of X's and Y's forms holds only s_q
    and, possibly, the product s_i s_j with q in {i, j}, so that
    s_q' = s_q*(a rate), and the plane s_q = 0 is invariant; a coordinate
    that starts positive stays positive, both ways in time.  The sliding
    field's x row is of the same kind, x' = x*(R - B z), and its z, whose
    row holds x, meets the fold line z = phi > 0, which ends a sliding arc,
    before it could reach 0.

    The lanes advance in rounds, each lane by its own step.  While
    _ARRAY_LANES lanes or more run, a round steps them together on numpy
    arrays (:func:`_array_round`); below that, each running lane takes its
    step on Python floats (:func:`_float_round`), by one generated program
    of the form and of the events' shapes, compiled once for both and given
    the call's weights and event constants as arguments (:func:`_program`):
    the step, its step control and every event's float test; an event's
    row is formed
    (:func:`_float_step`) only when the test cannot clear it: for a plane,
    g_0 > sum_(k>=1) |g_k| by the spreads, or else
    g_0 + sum_(k>=1) min(g_k, 0) > 1e-13*sum_k |g_k|, the array round's
    margin, on a tangent lane's first step on the row with the contact
    divided out; for the focus ball, the step's enclosure staying out of
    the radius, or else a lower bound on the squared distance
    (:func:`_ball_bounds`).  So a call of many lanes hands
    its last ones to float steps.  Both kinds of round run a lane's
    operations on the same floats, and a row that the float test or the
    batch product clears has no root, so each lane's arc is the one it has
    alone, bit for bit.

    Every round closes its lanes by one rule: a lane whose start or step's
    end has a norm |s| above _NORM_BOUND raises :class:`BlowUp` at that
    time (so at the end of its first step past the bound, not at the
    crossing, and at t_start for a start beyond it; a start whose
    coefficients overflow raises :class:`StepFailure` first); else the
    step's end is appended to the arc, or replaces its last state if the
    event is at the step's very start, and a lane leaves at its event or at
    the end of the window.  A start is checked once, after the first
    round's steps, and each later start is the end of a checked step; every
    end is checked after all the round's steps, so that a step failure of
    any lane comes first.  A lane's ``steps`` count
    its steps, so a call takes as many rounds as its slowest lane takes
    steps.
    """
    sgn, axes = series.sgn, series.axes
    left, tol = cfg.t_max - sgn * t_start, _TAYLOR_TOL * cfg.abs_tol
    program, args = _program(series, events, tol, left)
    # the first-step contact of each lane with the table's tangent plane
    (contact,) = [ev.contact for ev in events if getattr(ev, "contact", ())] or [(0,) * len(p0)]
    arcs: list = [None] * len(p0)
    # a lane steps in the series' coordinates and records its states in the
    # field's, which a swap of coordinates (Y's) gives both ways
    starts = p0.tolist()
    series_starts = p0[:, axes].tolist() if axes else starts
    live = [_Lane(i, p, [t_start], [q]) for i, (p, q) in enumerate(zip(series_starts, starts))]
    first = True
    while live:
        if len(live) >= _ARRAY_LANES:
            # a lane whose coefficients overflow fails by the round's
            # finiteness check, as it does alone, not by numpy's warning
            with np.errstate(over="ignore", invalid="ignore"):
                stepped = _array_round(live, series, events, tol, left)
        else:
            stepped = _float_round(live, program, args, contact, events)
        running = []
        for lane, (end, p, hit) in zip(live, stepped):
            t = t_start + sgn * end
            state = [p[q] for q in axes] if axes else p
            if first and math.hypot(*lane.states[0]) > _NORM_BOUND:
                raise _blow_up(lane.ts[-1])
            if math.hypot(*state) > _NORM_BOUND:
                raise _blow_up(t)
            if t == lane.ts[-1]:  # a root at the very start of the step
                lane.states[-1] = state
            else:
                lane.ts.append(t)
                lane.states.append(state)
            lane.p, lane.s, lane.steps = p, end, lane.steps + 1
            if hit is None and end < left:
                running.append(lane)
            elif hit is None:
                arcs[lane.index] = _finish(kind, t_start, lane.ts, lane.states, EventKind.HORIZON_REACHED, lane.steps)
            else:
                landing = hit.landing(p)
                landing = [landing[q] for q in axes] if axes else landing
                arcs[lane.index] = _finish(kind, t_start, lane.ts, lane.states, hit.kind, lane.steps, landing)
        live, first = running, False
    return arcs


def _lift_off_ambiguity(x0: float, half_X2h: float, t1: float, cfg: IntegratorConfig):
    """The error of a launch from the fold point x0 that returns to Sigma at
    t1 before its lift-off X2h*t1**2/2 exceeds ``cfg.event_tol``, so that the
    return is below the resolution of the integration (at the cusp); else
    None."""
    lift = half_X2h * t1 * t1
    if lift > cfg.event_tol:
        return None
    return TangencyAmbiguity(
        f"launch at x0 = {x0} returns at t = {t1:.2e}, before it separates "
        f"from Sigma by more than event_tol (X2h*t**2/2 = {lift:.2e})"
    )


def _smooth_lanes(
    piece: Piece, p0: np.ndarray, t_start: float, cfg: IntegratorConfig, params: Parameters, series
) -> list[Arc | PreySwitchError]:
    """The arcs of one smooth piece from the rows of p0 at t_start, the lanes
    of one call of :func:`_taylor_lanes` of ``series``, the piece's
    :func:`~preyswitch.model.smooth_series` in the direction it carries,
    each up to its first event or the end of the window ``cfg.t_max``; a
    lane that meets an error has it, unraised, in place of its arc.

    The caller's event is the switching plane h = x - y (falling through
    zero for X, rising for Y), declared in the series' coordinates as
    s_0 - s_1, which is h for X and -h for Y, whose series runs on
    (y, x, z) (see :func:`~preyswitch.model.smooth_series`); a start
    on its wrong side beyond the event tolerance is a :class:`DomainError`,
    and a SIGMA_CROSSING records its state snapped onto Sigma as
    (xm, xm, z).  An X-lane starting on the fold line short of tau (h and
    z - phi within the event tolerance, and xm within it of 0 or not past
    the cusp by :func:`~preyswitch.model._past_cusp`, so that (xm, z) is not
    labelled BOUNDARY, without classifying the point once more) is tangent
    to Sigma, and watches h/u**2 on its first step instead, valued
    X2h*step**2/2 at u = 0; a start with X2h <= 0, or a return whose
    lift-off X2h*t1**2/2 is not above the event tolerance, is a
    :class:`TangencyAmbiguity`.
    """
    tol = cfg.event_tol
    side = 1.0 if piece is Piece.X else -1.0
    out: list = [None] * len(p0)
    folds = {}  # each fold start's (xm, X2h/2)
    for i, p in enumerate(p0.tolist()):
        h0, xm = p[0] - p[1], 0.5 * (p[0] + p[1])
        if h0 * side < -tol:
            out[i] = DomainError(f"initial state is on the wrong side of Sigma for {piece.value}: h = {h0}")
        elif (
            piece is Piece.X
            and abs(h0) <= tol
            and abs(p[2] - params.phi) <= tol
            and (xm <= tol or not _past_cusp(xm, params, tol))
        ):
            folds[i] = xm, 0.5 * lie_derivatives((xm, p[2]), params)[2]
            if folds[i][1] <= 0.0:
                out[i] = TangencyAmbiguity(
                    f"X does not lift off Sigma at the fold point xm = {xm}: X2h = {2.0 * folds[i][1]:.2e} <= 0"
                )
    lanes = [i for i, err in enumerate(out) if err is None]
    if not lanes:
        return out
    # s_0 - s_1 in the series' coordinates, h = x - y for X and y - x = -h
    # for Y on (y, x, z): both fall through zero; a fold start watches h/u**2
    contact = tuple(2 * (i in folds) for i in lanes)
    sigma = _Plane(EventKind.SIGMA_CROSSING, 0, 1, contact=contact, snap=True)
    kind = ArcKind.SMOOTH_Y if piece is Piece.Y else ArcKind.SMOOTH_X
    # the starts of the lanes that run: all of them, but for a failed start
    starts = p0 if len(lanes) == len(p0) else p0[lanes]
    for i, arc in zip(lanes, _taylor_lanes(kind, series, starts, [sigma], t_start, cfg)):
        if i in folds and arc.terminal_event.kind is EventKind.SIGMA_CROSSING:
            arc = _lift_off_ambiguity(*folds[i], abs(arc.t1 - arc.t0), cfg) or arc
        out[i] = arc
    return out


def _arguments(cfg: IntegratorConfig, params: Parameters) -> None:
    """:class:`DomainError` unless ``cfg`` is an :class:`IntegratorConfig`
    and ``params`` a :class:`~preyswitch.model.Parameters`: the check of
    each public entry point (see :func:`~preyswitch.model._instance`)."""
    _instance(cfg, IntegratorConfig, "cfg")
    _instance(params, Parameters, "params")


def _time_sign(direction: Direction) -> float:
    """The sign of time along an arc run in ``direction``;
    :class:`DomainError` if direction is not a :class:`Direction`, so that
    no arc runs the wrong way."""
    if not isinstance(direction, Direction):
        raise DomainError(f"direction must be a Direction, got {direction!r}")
    return float(direction.value)


def integrate_smooth(
    piece: Piece,
    s0,
    direction: Direction,
    cfg: IntegratorConfig,
    params: Parameters,
) -> Arc:
    """Integrate one smooth piece from t = 0 until the first event or the
    horizon.

    The one-lane case of :func:`_smooth_lanes`, of the piece's series in
    ``direction``, which sets its events and the rule of an X-arc leaving
    the fold; the error it meets is raised.  A start that is not three
    finite coordinates, or has a negative one, a piece that is not a
    :class:`Piece` and a direction that is not a :class:`Direction` raise
    :class:`DomainError`.  The arc is integrated by
    Taylor series of order 24 (:func:`~preyswitch.model.smooth_series`)
    with the step rule of Jorba and Zou (2005) at the local tolerance
    1e-4*abs_tol; each step proves every event absent or stops at the
    first, so no step is capped.  A start, or the end of a step, beyond the
    norm bound raises :class:`BlowUp` at that time.
    """
    _arguments(cfg, params)
    if not isinstance(piece, Piece):
        raise DomainError(f"piece must be a Piece, got {piece!r}")
    values = _finite(s0, "initial state (x, y, z)", 3)
    if min(values) < 0.0:
        raise DomainError(f"initial state must be nonnegative, got {tuple(values)}")
    series = smooth_series(piece, params, _time_sign(direction))
    return _lone(_smooth_lanes(piece, np.array([values]), 0.0, cfg, params, series))


def _leaves_fold(rate) -> bool:
    """Whether the sliding flow with this (x-rate, z-rate) at a point of the
    fold line leaves the sliding region there.  At the cusp the z-rate is
    analytically zero, so a roundoff-scale residue is not taken for an
    outgoing flow: the z-rate must fall below -1e-10*max(1, |x-rate|)."""
    return rate[1] < -1e-10 * max(1.0, abs(rate[0]))


def _sliding_lanes(
    p0: np.ndarray, t_start: float, cfg: IntegratorConfig, params: Parameters, radius: float, series
) -> list[Arc]:
    """The sliding arcs from the rows of p0 at t_start, points (x, z) with
    x > 0 and z >= phi - event_tol, the lanes of one call of
    :func:`_taylor_lanes` of ``series``, the
    :func:`~preyswitch.sliding.sliding_series` in the direction it carries,
    each up to its first event or the end of the window ``cfg.t_max``.

    The caller's events are the fold line z = phi (FOLD_EXIT) and the ball
    of ``radius`` about ``series.focus``, the interior pseudo-equilibrium
    that the series carries (FOCUS_CAPTURE; none at radius 0), and no
    other: x stays positive and z meets the fold line before it could
    reach 0 (see :func:`_taylor_lanes`).  A start within the radius of the
    focus is captured at once, and one on the fold line whose flow
    leaves the region (:func:`_leaves_fold`) exits at once; another fold
    start watches (z - z0)/u on its first step.  A FOLD_EXIT records its
    state snapped to z = phi.
    """
    phi, focus = params.phi, series.focus
    out: list = [None] * len(p0)
    on_fold = set()
    for i, p in enumerate(p0.tolist()):
        if math.hypot(p[0] - focus.x, p[1] - focus.z) <= radius:
            out[i] = _finish(ArcKind.SLIDING, t_start, [t_start], [p], EventKind.FOCUS_CAPTURE, 0)
        elif p[1] - phi <= cfg.event_tol:
            if _leaves_fold(series.rate(p)):
                out[i] = _finish(ArcKind.SLIDING, t_start, [t_start], [[p[0], phi]], EventKind.FOLD_EXIT, 0)
            else:
                on_fold.add(i)
    lanes = [i for i, arc in enumerate(out) if arc is None]
    if not lanes:
        return out
    events = [_Plane(EventKind.FOLD_EXIT, 1, level=phi, contact=tuple(int(i in on_fold) for i in lanes), snap=True)]
    if radius > 0.0:
        events.append(_Ball(EventKind.FOCUS_CAPTURE, (focus.x, focus.z), radius))
    starts = p0 if len(lanes) == len(p0) else p0[lanes]
    for i, arc in zip(lanes, _taylor_lanes(ArcKind.SLIDING, series, starts, events, t_start, cfg)):
        out[i] = arc
    return out


def integrate_sliding(
    p0,
    direction: Direction,
    cfg: IntegratorConfig,
    params: Parameters,
    focus_capture_radius: float = _CAPTURE_RADIUS,
) -> Arc:
    """Integrate the sliding field from a point of the closed sliding region,
    from t = 0.

    The one-lane case of :func:`_sliding_lanes`, of the sliding series in
    ``direction``, which carries the focus.  Terminal events:
    FOLD_EXIT when z falls through phi (the visible fold, where the flow
    hands off to X), FOCUS_CAPTURE when the distance to the interior
    pseudo-equilibrium drops below ``focus_capture_radius`` (a radius of
    zero disables capture), and the horizon (x stays positive, and z
    passes the fold line phi > 0 before it could reach 0); a FOLD_EXIT
    state is snapped to z = phi.  A start, or the end of a step, beyond the
    norm bound raises :class:`BlowUp` at that time.  Starting on the fold
    line is allowed: if the flow points out of the region the arc is an
    immediate fold exit, otherwise the first step watches (z - z0)/u, whose
    value at u = 0 is the initial z-rate times the step.  A start that is
    not two finite coordinates and a direction that is not a
    :class:`Direction` raise :class:`DomainError`.

    The arc is integrated like a smooth one (see :func:`integrate_smooth`),
    by the Taylor series of the closed-form sliding field
    (:func:`~preyswitch.sliding.sliding_series`); the squared distance to
    the focus is a polynomial on each step too.
    """
    _arguments(cfg, params)
    x, z = _finite(p0, "sliding state (x, z)", 2)
    (radius,) = _finite((focus_capture_radius,), "focus_capture_radius", 1)
    if radius < 0.0:
        raise DomainError(f"focus_capture_radius must be finite and nonnegative, got {focus_capture_radius}")
    if x <= 0.0:
        raise DomainError(f"sliding requires x > 0, got x = {x}")
    if z < params.phi - cfg.event_tol:
        raise DomainError(f"sliding requires z >= phi = {params.phi}, got z = {z}")
    series = sliding_series(params, _time_sign(direction))
    return _lone(_sliding_lanes(np.array([[x, z]]), 0.0, cfg, params, radius, series))


def integrate_fold_launches(
    x0s, cfg: IntegratorConfig, params: Parameters
) -> list[tuple[float, float] | PreySwitchError]:
    """First transversal returns (u, v) of X-launches from fold points.

    The launches are X-arcs from (x0, x0, phi), run as the lanes of one call
    of the Taylor loop by the code that runs an X-arc leaving the fold in
    :func:`integrate_smooth` (:func:`_smooth_lanes`): each watches h/u**2 on
    its first step, valued X2h*step**2/2 > 0 at u = 0 for x0 < tau, so the
    tangential start is never taken for a return.  A lane's return is the
    one it has alone, bit for bit.

    Returns one entry per launch, in order: (u, v), or the error that launch
    met, unraised.  DomainError when x0 is not a finite positive number
    (read by :func:`~preyswitch.model._finite`, a string or None included);
    TangencyAmbiguity when x0 >= tau, or when the lift-off excursion
    X2h*t1**2/2 before the return at t1 is not above ``cfg.event_tol``, so
    that the return is below the resolution of the integration (at the
    cusp); NoReturn when a lane does not return to Sigma within
    ``cfg.t_max``.  Along X, y = x0*exp(r2*t) exactly, so each return, whose
    u the integrated y sets with x, must satisfy u = x0*exp(r2*t1) to 1e-10
    relative.
    """
    _arguments(cfg, params)
    tau = params.tau
    x0s = list(x0s)
    out: list = [None] * len(x0s)
    for i, x0 in enumerate(x0s):
        try:
            (x0,) = _finite((x0,), "fold point x0", 1)
        except DomainError as err:
            out[i] = err
            continue
        x0s[i] = x0
        if not x0 > 0.0:
            out[i] = DomainError(f"fold launch requires x0 > 0, got {x0}")
        elif x0 >= tau:
            out[i] = TangencyAmbiguity(
                f"x0 = {x0} >= tau = {tau}: the fold contact is not visible there"
            )
    lanes = [i for i, err in enumerate(out) if err is None]
    p0 = np.reshape([[x0s[i], x0s[i], params.phi] for i in lanes], (-1, 3))
    for i, arc in zip(lanes, _smooth_lanes(Piece.X, p0, 0.0, cfg, params, smooth_series(Piece.X, params))):
        x0 = x0s[i]
        if isinstance(arc, PreySwitchError):
            out[i] = arc
        elif arc.terminal_event.kind is not EventKind.SIGMA_CROSSING:
            out[i] = NoReturn(f"no return to Sigma within t_max = {cfg.t_max} from x0 = {x0}")
        else:
            u, _, v = arc.terminal_event.state.tolist()
            expected = x0 * math.exp(params.r2 * arc.t1)
            out[i] = (u, v)
            if abs(u - expected) > 1e-10 * abs(u):
                out[i] = PreySwitchError(
                    f"return consistency u = x0*exp(r2*t1) violated at x0 = {x0}: "
                    f"u = {u!r}, x0*exp(r2*t1) = {expected!r}"
                )
    return out


def _after_sigma(s, cfg: IntegratorConfig, params: Parameters, sliding) -> ArcKind | None:
    """The arc that follows the state s, on Sigma within the event tolerance.

    SLIDING at a sliding point, or at a fold point (visible fold or cusp)
    that the sliding flow does not leave (:func:`_leaves_fold`, on the rate
    of ``sliding``, the forward :func:`~preyswitch.sliding.sliding_series`);
    None on the origin line, where no arc follows; SMOOTH_X at every other
    point: a crossing point, where X and Y both point into h > 0, a fold
    point that the sliding flow leaves, or a boundary point.
    """
    xm, z = 0.5 * (s[0] + s[1]), s[2]
    label = classify_sigma_point((xm, z), params, tol=cfg.event_tol)
    if label is RegionLabel.ORIGIN_LINE:
        return None
    if label is RegionLabel.SLIDING or (
        label in _FOLD_LABELS and not _leaves_fold(sliding.rate((xm, z)))
    ):
        return ArcKind.SLIDING
    return ArcKind.SMOOTH_X


def integrate_filippov(s0, cfg: IntegratorConfig, params: Parameters) -> Trajectory:
    """Forward Filippov trajectory from s0 as a concatenation of arcs.

    In h > 0 the flow follows X, in h < 0 it follows Y.  Each point of
    Sigma the trajectory starts from or reaches (a start within the event
    tolerance of Sigma, a fold exit, a hit of a smooth arc) is decided once,
    by :func:`_after_sigma`: a sliding arc follows it, which ends at a fold
    exit, or an X-arc, or, on the origin line, nothing.  A hit's label names
    the arc that follows: SIGMA_ENTRY_SLIDING, SIGMA_CROSSING, or
    DOMAIN_EXIT on the origin line, which ends the trajectory; a start or a
    fold exit on the origin line raises :class:`DomainError`.  Terminates at
    the horizon, which is checked first, on domain exit, or on focus
    capture.  Raises :class:`ChatteringGuard` when 50 switching events (hits
    and fold exits) fall within 10 event tolerances of time, and
    :class:`PreySwitchError` past _MAX_ARCS arcs.  A sliding arc is captured
    within _CAPTURE_RADIUS (1e-4) of the pseudo-focus.  A start that is not
    three finite coordinates, or has a negative one, raises
    :class:`DomainError`.

    The start is checked once, and the fields' series (X, Y and sliding,
    which carries the focus) are built once, for the whole trajectory: each
    arc is one lane of :func:`_smooth_lanes` or :func:`_sliding_lanes`, as
    :func:`integrate_smooth` and :func:`integrate_sliding` run it, from the
    end of the arc before it to the end of the window ``cfg.t_max``.
    """
    _arguments(cfg, params)
    s = _finite(s0, "Filippov initial state (x, y, z)", 3)
    if min(s) < 0.0:
        raise DomainError(f"initial state must be nonnegative, got {tuple(s)}")
    initial = np.array(s)
    smooth = {piece: smooth_series(piece, params) for piece in Piece}
    sliding = sliding_series(params)
    arcs: list[Arc] = []
    t = 0.0
    sigma_times: list[float] = []
    h = s[0] - s[1]
    follow = ArcKind.SMOOTH_X if h > 0 else ArcKind.SMOOTH_Y
    if abs(h) <= cfg.event_tol:
        follow = _after_sigma(s, cfg, params, sliding)

    while len(arcs) < _MAX_ARCS:
        if cfg.t_max - t <= cfg.event_tol:
            break
        if follow is None:
            raise DomainError("trajectory reached the origin line of Sigma")
        if follow is ArcKind.SLIDING:
            p = np.array([[0.5 * (s[0] + s[1]), s[2]]])
            arc = _lone(_sliding_lanes(p, t, cfg, params, _CAPTURE_RADIUS, sliding))
        else:
            piece = Piece.X if follow is ArcKind.SMOOTH_X else Piece.Y
            arc = _lone(_smooth_lanes(piece, np.array([s]), t, cfg, params, smooth[piece]))
        ev = arc.terminal_event
        if ev.kind not in (EventKind.SIGMA_CROSSING, EventKind.FOLD_EXIT):
            arcs.append(arc)
            break

        sigma_times.append(ev.t)
        if len(sigma_times) >= 50 and ev.t - sigma_times[-50] <= 10.0 * cfg.event_tol:
            raise ChatteringGuard(
                f"50 switching events within {10.0 * cfg.event_tol} time units near t = {ev.t}"
            )
        # a hit is (xm, xm, z) and a fold exit (x, phi): both lie on Sigma
        x, *_, z = ev.state.tolist()
        s, t = [x, x, z], ev.t
        follow = _after_sigma(s, cfg, params, sliding)
        if ev.kind is EventKind.SIGMA_CROSSING and follow is not ArcKind.SMOOTH_X:
            kind = EventKind.SIGMA_ENTRY_SLIDING if follow is ArcKind.SLIDING else EventKind.DOMAIN_EXIT
            arc = Arc(arc.kind, arc.t0, arc.t1, arc.ts, arc.states, EventRecord(kind, ev.t, ev.state), arc.steps)
        arcs.append(arc)
        if arc.terminal_event.kind is EventKind.DOMAIN_EXIT:
            break
    else:
        raise PreySwitchError(f"trajectory exceeded {_MAX_ARCS} arcs")

    return Trajectory(initial=initial, arcs=tuple(arcs))


def lv_period(x0: float, cfg: IntegratorConfig, params: Parameters) -> float:
    """Period of the planar Lotka-Volterra orbit through (x0, r1).

    The orbit is X's from (x0, 0, r1), on the invariant plane y = 0, where
    y' = r2 y keeps y = 0 exactly.  It leaves the section z = r1 downward,
    recrosses it upward on the far side of the center, and the next downward
    crossing closes the loop.  Two arcs of the Taylor core (see
    :func:`integrate_smooth`) watch r1 - z, then z - r1, each divided by u on
    its first step, which starts on the section, and nothing else: the
    orbit stays in the open quadrant.  Raises :class:`NoReturn` if either
    crossing is missing within the horizon.
    """
    _arguments(cfg, params)
    (x0,) = _finite((x0,), "lv_period x0", 1)
    tau = params.tau
    if not 0.0 < x0 < tau:
        raise DomainError(f"lv_period requires 0 < x0 < tau = {tau}, got {x0}")
    series = smooth_series(Piece.X, params)
    state, t = np.array([x0, 0.0, params.r1]), 0.0
    for side, crossing in ((-1.0, "upward recrossing"), (1.0, "closing crossing")):
        # the section is the arc's only event, so it reuses SIGMA_CROSSING
        section = _Plane(EventKind.SIGMA_CROSSING, 2, level=params.r1, side=side, contact=(1,))
        (arc,) = _taylor_lanes(ArcKind.SMOOTH_X, series, state[None], [section], t, cfg)
        if arc.terminal_event.kind is EventKind.HORIZON_REACHED:
            raise NoReturn(f"no {crossing} of z = r1 within t_max = {cfg.t_max}")
        state, t = arc.terminal_event.state, arc.t1
    return t


def trajectory_rows(traj: Trajectory) -> list[tuple[float, float, float, float, str, int]]:
    """Flatten a trajectory to (t, x, y, z, arc_kind, arc_index) rows.

    Sliding samples are embedded in Sigma as (x, x, z).
    """
    rows = []
    for i, arc in enumerate(traj.arcs):
        for t, state in arc.samples:
            if arc.planar:
                row = (t, float(state[0]), float(state[0]), float(state[1]), arc.kind.value, i)
            else:
                row = (t, float(state[0]), float(state[1]), float(state[2]), arc.kind.value, i)
            rows.append(row)
    return rows


def events_payload(traj: Trajectory) -> list[dict]:
    """Event log of a trajectory as JSON-ready dictionaries."""
    return [
        {"kind": ev.kind.value, "t": ev.t, "state": [float(v) for v in ev.state]}
        for ev in traj.events()
    ]
