"""Event-detecting integration and Filippov concatenation.

Every integration runs by Taylor series.  Each field of the model is
quadratic, so each step expands the solution to order 24 by the
Cauchy-product recurrence of its quadratic form, compiled once
(:func:`~preyswitch.model.quadratic_series`), takes
the step of Jorba and Zou (2005) at the local tolerance 1e-4*abs_tol, and on
the step's polynomials either excludes each event or locates the first, by
an in-house port of Brent's method (:func:`_brent`), so no scipy is loaded.
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
floats (:func:`_float_step`), by one generated function of its form for
the whole step (``series.step``), and forms an event's polynomial only
when a float test on the step's own coefficients cannot clear the step: a
plane's signed lower bound on its Bernstein coefficients, on a tangent
lane's first step with the contact divided out; the focus ball's
enclosure, or else a signed lower bound on the squared distance.  Either
way each lane's arc is the one it has alone, bit for bit.  Only an explicit
``max_step`` caps any step.
Every lane ends at the first event of one table: the caller's events,
declared as data (the switching plane h = x - y for a smooth arc; the fold
line and the focus ball for a sliding arc), a DOMAIN_EXIT for each
coordinate that starts above the event tolerance (only x for a sliding
arc, whose z meets the fold line first), and the norm bound, which raises
:class:`BlowUp`; both kinds of round form each event's polynomial from the
same data.  A start that is not finite coordinates of
the right number, or has a negative one, raises :class:`DomainError`.
The Filippov concatenator stitches smooth and sliding arcs per the
convex-combination convention: trajectories entering the sliding region
follow the sliding field until the visible fold hands them back to X.  It
checks its start and builds the fields' series and the focus once a
trajectory, and runs each arc as one lane of :func:`_smooth_lanes` or
:func:`_sliding_lanes`; an arc that ends on Sigma or at the fold line
records its end state put onto it when the record is made.

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

import math
from dataclasses import dataclass, replace
from enum import Enum
from operator import mul, sub

import numpy as np

from .errors import (
    BlowUp,
    ChatteringGuard,
    DomainError,
    NoReturn,
    PreySwitchError,
    StepFailure,
    TangencyAmbiguity,
)
from .model import (
    Parameters,
    Piece,
    RegionLabel,
    SigmaState,
    _finite,
    _past_cusp,
    classify_sigma_point,
    lie_derivatives,
    smooth_series,
)
from .sliding import pseudo_equilibria, sliding_series


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
# certificate's capture arc, close to the oracle bound 1e-11)
_TAYLOR_ORDER = 24
_TAYLOR_TOL = 1e-4
_MAX_ARCS = 10_000
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
    DOMAIN_EXIT = "DomainExit"  # a coordinate reaches zero, or a hit on the origin line; nothing follows
    HORIZON_REACHED = "HorizonReached"  # t_max; nothing follows


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and horizon for all integrations.

    ``abs_tol`` sets the local tolerance 1e-4*abs_tol of every Taylor step
    of the one step loop, arcs and fold launches alike (see
    :func:`_taylor_lanes`), and :meth:`halved` halves it.  ``max_step`` of
    None leaves the steps uncapped; a number caps every step of every
    integration alike.  All fields must be finite and positive, and
    ``event_tol`` may not exceed 100 * ``abs_tol``.
    """

    abs_tol: float = 1e-12
    event_tol: float = 1e-12
    max_step: float | None = None
    t_max: float = 400.0
    norm_bound: float = 1e6

    def __post_init__(self):
        for name in ("abs_tol", "event_tol", "max_step", "t_max", "norm_bound"):
            value = getattr(self, name)
            if name == "max_step" and value is None:
                continue
            if not 0.0 < value < math.inf:  # false for NaN too
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


def characteristic_time(params: Parameters) -> float:
    """Linearized period of the planar center, 2*pi/sqrt(m*r1)."""
    return 2.0 * math.pi / math.sqrt(params.m * params.r1)


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
# float step of a fold launch takes about 24-27 us a lane, its generated
# step function about 20 us of it, and forms no event polynomial that a
# float test clears, while an array round takes about 270 us and 4 us more
# a lane, 320 us for 16 lanes, so a round costs the same both ways at about
# 12 lanes; yet in the benchmark's connection and sweep runs (seed 1, 24
# alternating repetitions of each value), none of 8, 12 and 24 was
# measurably faster than 16 on both: 8 and 12 within 1.3% in the median,
# faster in 9 to 14 of 24, and 24 4% faster on connection (12 of 24) but
# 1.5% slower on sweep (8 of 24) (2-vCPU host, Python 3.11, numpy 2.4).
# It must stay at 2 or more: numpy adds the Cauchy product of one lane
# alone pairwise, so an array round of one lane would not equal its float
# step bit for bit
_ARRAY_LANES = 16


def _horner(coefficients: list[float], u: float) -> float:
    value = 0.0
    for c in reversed(coefficients):
        value = value * u + c
    return value


def _brent(coefficients: list[float], lo: float, hi: float) -> float:
    """The root in [lo, hi] of the polynomial with these coefficients, by
    Brent's method to 4 eps.

    A port of scipy's ``brentq.c`` at ``xtol = rtol = 4 eps``: the same
    iteration on the same floats, so it returns the same root.  p(lo) and
    p(hi) must differ in sign unless one is zero.  Raises
    :class:`StepFailure` if 100 iterations do not converge.
    """
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _horner(coefficients, xpre), _horner(coefficients, xcur)
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
        fcur = _horner(coefficients, xcur)
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
    coefficients = a.tolist()
    stack = [(0.0, 1.0, b)]
    while stack:
        lo, hi, b = stack.pop()
        if b[0] >= 0.0 and b[1:].min() > 0.0:
            continue
        # every interval left of lo is root-free, so p(lo) < 0 is roundoff
        # of a root at lo
        if b[0] < 0.0:
            return lo
        if hi - lo <= _ROOT_TOL:
            return hi
        positive = b > 0.0
        if b[0] > 0.0 and b[-1] <= 0.0 and np.count_nonzero(positive[1:] != positive[:-1]) == 1:
            p_lo, p_hi = _horner(coefficients, lo), _horner(coefficients, hi)
            if p_lo <= 0.0:
                return lo
            if p_hi <= 0.0:
                return _brent(coefficients, lo, hi)
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, _RIGHT_HALF @ b))
        stack.append((lo, mid, _LEFT_HALF @ b))
    return None


def _step_end(norms: list[float], s: float, cfg: IntegratorConfig) -> float:
    """The end of Jorba and Zou's step from time s into an integration.

    The step is h = min over k = n-1, n of (tol/|c_k|)**(1/k), with
    tol = _TAYLOR_TOL*abs_tol and ``norms`` the largest |c_{n-1}| and |c_n|
    of the coordinates (a zero one sets no bound), capped by
    ``cfg.max_step`` if set and clamped to ``cfg.t_max``.  The step taken
    is the difference of two representable times, no longer than the cap.
    """
    cap = math.inf if cfg.max_step is None else cfg.max_step
    h = cap
    for k, norm in zip((_TAYLOR_ORDER - 1, _TAYLOR_ORDER), norms):
        if norm > 0.0:
            h = min(h, (_TAYLOR_TOL * cfg.abs_tol / norm) ** (1.0 / k))
    if h >= cfg.t_max - s:
        return cfg.t_max
    s_end = s + h
    if s_end - s > cap:
        s_end = math.nextafter(s_end, s)
    if not s_end > s:
        raise StepFailure(f"Taylor step underflow at {s} after the start of an integration")
    return s_end


def _divide_out(g: np.ndarray, k: int) -> np.ndarray:
    """g/u**k on every lane (row) of g, whose k lowest orders are the
    contact of a tangential start, zero up to roundoff."""
    return np.concatenate((g[:, k:], np.zeros((len(g), k))), axis=1)


def _sum_of_squares(v: np.ndarray) -> np.ndarray:
    """The series of the sum of squares of the coordinates of v, shape
    (lanes, dim, order + 1), to their order, on every lane."""
    return np.array([sum(map(np.convolve, lane, lane)) for lane in v])[:, : v.shape[2]]


# An event is data, and both rounds of the step loop form its rows from it:
# ``clears(p, a, spread, first, lane)`` is a float step's test, True only
# if the step from the state p, with coefficients a (a list per coordinate),
# each coordinate i of which moves by at most spread[i], has no root;
# ``rows(a, first, lanes)`` is the polynomial of
# each lane of a, shape (lanes, dim, order + 1), falling through zero, or
# None if no lane can have a root; ``lanes`` are the lanes' indices in the
# call; ``landing(p)`` is the state that an arc ending at the event at p
# records (the norm bound raises instead).  The caller's rows of the first
# step are clamped at 0 at u = 0, so that a start within roundoff of an
# event surface is not an event.


@dataclass(frozen=True)
class _Plane:
    """The event side*(s_i - s_j - level), or side*(s_i - level) if j is
    None, with side = 1 or -1.  Lane l starts tangent to it if
    contact[l] > 0, and on its first step watches the row divided by
    u**contact[l] instead.  If ``snap``, an arc that ends at it records its
    end state put onto the plane (:meth:`landing`)."""

    kind: EventKind
    i: int
    j: int | None = None
    level: float = 0.0
    side: float = 1.0
    contact: tuple[int, ...] = ()
    snap: bool = False

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

    def clears(self, p: list[float], a: list[list[float]], spread: list[float], first: bool, lane: int) -> bool:
        """Whether the step's row g has no root, by two tests on the step's
        own coefficients: the spread test g_0 > sum_(k>=1) |g_k|, and the
        signed test g_0 + sum_(k>=1) min(g_k, 0) > 1e-13*sum_k |g_k|.  On a
        tangent lane's first step only the signed test runs, on the row as
        :meth:`rows` forms it: the contact divided out, g_k -> g_(k+c), and
        its first coefficient clamped at 0.  A row either clears is one that
        :func:`_first_root` clears at its first test."""
        c = self.contact[lane] if first and self.contact else 0
        if not c:
            # the spread test: g_0 > sum_(k>=1) |g_k|, bounded by spread_i +
            # spread_j with a margin for the rounding of the row and of its
            # Bernstein coefficients
            g0, bound = p[self.i], spread[self.i]
            if self.j is not None:
                g0 -= p[self.j]
                bound += spread[self.j]
            g0 = self.side * (g0 - self.level)
            if g0 > (1.0 + 1e-9) * bound:
                return True
        d = a[self.i][1:] if self.j is None else list(map(sub, a[self.i][1:], a[self.j][1:]))
        if c:
            # a tangent lane's first step: the row as rows forms it, g_k =
            # side*d_(k+c), its first coefficient clamped at 0
            g0, d = max(self.side * d[c - 1], 0.0), d[c:]
        # the signed test, on the row's own coefficients g_k = side*d_k:
        # every Bernstein coefficient sum_k C(j,k)/C(n,k) g_k is at least
        # g_0 + sum_(k>=1) min(g_k, 0), whose sum of the min is
        # (side*sum d_k - sum |d_k|)/2; clear it by the array round's
        # margin 1e-13*sum |g_k|, far above the rounding of either sum (under
        # 50 eps*sum |g_k|), so that the row is one that _first_root clears
        # at its first test
        size = sum(map(abs, d))
        return g0 + (self.side * sum(d) - size) * 0.5 > 1e-13 * (abs(g0) + size)

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
    |s_0 - centre| - sum over coordinates and k >= 1 of |a_k|, with a
    margin of 1e-6 of the enclosure's size for the rounding of the row.  A
    float step whose enclosure comes that near may still be cleared by a
    signed bound on the squared distance (:meth:`clears`), which the array
    round does not take."""

    kind: EventKind
    centre: tuple[float, ...]
    radius: float

    def _far(self, dist, spread):
        return dist - spread > self.radius + 1e-6 * (dist + spread)

    def landing(self, p: list[float]) -> list[float]:
        return p

    def clears(self, p: list[float], a: list[list[float]], spread: list[float], first: bool, lane: int) -> bool:
        """Whether the step stays out of the ball: its enclosure does, or
        else, with d = s_0 - centre, the signed bound
        |s(u) - centre|**2 >= |d|**2 + 2 sum_(k>=1) min(d.a_k, 0) on [0, 1]
        exceeds radius**2 by 1e-9 of the size of its terms and of
        (sum spread)**2.  That margin lies far above the rounding of the row
        that :meth:`rows` forms (under 100 eps of the same size) and the
        orders of |s(u) - s_0|**2 past the series' own, which the row drops
        and the step's tolerance keeps near 1e-16, so that
        :func:`_first_root` finds no root in a row it clears."""
        if self._far(math.dist(p, self.centre), sum(spread)):
            return True
        # |s(u) - centre|**2 = |d|**2 + 2 sum_(k>=1) u**k d.a_k +
        # |s(u) - s_0|**2, and the last term is not negative
        d = list(map(sub, p, self.centre))
        dots = [sum(map(mul, d, ak)) for ak in zip(*(col[1:] for col in a))]
        dist2, r2 = sum(map(mul, d, d)), self.radius * self.radius
        low = dist2 - r2 + 2.0 * sum(v for v in dots if v < 0.0)
        return low > 1e-9 * (dist2 + r2 + 2.0 * sum(map(abs, dots)) + sum(spread) ** 2)

    def rows(self, a: np.ndarray, first: bool, lanes: list[int]) -> np.ndarray | None:
        offset = a - np.array(self.centre)[:, None] * _ONE
        dist = np.sqrt((offset[:, :, 0] ** 2).sum(axis=1))
        near = ~self._far(dist, np.abs(offset[:, :, 1:]).sum(axis=(1, 2)))
        if not near.any():
            return None
        g = np.tile(_ONE, (len(a), 1))  # the constant 1: no root
        g[near] = _sum_of_squares(offset[near])
        g[near, 0] -= self.radius * self.radius
        if first:
            g[:, 0] = np.maximum(g[:, 0], 0.0)
        return g


@dataclass(frozen=True)
class _NormBound:
    """1 - |s|**2/bound**2, whose root raises :class:`BlowUp` (kind None).
    Its row is formed only when the step's enclosure, the sum of |a_k| over
    every coordinate, reaches the bound (in the array round, that of every
    lane together), and is never clamped, so a start beyond the bound fails
    at once."""

    bound: float
    kind: None = None

    def clears(self, p: list[float], a: list[list[float]], spread: list[float], first: bool, lane: int) -> bool:
        return sum(map(abs, p)) + sum(spread) < self.bound

    def rows(self, a: np.ndarray, first: bool, lanes: list[int]) -> np.ndarray | None:
        if np.abs(a).sum() < self.bound:
            return None
        q = -_sum_of_squares(a / self.bound)
        q[:, 0] += 1.0
        return q


def _finish(kind: ArcKind, t_start: float, ts: list, states: list, event: EventKind, steps: int, end=None) -> Arc:
    """The arc of these times and states, ending at ``event``, whose record
    holds the state ``end``, or the arc's last state if None."""
    ts_a, states_a = np.array(ts, dtype=float), np.array(states)
    record = EventRecord(event, float(ts_a[-1]), states_a[-1].copy() if end is None else np.array(end))
    return Arc(kind, t_start, float(ts_a[-1]), ts_a, states_a, record, steps)


def _overflow(t: float, state) -> StepFailure:
    return StepFailure(f"Taylor coefficients overflow at t = {t}, state {np.asarray(state)}")


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


def _float_step(lane: _Lane, series, events: list, cfg: IntegratorConfig):
    """One Taylor step of a lane on Python floats: its end, its end state,
    and the event it ends at, or None.

    One generated function of the lane's form takes the whole step
    (``series.step``, :func:`~preyswitch.model._taylor_step`): the series,
    the step's end by :func:`_step_end`, the coefficients a_k = c_k h**k,
    their spreads and the end state, by the array round's operations on
    the same floats.  Only the event tests stay here: an event's row is
    formed, as an array, only when its float test fails, and then goes to
    :func:`_first_root`.
    """
    p, s, first = lane.p, lane.s, lane.steps == 0
    step = series.step(p, _TAYLOR_ORDER, _step_end, s, cfg)
    if step is None:
        raise _overflow(lane.ts[-1], p)
    end, h, a, spread, state = step
    hit, lane_a = None, None
    for ev in events:
        if ev.clears(p, a, spread, first, lane.index):
            continue
        if lane_a is None:
            lane_a = np.array([a])
        g = ev.rows(lane_a, first, [lane.index])
        if g is None:
            continue
        u = _first_root(g[0], _TO_BERNSTEIN @ g[0])
        if u is not None and (hit is None or u < hit[1]):
            hit = ev, u
    if hit is None:
        return end, state, None
    ev, u = hit
    return s + u * h, [_horner(col, u) for col in a], ev


def _array_round(live: list[_Lane], series, events: list, cfg: IntegratorConfig):
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
    ends = [_step_end(pair, lane.s, cfg) for pair, lane in zip(norms, live)]
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
    for j, (ev, u) in hits.items():
        out[j] = live[j].s + u * h[j], [_horner(v, u) for v in a[j].tolist()], ev
    return out


def _taylor_lanes(
    kind: ArcKind,
    series,
    p0: np.ndarray,
    events: list,
    watch,
    sgn: float,
    t_start: float,
    cfg: IntegratorConfig,
) -> list[Arc]:
    """The arcs of ``series`` from the rows of p0 by Taylor steps, each up to
    its first event or the horizon.

    Each step expands a lane to order _TAYLOR_ORDER and takes Jorba and
    Zou's step (:func:`_step_end`).  In u = s/h on [0, 1] the event
    functions are polynomials in the step's coefficients a_k = c_k h**k, all
    falling through zero: the caller's ``events``, declared as data (a
    :class:`_Plane` or a :class:`_Ball`); coordinate i for each i in
    ``watch`` (DOMAIN_EXIT); and the norm bound (:class:`_NormBound`), which
    raises :class:`BlowUp`.  Each step proves that none has a root in
    (0, 1] or ends its lane at the first root, by :func:`_first_root`.

    The lanes advance in rounds, each lane by its own step.  While
    _ARRAY_LANES lanes or more run, a round steps them together on numpy
    arrays (:func:`_array_round`); below that, each running lane takes its
    step on Python floats (:func:`_float_step`), forming an event's row
    only when a float test cannot clear it: for a plane,
    g_0 > sum_(k>=1) |g_k| by the spreads, or else
    g_0 + sum_(k>=1) min(g_k, 0) > 1e-13*sum_k |g_k|, the array round's
    margin, on a tangent lane's first step on the row with the contact
    divided out; for the focus ball, the step's enclosure staying out of
    the radius, or else the signed bound of :meth:`_Ball.clears`; for the
    norm bound, the enclosure staying inside it.  So a call of many lanes
    hands its last ones to float steps.
    Both kinds of round run a lane's operations on the same floats, and a
    row that the float test or the batch product clears has no root, so
    each lane's arc is the one it has alone, bit for bit.  Every round
    closes its lanes by one rule: the step's end is appended to the arc, or
    replaces its last state if the event is at the step's very start, and
    a lane leaves at its event or at ``cfg.t_max``.  A lane's ``steps``
    count its steps, so a call takes as many rounds as its slowest lane
    takes steps.
    """
    events = [
        *events,
        *(_Plane(EventKind.DOMAIN_EXIT, i) for i in watch),
        _NormBound(cfg.norm_bound),
    ]
    arcs: list = [None] * len(p0)
    live = [_Lane(i, p, [t_start], [p]) for i, p in enumerate(p0.tolist())]
    while live:
        if len(live) >= _ARRAY_LANES:
            # a lane whose coefficients overflow fails by the round's
            # finiteness check, as it does alone, not by numpy's warning
            with np.errstate(over="ignore", invalid="ignore"):
                stepped = _array_round(live, series, events, cfg)
        else:
            stepped = [_float_step(lane, series, events, cfg) for lane in live]
        running = []
        for lane, (end, p, hit) in zip(live, stepped):
            t = t_start + sgn * end
            if hit is not None and hit.kind is None:
                raise BlowUp(f"state norm exceeded {cfg.norm_bound} at t = {t}")
            if t == lane.ts[-1]:  # a root at the very start of the step
                lane.states[-1] = p
            else:
                lane.ts.append(t)
                lane.states.append(p)
            lane.p, lane.s, lane.steps = p, end, lane.steps + 1
            if hit is None and end < cfg.t_max:
                running.append(lane)
            elif hit is None:
                arcs[lane.index] = _finish(kind, t_start, lane.ts, lane.states, EventKind.HORIZON_REACHED, lane.steps)
            else:
                arcs[lane.index] = _finish(kind, t_start, lane.ts, lane.states, hit.kind, lane.steps, hit.landing(p))
        live = running
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
    piece: Piece, p0: np.ndarray, sgn: float, t_start: float, cfg: IntegratorConfig, params: Parameters, series
) -> list[Arc | PreySwitchError]:
    """The arcs of one smooth piece from the rows of p0, the lanes of one call
    of :func:`_taylor_lanes` of ``series``, the piece's
    :func:`~preyswitch.model.smooth_series` times ``sgn``, each up to its
    first event or the horizon; a lane that meets an error has it, unraised,
    in place of its arc.

    The event table adds the switching plane h = x - y (falling through
    zero for X, rising for Y) to the domain and norm-bound events; a start
    on its wrong side beyond the event tolerance is a :class:`DomainError`,
    and a SIGMA_CROSSING records its state snapped onto Sigma as
    (xm, xm, z).  An X-lane starting on the fold line short of tau (h and
    z - phi within the event tolerance, and xm within it of 0 or not past
    the cusp by :func:`~preyswitch.model._past_cusp`, so that (xm, z) is not
    labelled BOUNDARY, without classifying the point once more) is tangent
    to Sigma, and watches h/u**2 on its first step instead, valued
    X2h*step**2/2 at u = 0; a start with X2h <= 0, or a return whose
    lift-off X2h*t1**2/2 is not above the event tolerance, is a
    :class:`TangencyAmbiguity`.  A coordinate at numerical zero lies on an
    invariant plane and stays there, so DOMAIN_EXIT watches only the
    coordinates that start above the event tolerance in every lane.
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
            if folds[i][1] <= 0.0:  # no lift-off: the return is immediate
                out[i] = _lift_off_ambiguity(*folds[i], 0.0, cfg)
    lanes = [i for i, err in enumerate(out) if err is None]
    if not lanes:
        return out
    # h for X, -h for Y: both fall through zero; a fold start watches h/u**2
    contact = tuple(2 * (i in folds) for i in lanes)
    sigma = _Plane(EventKind.SIGMA_CROSSING, 0, 1, side=side, contact=contact, snap=True)
    start = p0[lanes]
    watch = [k for k, v in enumerate(start.min(axis=0).tolist()) if v > tol]
    kind = ArcKind.SMOOTH_Y if piece is Piece.Y else ArcKind.SMOOTH_X
    for i, arc in zip(lanes, _taylor_lanes(kind, series, start, [sigma], watch, sgn, t_start, cfg)):
        if i in folds and arc.terminal_event.kind is EventKind.SIGMA_CROSSING:
            arc = _lift_off_ambiguity(*folds[i], abs(arc.t1 - arc.t0), cfg) or arc
        out[i] = arc
    return out


def _time_sign(direction: Direction, t_start: float) -> float:
    """The sign of time along an arc run in ``direction`` from ``t_start``;
    :class:`DomainError` if direction is not a :class:`Direction` or
    t_start is not finite, so that no arc runs the wrong way or has times
    of NaN."""
    if not isinstance(direction, Direction):
        raise DomainError(f"direction must be a Direction, got {direction!r}")
    if not math.isfinite(t_start):
        raise DomainError(f"t_start must be finite, got {t_start}")
    return float(direction.value)


def integrate_smooth(
    piece: Piece,
    s0,
    direction: Direction,
    cfg: IntegratorConfig,
    params: Parameters,
    t_start: float = 0.0,
) -> Arc:
    """Integrate one smooth piece until the first event or the horizon.

    The one-lane case of :func:`_smooth_lanes`, which sets its events and
    the rule of an X-arc leaving the fold; the error it meets is raised.  A
    start that is not three finite coordinates, or has a negative one, a
    piece that is not a :class:`Piece`, a direction that is not a
    :class:`Direction` and a ``t_start`` that is not finite raise
    :class:`DomainError`.  The arc is integrated by Taylor series of order
    24 (:func:`~preyswitch.model.smooth_series`) with the step rule of Jorba
    and Zou (2005) at the local tolerance 1e-4*abs_tol; each step proves
    every event absent or stops at the first, so only an explicit
    ``cfg.max_step`` caps the steps.
    """
    if not isinstance(piece, Piece):
        raise DomainError(f"piece must be a Piece, got {piece!r}")
    values = _finite(s0, "initial state (x, y, z)", 3)
    if min(values) < 0.0:
        raise DomainError(f"initial state must be nonnegative, got {tuple(values)}")
    sgn = _time_sign(direction, t_start)
    (arc,) = _smooth_lanes(piece, np.array([values]), sgn, t_start, cfg, params, smooth_series(piece, params, sgn))
    if isinstance(arc, PreySwitchError):
        raise arc
    return arc


def _leaves_fold(rate) -> bool:
    """Whether the sliding flow with this (x-rate, z-rate) at a point of the
    fold line leaves the sliding region there.  At the cusp the z-rate is
    analytically zero, so a roundoff-scale residue is not taken for an
    outgoing flow: the z-rate must fall below -1e-10*max(1, |x-rate|)."""
    return rate[1] < -1e-10 * max(1.0, abs(rate[0]))


def _sliding_lanes(
    p0: np.ndarray,
    sgn: float,
    t_start: float,
    cfg: IntegratorConfig,
    params: Parameters,
    radius: float,
    series,
    focus: SigmaState,
) -> list[Arc]:
    """The sliding arcs from the rows of p0, points (x, z) with x > 0 and
    z >= phi - event_tol, the lanes of one call of :func:`_taylor_lanes` of
    ``series``, the :func:`~preyswitch.sliding.sliding_series` times
    ``sgn``, each up to its first event or the horizon.

    The events are the fold line z = phi (FOLD_EXIT), the ball of
    ``radius`` about ``focus``, the interior pseudo-equilibrium
    (FOCUS_CAPTURE; none at radius 0) and, if every lane starts with x
    above the event tolerance, x (DOMAIN_EXIT).  A start within the radius
    of the focus is captured at once, and one on the fold line whose flow
    leaves the region (:func:`_leaves_fold`) exits at once; another fold
    start watches (z - z0)/u on its first step.  A FOLD_EXIT records its
    state snapped to z = phi.
    """
    phi = params.phi
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
    start = p0[lanes]
    watch = [0] if start[:, 0].min() > cfg.event_tol else []
    for i, arc in zip(lanes, _taylor_lanes(ArcKind.SLIDING, series, start, events, watch, sgn, t_start, cfg)):
        out[i] = arc
    return out


def integrate_sliding(
    p0,
    direction: Direction,
    cfg: IntegratorConfig,
    params: Parameters,
    focus_capture_radius: float = 1e-4,
    t_start: float = 0.0,
) -> Arc:
    """Integrate the sliding field from a point of the closed sliding region.

    The one-lane case of :func:`_sliding_lanes`.  Terminal events:
    FOLD_EXIT when z falls through phi (the visible fold, where the flow
    hands off to X), FOCUS_CAPTURE when the distance to the interior
    pseudo-equilibrium drops below ``focus_capture_radius`` (a radius of
    zero disables capture), a DOMAIN_EXIT when x falls through zero if it
    starts above the event tolerance (z cannot leave before it passes the
    fold line phi > 0), the norm bound, which raises :class:`BlowUp`, and
    the horizon; a FOLD_EXIT state is snapped to z = phi.  Starting on the
    fold line is allowed: if the flow points out of the region the arc is
    an immediate fold exit, otherwise the first step watches (z - z0)/u,
    whose value at u = 0 is the initial z-rate times the step.  A start
    that is not two finite coordinates, a direction that is not a
    :class:`Direction` and a ``t_start`` that is not finite raise
    :class:`DomainError`.

    The arc is integrated like a smooth one (see :func:`integrate_smooth`),
    by the Taylor series of the closed-form sliding field
    (:func:`~preyswitch.sliding.sliding_series`); the squared distance to
    the focus is a polynomial on each step too.
    """
    x, z = _finite(p0, "sliding state (x, z)", 2)
    if not 0.0 <= focus_capture_radius < math.inf:  # false for NaN too
        raise DomainError(f"focus_capture_radius must be finite and nonnegative, got {focus_capture_radius}")
    if x <= 0.0:
        raise DomainError(f"sliding requires x > 0, got x = {x}")
    if z < params.phi - cfg.event_tol:
        raise DomainError(f"sliding requires z >= phi = {params.phi}, got z = {z}")
    sgn = _time_sign(direction, t_start)
    _, focus = pseudo_equilibria(params)
    series = sliding_series(params, sgn)
    (arc,) = _sliding_lanes(np.array([[x, z]]), sgn, t_start, cfg, params, focus_capture_radius, series, focus)
    return arc


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
    met, unraised.  DomainError when x0 is not positive (NaN included);
    TangencyAmbiguity when x0 >= tau, or when the lift-off excursion
    X2h*t1**2/2 before the return at t1 is not above ``cfg.event_tol``, so
    that the return is below the resolution of the integration (at the
    cusp); NoReturn when a lane does not return to Sigma within
    ``cfg.t_max``.  Along X, y = x0*exp(r2*t) exactly, so each return, whose
    u the integrated y sets with x, must satisfy u = x0*exp(r2*t1) to 1e-10
    relative.
    """
    x0s = [float(x0) for x0 in x0s]
    tau = params.tau
    out: list = [None] * len(x0s)
    for i, x0 in enumerate(x0s):
        if not x0 > 0.0:
            out[i] = DomainError(f"fold launch requires x0 > 0, got {x0}")
        elif x0 >= tau:
            out[i] = TangencyAmbiguity(
                f"x0 = {x0} >= tau = {tau}: the fold contact is not visible there"
            )
    lanes = [i for i, err in enumerate(out) if err is None]
    p0 = np.reshape([[x0s[i], x0s[i], params.phi] for i in lanes], (-1, 3))
    for i, arc in zip(lanes, _smooth_lanes(Piece.X, p0, 1.0, 0.0, cfg, params, smooth_series(Piece.X, params))):
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
    within 1e-4 of the pseudo-focus.  A start that is not three finite
    coordinates, or has a negative one, raises :class:`DomainError`.

    The start is checked once, and the fields' series (X, Y and sliding)
    and the focus are built once, for the whole trajectory: each arc is one
    lane of :func:`_smooth_lanes` or :func:`_sliding_lanes`, as
    :func:`integrate_smooth` and :func:`integrate_sliding` run it.
    """
    values = _finite(s0, "Filippov initial state (x, y, z)", 3)
    if min(values) < 0.0:
        raise DomainError(f"initial state must be nonnegative, got {tuple(values)}")
    s = np.array(values)
    initial = s.copy()
    smooth = {piece: smooth_series(piece, params) for piece in Piece}
    sliding = sliding_series(params)
    _, focus = pseudo_equilibria(params)
    arcs: list[Arc] = []
    t = 0.0
    sigma_times: list[float] = []
    h = s[0] - s[1]
    follow = ArcKind.SMOOTH_X if h > 0 else ArcKind.SMOOTH_Y
    if abs(h) <= cfg.event_tol:
        follow = _after_sigma(s, cfg, params, sliding)

    while len(arcs) < _MAX_ARCS:
        remaining = cfg.t_max - t
        if remaining <= cfg.event_tol:
            break
        if follow is None:
            raise DomainError("trajectory reached the origin line of Sigma")
        sub = replace(cfg, t_max=remaining)
        if follow is ArcKind.SLIDING:
            p = np.array([[0.5 * (s[0] + s[1]), s[2]]])
            (arc,) = _sliding_lanes(p, 1.0, t, sub, params, 1e-4, sliding, focus)
        else:
            piece = Piece.X if follow is ArcKind.SMOOTH_X else Piece.Y
            (arc,) = _smooth_lanes(piece, s[None], 1.0, t, sub, params, smooth[piece])
            if isinstance(arc, PreySwitchError):
                raise arc
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
        s, t = np.array([ev.state[0], ev.state[0], ev.state[-1]]), ev.t
        follow = _after_sigma(s, cfg, params, sliding)
        if ev.kind is EventKind.SIGMA_CROSSING and follow is not ArcKind.SMOOTH_X:
            kind = EventKind.SIGMA_ENTRY_SLIDING if follow is ArcKind.SLIDING else EventKind.DOMAIN_EXIT
            arc = replace(arc, terminal_event=replace(ev, kind=kind))
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
    its first step, which starts on the section.  Raises :class:`NoReturn`
    if either crossing is missing within the horizon.
    """
    x0 = float(x0)
    tau = params.tau
    if not 0.0 < x0 < tau:
        raise DomainError(f"lv_period requires 0 < x0 < tau = {tau}, got {x0}")
    series = smooth_series(Piece.X, params)
    state, t = np.array([x0, 0.0, params.r1]), 0.0
    for side, crossing in ((-1.0, "upward recrossing"), (1.0, "closing crossing")):
        # the section is the arc's only event, so it reuses SIGMA_CROSSING
        section = _Plane(EventKind.SIGMA_CROSSING, 2, level=params.r1, side=side, contact=(1,))
        (arc,) = _taylor_lanes(
            ArcKind.SMOOTH_X, series, state[None], [section], (), 1.0, t, replace(cfg, t_max=cfg.t_max - t)
        )
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
