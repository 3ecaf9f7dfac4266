"""Exact and approximate Birkhoff-James orthogonality checks.

Every check runs over a (B, n, d) stack of pairs, each row with the bits it
gets on its own; the one-pair functions are B = 1 calls.

Two routes: convex scalar minimization of the defining inequality (13
probes that certify most orthogonal pairs outright, then golden section run
in lockstep over the stack's uncertified rows), and norm-one
support-functional certificates built on the duality kernel
(blockspace._support_stack), with the closed-form minimum over the zero-block
freedom when p = 1.  For p > 1 the certificate value is the
semi-inner-product value |[y, x]|/||x||, so certificate_check is also the
semi-inner-product criterion (sip.sip_orthogonality_criterion calls it) and
only the minimization is an independent route.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .blockspace import (
    BOUNDARY_BAND,
    DEFAULT_TOL,
    ONE_SIDED_NOISE_FLOOR,
    BlockFunctional,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    _budget_rows,
    _duality_rows,
    _is_number,
    _nonzero_blocks,
    _norm_rows,
    _pairing_rows,
    _scratch,
    _support_norms,
    _support_stack,
    check_shape,
)
from .errors import BadSpec, NonFiniteValue, ZeroElement

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def epsilon_value(eps) -> float:
    """eps as a float in [0, 1), where 0 recovers the exact relation; raises
    BadSpec for anything else, NaN, bools and strings included."""
    if not (_is_number(eps) and 0.0 <= eps < 1.0):
        raise BadSpec(f"epsilon must lie in [0, 1), got {eps!r}")
    return float(eps)


def _require_finite(values: np.ndarray, alphas: np.ndarray) -> None:
    """Raise NonFiniteValue at the first of an objective's values (taken at
    alphas of the same shape), in C order, that is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"objective returned {values.flat[i]} at alpha={alphas.flat[i]}")


# Golden section's final bracket width, relative to the radius, and step limit
GOLDEN_TOL = 1e-12
GOLDEN_MAX_ITER = 200


def minimize_convex_1d(phi, radius: float) -> tuple[float, float]:
    """Golden-section minimum of a convex phi over [-radius, radius].

    Returns the best (alpha, phi(alpha)) over all probe points, endpoints and
    0 included, so the reported value never exceeds any evaluated one.
    Raises NonFiniteValue at the first value that is not finite, a Python
    float power that overflows included.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        raise BadSpec(f"radius must be positive and finite, got {radius}")

    def objective(alphas, rows):
        try:
            return np.array([float(phi(float(alphas[0])))])
        except OverflowError:
            return np.array([math.inf])

    phi0 = objective(np.zeros(1), None)
    _require_finite(phi0, np.zeros(1))
    alpha, value = _golden_sections(objective, [0], np.array([float(radius)]), phi0)
    return float(alpha[0]), float(value[0])


def _py_max(a, b):
    """Python's max(a, b) on floats, lane by lane: b only where b > a."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Python's min(a, b) on floats, lane by lane: b only where b < a."""
    return np.where(b < a, b, a)


def _secant_lower_bound(alphas, values) -> np.ndarray:
    """Lower bounds on the minima over [alphas[:, 0], alphas[:, -1]] of convex
    functions, one per row of 2-d arrays (1-d sequences are one row), each
    sampled at increasing alphas.

    A convex function lies above every secant extended beyond its own
    interval, so on each interval it lies above the larger of the two
    neighbouring secants; the smallest value of that maximum sits at an
    endpoint or where the two lines cross.  A row whose slopes are not all
    finite gets -inf.  Each step is the IEEE operation, max, min or
    first-of-equals choice that a loop over the intervals makes on Python
    floats, so every row's bound has that loop's bits.
    """
    A = np.atleast_2d(np.asarray(alphas, dtype=float))
    V = np.atleast_2d(np.asarray(values, dtype=float))
    # Python floats overflow to inf without a warning; rows whose slopes are
    # not finite are masked out at the end
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = A[:, 1:] - A[:, :-1]
        slopes = (V[:, 1:] - V[:, :-1]) / w
        # the neighbouring secants of each interval as (value at its left
        # end, slope): the left one of intervals 1.., the right one of
        # intervals ..m-2; an edge interval has one neighbour, which then
        # stands for both
        left_c, left_k = V[:, 1:-1], slopes[:, :-1]
        right_c, right_k = V[:, 1:-1] - slopes[:, 1:] * w[:, :-1], slopes[:, 1:]
        c0 = np.concatenate((right_c[:, :1], left_c), axis=1)
        k0 = np.concatenate((right_k[:, :1], left_k), axis=1)
        c1 = np.concatenate((right_c, left_c[:, -1:]), axis=1)
        k1 = np.concatenate((right_k, left_k[:, -1:]), axis=1)
        low = _py_min(_py_max(c0, c1), _py_max(c0 + k0 * w, c1 + k1 * w))
        u = _py_min(_py_max((c0 - c1) / (k1 - k0), 0.0), w)  # where the lines cross
        crossing = _py_max(c0 + k0 * u, c1 + k1 * u)
        low = np.where(k1 != k0, _py_min(low, crossing), low)
    # a running min from inf keeps the first of equal values and skips NaN
    low = np.where(np.isnan(low), math.inf, low)
    first = np.argmax(low == low.min(axis=1, keepdims=True), axis=1)
    bound = low[np.arange(len(low)), first]
    return np.where(np.isfinite(slopes).all(axis=1), bound, -math.inf)


# Probe points as fractions of the radius: 0, then pairs on either side of
# it, wide enough to see a violation anywhere in the bracket and fine enough
# that the secant bound of a function vanishing at 0 closes to within the
# noise floor.
_PROBE_OFFSETS = (0.0,) + tuple(side * scale
                                for scale in (1.0, 1e-2, 1e-4, 1e-6, 1e-7, 1e-8)
                                for side in (-1.0, 1.0))
_OFFSETS = np.array(_PROBE_OFFSETS)
# the probes in increasing alpha, at any radius > 0
_BY_ALPHA = np.array(sorted(range(len(_PROBE_OFFSETS)), key=_PROBE_OFFSETS.__getitem__))


def _certified_probes(objective, radius: np.ndarray, phi0: np.ndarray,
                      level: np.ndarray, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Certify min phi_i >= level_i over [-radius_i, radius_i] from 13 probes,
    for a stack of convex objectives.

    objective(alphas, rows) returns phi_rows[k](alphas[..., k]) for every k
    (rows a slice or indices) as an array of alphas' shape, (m,) or (w, m);
    phi0 holds each phi_i(0), and every radius is positive and finite.  Row
    i probes at radius_i*_PROBE_OFFSETS and stops at its first value below
    level_i.  The probes after 0 run `width` to a call, each batch replayed
    against that rule: a row may be evaluated past its first value below
    level, but its results and errors (the first value not finite in (probe,
    row) order raising) are those of one probe per call.  If every value
    reaches level_i and so does their secant lower bound, row i gets its
    best probe (alpha, phi_i(alpha)), ties going to 0: any minimizer's value
    is at least the true minimum, hence at least level, so a certified row
    gets the verdict and boundary flag full minimization would give it.
    Returns (alpha, value) arrays, NaN on every other row for the caller to
    minimize in full.
    """
    best_a, best_v = np.full(len(radius), math.nan), np.full(len(radius), math.nan)
    alphas = _OFFSETS[:, None] * radius  # (probes, rows)
    values = np.empty_like(alphas)
    values[0] = phi0
    live = slice(None)  # a slice takes views
    starts = [0, *range(1, len(_OFFSETS), width)]  # phi0 first, then the batches
    for k, stop in zip(starts, starts[1:] + [len(_OFFSETS)]):
        if k:
            a = alphas[k:stop, live] if stop - k > 1 else alphas[k, live]
            values[k:stop, live] = objective(a, live)
        v = values[k:stop, live]
        if ((v >= level[live]) & (v < math.inf)).all():  # NaN fails both
            continue
        below = v < level[live]
        reached = np.cumsum(below, axis=0) == below  # no earlier value below level
        _require_finite(np.where(reached, v, 0.0), alphas[k:stop, live])
        live = np.arange(len(radius))[live][~below.any(axis=0)]
        if not len(live):
            return best_a, best_v
    A = alphas[_BY_ALPHA][:, live].T
    # the smallest offsets can underflow onto each other
    certified = (A[:, 1:] > A[:, :-1]).all(axis=1)
    certified &= _secant_lower_bound(A, values[_BY_ALPHA][:, live].T) >= level[live]
    rows = np.arange(len(radius))[live][certified]
    best = values[:, rows].argmin(axis=0)  # the first of equals: alpha = 0
    best_a[rows], best_v[rows] = alphas[best, rows], values[best, rows]
    return best_a, best_v


def _golden_sections(objective, rows, radius: np.ndarray, phi0: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima of the convex phi_i over [-radius_i, radius_i]
    for the rows `rows` of a stack, run in lockstep: (alpha, value) arrays,
    one entry per row of rows.

    objective is as in _certified_probes; radius and phi0 hold each row's
    radius and phi_i(0).  Each row evaluates the points, and makes the float
    comparisons, of a golden section run on its own: -radius_i, radius_i,
    then the two inner points, then one point per step until its bracket is
    GOLDEN_TOL * radius_i wide, stops shrinking (where that width underflows,
    as on a subnormal radius) or GOLDEN_MAX_ITER steps have run.  It gets
    the best (alpha, phi_i(alpha)) over those points and 0.  Raises the
    NonFiniteValue of the first value found that is not finite.
    """
    rows = np.asarray(rows, dtype=np.intp)
    live = np.arange(len(rows))  # the rows still running, in order
    best_a, best_v = np.zeros(len(rows)), np.array(phi0, dtype=float)

    def f(alphas, compare=True):
        """The objective at alphas on the live rows (a finished row's best
        value elsewhere, so its best stays), compared with each row's best;
        raises the error of the first row whose value is not finite."""
        if len(live) == len(rows):
            v = objective(alphas, rows)
        else:
            v = best_v.copy()
            v[live] = objective(alphas[live], rows[live])
        _require_finite(v, alphas)
        if compare:
            better = v < best_v
            np.copyto(best_a, alphas, where=better)
            np.copyto(best_v, v, where=better)
        return v

    a, b = -radius, radius
    f(a)
    f(b)
    # near the float max the bracket overflows, silently as on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        width = b - a
        c, d = b - _INV_PHI * width, a + _INV_PHI * width
    fc, fd = f(c), f(d)
    width_goal, last = GOLDEN_TOL * radius, np.full(len(rows), math.inf)
    for k in range(GOLDEN_MAX_ITER):
        done = ((width <= width_goal) | ~(width < last))[live]
        if done.any():
            live = live[~done]
            if not len(live):
                return best_a, best_v
        # left: the minimum lies in [a, d], whose new inner point is c;
        # else in [c, b], whose new inner point is d
        left = fc < fd
        last = width
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = np.where(left, a, c), np.where(left, d, b)
            width = b - a
            step = _INV_PHI * width
            point = np.where(left, b - step, a + step)
        c, d = np.where(left, point, d), np.where(left, c, point)
        # a scalar loop compares the new value at its next step, where the
        # value kept from this one can no longer win; after the last step
        # there is no next one
        v = f(point, compare=k + 1 < GOLDEN_MAX_ITER)
        fc, fd = np.where(left, v, fd), np.where(left, fc, v)
    return best_a, best_v


def _one_sided_checks(objective, radius: np.ndarray, phi0: np.ndarray,
                      at_zero: np.ndarray, level: np.ndarray, scale: np.ndarray,
                      width: int) -> tuple:
    """Verdicts on min phi_i >= at_zero_i over [-radius_i, radius_i] for a
    stack of convex objectives, at_zero_i being the exact phi_i(0) and phi0_i
    the value evaluating gives: certified probes at level, `width` to a call
    (objective as in _certified_probes), else golden section.  Returns the
    columnar result (verdict, margin, boundary, alpha*), one entry per row.
    margin = (min - at_zero)/scale is <= 0 up to rounding, so only the
    uncertain-fail zone below the noise floor is a boundary case."""
    alpha, val = _certified_probes(objective, radius, phi0, level, width)
    todo = np.flatnonzero(np.isnan(val))
    if len(todo):
        alpha[todo], val[todo] = _golden_sections(objective, todo, radius[todo], phi0[todo])
    # clamp at the exact value; as evaluated it can sit an ulp below
    margin = (_py_min(val, at_zero) - at_zero) / scale
    boundary = (-BOUNDARY_BAND * DEFAULT_TOL < margin) & (margin < -ONE_SIDED_NOISE_FLOOR)
    return margin >= -DEFAULT_TOL, margin, boundary, alpha


def _radii(nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """The search radii 4||x||/||y|| of both checks over a stack, and 1 where
    y = 0, whose objective is constant (x + alpha 0 is x to the bit).  Raises
    ZeroElement at the first x = 0, or NonFiniteValue at the first radius
    that is 0 or not finite, in row order."""
    # silent as on Python floats; the y = 0 rows, which divide by 0, take 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        radius = np.where(ny == 0.0, 1.0, 4.0 * nx / ny)
    failing = (nx == 0.0) | ~((0.0 < radius) & (radius < math.inf))
    if failing.any():
        i = int(np.argmax(failing))
        if nx[i] == 0.0:
            raise ZeroElement("orthogonality from the zero element is degenerate")
        raise NonFiniteValue(f"4||x||/||y|| = {float(radius[i])} is outside the float range")
    return radius


def _line_norms(xs: np.ndarray, ys: np.ndarray, out: np.ndarray, spec: SpaceSpec,
                alphas: np.ndarray, rows) -> np.ndarray:
    """||x_i + a y_i|| at each a of alphas[..., k], (m,) or (w, m), for the
    rows i = rows[k] (a slice or increasing indices) of a stack, the points
    written into the first alphas.size blocks of out."""
    if type(rows) is not slice and len(rows) == len(xs):
        rows = slice(None)  # all the rows: views, not copies
    points = out[:alphas.size].reshape(alphas.shape + xs.shape[1:])  # a view
    np.multiply(ys[rows], alphas[..., None, None], out=points)
    points += xs[rows]
    return _norm_rows(out[:alphas.size], spec)[1].reshape(alphas.shape)


def _line_objective(xs: np.ndarray, ys: np.ndarray, spec: SpaceSpec):
    """A check's objective over a (B, n, d) stack, _line_norms over its line
    buffer, and its probes per call: as many of the 12 as fill STACK_ENTRIES."""
    width = min(len(_OFFSETS) - 1, _budget_rows(xs.size))
    out = _scratch("line", (width * len(xs), *xs.shape[1:]))
    return partial(_line_norms, xs, ys, out, spec), width


def _squares(v: np.ndarray) -> np.ndarray:
    """v ** 2 with the bits of Python floats (float_power runs libm's pow, as
    Python's ** does; power's x * x differs in the last bit on some values),
    inf on the finite lanes where Python raises OverflowError."""
    with np.errstate(over="ignore"):
        return np.float_power(v, 2.0)


def _exact_checks(xs: np.ndarray, ys: np.ndarray, nx: np.ndarray,
                  ny: np.ndarray, spec: SpaceSpec) -> tuple:
    """is_bj_orthogonal of each pair of a (B, n, d) stack, given its rows'
    norms, as one columnar result (verdict, margin, boundary, alpha*)."""
    norm_at, width = _line_objective(xs, ys, spec)
    return _one_sided_checks(norm_at, _radii(nx, ny), nx, nx,
                             (1.0 - ONE_SIDED_NOISE_FLOOR) * nx, nx, width)


def _approx_checks(xs: np.ndarray, ys: np.ndarray, nx: np.ndarray,
                   ny: np.ndarray, eps, spec: SpaceSpec) -> tuple:
    """is_approx_bj_orthogonal of each pair of a (B, n, d) stack, given its
    rows' norms and eps (one float, or one per row), as one columnar result
    (verdict, margin, boundary, alpha*)."""
    radius, y_zero = _radii(nx, ny), ny == 0.0
    # silent on Python floats.  A y = 0 row's psi is 0 at every alpha and any
    # scale of x, where evaluating can sit an ulp of ||x||^2 off 0 or
    # overflow: it takes psi = 0 and scale 1, so its kink may be NaN
    with np.errstate(over="ignore", invalid="ignore"):
        nx2 = np.where(y_zero, 1.0, nx * nx)
        kink = 2.0 * eps * nx * ny
        # psi(0) = nx ** 2 - nx2 as evaluated: ||x + 0 y|| is ||x|| to the bit
        psi0 = np.where(y_zero, 0.0, _squares(nx) - nx2)
    bad = ~((0.0 < nx2) & (nx2 < math.inf))  # nx * nx underflowed or overflowed
    if bad.any():
        raise NonFiniteValue(f"||x||^2 = {float(nx2[np.argmax(bad)])} is outside the float range")
    norm_at, width = _line_objective(xs, ys, spec)

    def gap(alphas, live):
        """psi(alpha) = ||x + alpha y||^2 - ||x||^2 + 2 eps ||x|| ||y|| |alpha|."""
        # a lane that overflows is not finite, and its row fails
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _squares(norm_at(alphas, live)) - nx2[live] + kink[live] * abs(alphas)
        return np.where(y_zero[live], 0.0, psi)

    return _one_sided_checks(gap, radius, psi0, np.zeros(len(xs)),
                             -ONE_SIDED_NOISE_FLOOR * nx2, nx2, width)


def _first(result: tuple) -> CheckResult:
    """Row 0 of a columnar result as a CheckResult: its last column holds
    alpha* (B,) or a certificate's blocks (B, n, d)."""
    verdict, margin, boundary, last = result
    if last.ndim == 1:
        return CheckResult(verdict[0], margin[0], alpha_star=last[0], boundary=boundary[0])
    return CheckResult(verdict[0], margin[0], certificate=BlockFunctional(last[0]),
                       boundary=boundary[0])


def _operands(x: BochnerElement, y: BochnerElement, spec: SpaceSpec
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x and y as one-row stacks and their norms, after checking both
    shapes."""
    xs = check_shape(x, spec)[None]
    ys = check_shape(y, spec)[None]
    return xs, ys, _norm_rows(xs, spec)[1], _norm_rows(ys, spec)[1]


def is_bj_orthogonal(x: BochnerElement, y: BochnerElement, spec: SpaceSpec) -> CheckResult:
    """Does ||x + a y|| >= ||x|| hold for every scalar a?

    Minimizes ||x + a y|| over |a| <= 4||x||/||y|| (any a with value <= ||x||
    lies within 2||x||/||y|| by the reverse triangle inequality; doubled to
    absorb rounding).  margin = (min - ||x||)/||x||, always <= 0 since a = 0
    attains ||x||.  A pair whose probes certify min >= (1 - floor)||x||
    (floor = ONE_SIDED_NOISE_FLOOR) skips the golden section.  Raises
    ZeroElement at x = 0.
    """
    return _first(_exact_checks(*_operands(x, y, spec), spec))


def is_approx_bj_orthogonal(x: BochnerElement, y: BochnerElement, eps,
                            spec: SpaceSpec) -> CheckResult:
    """Does ||x + a y||^2 >= ||x||^2 - 2 eps ||x|| ||a y|| hold for every a?

    Minimizes the convex gap psi(a) = ||x + a y||^2 - ||x||^2
    + 2 eps ||x|| ||y|| |a| over |a| <= 4||x||/||y|| (psi < 0 forces
    ||x + a y|| < ||x||, hence |a| < 2||x||/||y||).  margin = min psi /||x||^2.
    A pair whose probes certify min psi >= -floor ||x||^2
    (floor = ONE_SIDED_NOISE_FLOOR) skips the golden section.
    """
    return _first(_approx_checks(*_operands(x, y, spec), epsilon_value(eps), spec))


def _support_operands(x: BochnerElement, y: BochnerElement, spec: SpaceSpec
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x and y as one-row stacks and _norm_rows of x, after checking both
    shapes and the support functional's preconditions: NotSmooth unless
    1 < q < inf, then ZeroElement at x = 0."""
    xs = check_shape(x, spec)[None]
    ys = check_shape(y, spec)[None]
    return xs, ys, *_support_norms(xs, spec)


def _certificates(xs: np.ndarray, ys: np.ndarray, bx: np.ndarray,
                  nx: np.ndarray, by: np.ndarray, spec: SpaceSpec
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(min_certificate_value, blocks of a T attaining it) for each pair of a
    (B, n, d) stack with nonzero x rows, given _norm_rows of the x rows and
    the y rows' block norms; T is a workspace view (_support_stack), valid
    until the next call in the thread.  At p = 1 the zero blocks of x take,
    in order, clamped multiples of -sign(S) F_{y_i} until they have
    cancelled as much of S as they can.  Raises NonFiniteValue at the first
    row, in row order, whose S = T_x(y) is not finite (inf, or nan from
    opposite infinite blocks), at every p."""
    T = _support_stack(xs, bx, nx, spec)
    s = _pairing_rows(T, ys, spec)
    mcv = np.abs(s)
    if spec.p > 1.0:
        return mcv, T
    free = ~_nonzero_blocks(bx)  # x's zero blocks: T's too, every weight being 1
    for i in np.flatnonzero(free.any(axis=1)).tolist():
        f, si = free[i], float(s[i])
        # a sum of reaches past the float range is inf, and cancels all of S
        with np.errstate(over="ignore"):
            c = (spec.mu * by[i])[f]  # reach of each free block
            if not np.isfinite(c).all():
                raise NonFiniteValue("a free block's reach is past the float range")
            taken = np.clip(abs(si) - (np.cumsum(c) - c), 0.0, c)
            mcv[i] = max(0.0, abs(si) - float(c.sum()))
        t = np.divide(taken, c, out=np.zeros_like(c), where=c > 0.0)
        Fy = _duality_rows(ys[i][f], spec.q, c > 0.0, by[i][f])
        T[i][f] = -np.sign(si) * t[:, None] * Fy
    return mcv, T


def _certificate_checks(xs: np.ndarray, ys: np.ndarray, bx: np.ndarray,
                        nx: np.ndarray, by: np.ndarray, ny: np.ndarray,
                        eps, spec: SpaceSpec) -> tuple:
    """certificate_check of each pair of a (B, n, d) stack with nonzero x
    rows, given _norm_rows of both stacks and eps (one float, or one per
    row), as one columnar result (verdict, margin, boundary, certificate
    blocks, a workspace view as in _certificates).  Raises NonFiniteValue
    when a y row's norm is past the float range, or when a certificate has
    an entry that is not finite."""
    if not np.isfinite(ny).all():  # the margin divides by it
        raise NonFiniteValue("a norm is past the float range")
    mcv, T = _certificates(xs, ys, bx, nx, by, spec)
    if not np.isfinite(T).all():
        raise NonFiniteValue("functional contains non-finite entries")
    y0 = ny == 0.0  # y = 0 passes exactly: mcv and the margin are 0 there
    margin = (eps * ny - mcv) / np.where(y0, 1.0, ny)
    return (margin >= -DEFAULT_TOL, margin,
            ~y0 & (np.abs(margin) < BOUNDARY_BAND * DEFAULT_TOL), T)


def _route_checks(xs: np.ndarray, ys: np.ndarray, eps,
                  spec: SpaceSpec) -> tuple[tuple, tuple]:
    """The columnar results of is_approx_bj_orthogonal and certificate_check
    on each pair of a (B, n, d) stack at eps (one float, or one per row); the
    direct checks run first, so an x = 0 row raises their ZeroElement."""
    bx, nx = _norm_rows(xs, spec)
    by, ny = _norm_rows(ys, spec)
    return (_approx_checks(xs, ys, nx, ny, eps, spec),
            _certificate_checks(xs, ys, bx, nx, by, ny, eps, spec))


def min_certificate_value(x: BochnerElement, y: BochnerElement,
                          spec: SpaceSpec) -> float:
    """min over norm-one T with T(x) = ||x|| of |T(y)|.

    p = 1: on zero blocks of x the dual block is free in the unit ball, so
    T(y) sweeps an interval of half-width sum_{i in Z(x)} mu_i ||y_i||_q
    around S = sum_{i not in Z(x)} mu_i F_{x_i}.y_i; the minimum modulus is
    max(0, |S| - half-width).  p > 1: the space is smooth, the support
    functional is unique, and the value is |T_x(y)| = |[y, x]|/||x||.
    """
    xs, ys, bx, nx = _support_operands(x, y, spec)
    by = _norm_rows(ys, spec)[0]
    return float(_certificates(xs, ys, bx, nx, by, spec)[0][0])


def certificate_check(x: BochnerElement, y: BochnerElement, eps,
                      spec: SpaceSpec) -> CheckResult:
    """Certificate route: approximate orthogonality holds iff some norm-one T
    with T(x) = ||x|| has |T(y)| <= eps ||y||.

    margin = (eps ||y|| - min |T(y)|)/||y||; the certificate field carries a
    T attaining the minimum.
    """
    eps = epsilon_value(eps)
    xs, ys, bx, nx = _support_operands(x, y, spec)
    return _first(_certificate_checks(xs, ys, bx, nx, *_norm_rows(ys, spec), eps, spec))


def _partners(xs: np.ndarray, zs: np.ndarray, bx: np.ndarray, nx: np.ndarray,
              spec: SpaceSpec, out: np.ndarray | None = None) -> np.ndarray:
    """z_i - (T_i(z_i)/||x_i||) x_i for each pair of a (B, n, d) stack, T_i the
    support functional of x_i, given _norm_rows of the nonzero x rows;
    written into out (a new array when None)."""
    T = _support_stack(xs, bx, nx, spec)
    y = np.multiply(xs, -(_pairing_rows(T, zs, spec) / nx)[:, None, None], out=out)
    return np.add(y, zs, out=y)


def make_orthogonal_partner(x: BochnerElement, z: BochnerElement,
                            spec: SpaceSpec) -> BochnerElement:
    """Project z along x so the result is orthogonal from x.

    With T the support functional of x, y = z - (T(z)/||x||) x satisfies
    T(y) = 0, which certifies x orthogonal to y.
    """
    return BochnerElement(_partners(*_support_operands(x, z, spec), spec)[0])
