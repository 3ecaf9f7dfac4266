"""Blockwise scaling operators that preserve approximate orthogonality
without being scalar multiples of an isometry, plus the detector and the
preservation trial that exercises them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockspace import (
    DEFAULT_TOL,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    _is_int,
    _is_number,
    _norm_arr,
    _norm_rows,
    _real_array,
    _repeat,
    _row_max,
    _scratch,
    _take,
    inner_norm,
    outcome,
)
from .errors import BadSpec, DegenerateDraw, NonFiniteValue, ShapeMismatch
from .ortho import _first, _partners, _route_checks, epsilon_value

# Smallest norm of a usable random element; a draw below it is redrawn.
_USABLE_NORM = 1e-6

# log-spaced scalars for the two-set witness family; exposes both ratio
# endpoints of a diagonal operator
WITNESS_ALPHAS = (0.0,) + tuple(s * 10.0**k for k in range(-3, 7) for s in (1.0, -1.0))


@dataclass(frozen=True)
class AtomPartition:
    """A nonempty proper subset of atoms; the complement is derived."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not _is_int(self.n):
            raise BadSpec(f"partition size must be an integer, got {self.n!r}")
        if not (np.iterable(self.indices)
                and all(_is_int(i) and 0 <= i < self.n for i in self.indices)):
            raise BadSpec(f"partition indices must be integers in 0..{self.n - 1}, "
                          f"got {self.indices!r}")
        idx = tuple(sorted(set(map(int, self.indices))))
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise BadSpec("partition must select at least one atom")
        if len(idx) == self.n:
            raise BadSpec("partition complement must be nonempty")
        # indexing by an array, not by the tuple's Python ints: 100 us at n = 4096
        object.__setattr__(self, "_index", np.array(idx, dtype=np.intp))

    @property
    def complement(self) -> tuple[int, ...]:
        members = set(self.indices)
        return tuple(i for i in range(self.n) if i not in members)

    def mask(self, spec: SpaceSpec) -> np.ndarray:
        """The selected atoms of spec as a boolean mask; raises BadSpec
        unless n == spec.n."""
        if self.n != spec.n:
            raise BadSpec(f"partition is over {self.n} atoms, space has {spec.n}")
        m = np.zeros(self.n, dtype=bool)
        m[self._index] = True
        return m


@dataclass
class ScalingOperator:
    """Diagonal operator U(f)_i = factors_i * f_i with positive factors."""

    factors: np.ndarray

    def __post_init__(self):
        f = self.factors
        if not (isinstance(f, np.ndarray) and f.ndim == 1 and f.dtype.kind in "iuf"
                or isinstance(f, (list, tuple)) and all(map(_is_number, f))):
            raise BadSpec(f"factors must be a 1-d sequence of numbers, got {f!r}")
        self.factors = np.asarray(f, dtype=float)
        if not np.all(np.isfinite(self.factors) & (self.factors > 0.0)):
            raise BadSpec("all scaling factors must be positive and finite")

    def check_fits(self, spec: SpaceSpec) -> None:
        """Raise ShapeMismatch unless there is one factor per atom of spec."""
        if len(self.factors) != spec.n:
            raise ShapeMismatch(
                f"operator has {len(self.factors)} factors, space has {spec.n} atoms")


def _image(factors: np.ndarray, blocks: np.ndarray, out: np.ndarray | None = None
           ) -> np.ndarray:
    """factors_i * blocks_i over (n, d) blocks, or over a (B, n, d) stack
    with (n,) factors or a (B, n) row of factors per row, written into out
    (a new array when None; it may be blocks); raises NonFiniteValue when an
    entry overflows."""
    with np.errstate(over="ignore"):  # an overflow is the error below
        image = np.multiply(_repeat(factors, factors.shape + blocks.shape[-1:]), blocks,
                            out=out)
    if not np.isfinite(image).all():
        raise NonFiniteValue("element contains non-finite entries")
    return image


def _operator_epsilon(eps) -> float:
    """eps as a float; the counterexample operators need 0 < eps < 1."""
    eps = epsilon_value(eps)
    if not 0.0 < eps < 1.0:
        raise BadSpec(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _require_isometry_trials(trials: int) -> None:
    """Raise BadSpec unless is_scalar_multiple_of_isometry gets an integer
    count of at least 2 random trials."""
    if not (_is_int(trials) and trials >= 2):
        raise BadSpec(f"need at least 2 random trials, got {trials!r}")


def u_eps_l1(eps, spec: SpaceSpec) -> ScalingOperator:
    """Sequence-space operator: shrink the first coordinate block by 1 - eps.

    u_eps_L1 on the partition {0}, restricted to the unweighted p = 1 space
    (all atom masses 1) with n >= 2.
    """
    if any(w != 1.0 for w in spec.weights):
        raise BadSpec("sequence-space operator needs unit atom masses")
    return u_eps_L1(eps, AtomPartition((0,), spec.n), spec)


def u_eps_L1(eps, part: AtomPartition, spec: SpaceSpec) -> ScalingOperator:
    """Weighted L^1 operator: shrink the selected atoms by 1 - eps."""
    eps = _operator_epsilon(eps)
    if spec.p != 1.0:
        raise BadSpec(f"L1 operator needs p = 1, got p={spec.p}")
    factors = np.ones(spec.n)
    factors[part.mask(spec)] = 1.0 - eps
    return ScalingOperator(factors)


def u_eps_Lp(eps, part: AtomPartition, spec: SpaceSpec) -> ScalingOperator:
    """L^p operator (1 < p < inf): keep the selected atoms, shrink the
    complement by 1 - eps/p."""
    eps = _operator_epsilon(eps)
    if not spec.p > 1.0:
        raise BadSpec(f"Lp operator needs p > 1, got p={spec.p}")
    factors = np.full(spec.n, 1.0 - eps / spec.p)
    factors[part.mask(spec)] = 1.0
    return ScalingOperator(factors)


def apply_operator(U: ScalingOperator, f: BochnerElement) -> BochnerElement:
    """Blockwise scaling; exactly linear."""
    if len(U.factors) != len(f.blocks):
        raise ShapeMismatch(
            f"operator has {len(U.factors)} factors, element has {len(f.blocks)} blocks")
    return BochnerElement(_image(U.factors, f.blocks))


def h_alpha_witness(alpha: float, part: AtomPartition, x0,
                    spec: SpaceSpec) -> BochnerElement:
    """Two-level witness: x0 on the selected atoms, alpha*x0 on the rest.

    x0 must be a unit block; for p = 1 the norm is mass(A) + |alpha| mass(B).
    """
    if not (_is_number(alpha) and np.isfinite(alpha)):
        raise BadSpec(f"alpha must be a finite number, got {alpha!r}")
    x0 = _real_array(x0, "x0")
    if x0.shape != (spec.d,):
        raise BadSpec(f"x0 must be a {spec.d}-vector, got shape {x0.shape}")
    if abs(inner_norm(x0, spec.q) - 1.0) > 1e-9:
        raise BadSpec("x0 must have unit inner norm")
    mask = part.mask(spec)
    blocks = np.zeros((spec.n, spec.d))
    blocks[mask] = x0
    blocks[~mask] = alpha * x0
    return BochnerElement(blocks)


def _draw_usable(out: np.ndarray, rows: np.ndarray, rngs,
                 spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fill out[i] for each of the increasing rows i with i.i.d. standard
    normal blocks from rngs[i], redrawing a row until its norm reaches
    _USABLE_NORM, at most 100 draws.  Returns _norm_rows of those rows; raises
    DegenerateDraw when a row is left without a usable draw."""
    b, norms = np.empty((len(rows), spec.n)), np.empty(len(rows))
    pending = np.arange(len(rows))
    for _ in range(100):
        redraw = rows[pending]
        for i in redraw.tolist():
            rngs[i].standard_normal(out=out[i])
        b[pending], norms[pending] = _norm_rows(_take(out, redraw), spec)
        pending = pending[~(norms[pending] >= _USABLE_NORM)]
        if not len(pending):
            return b, norms
    raise DegenerateDraw("could not draw an element of usable norm")


def random_element(spec: SpaceSpec, rng: np.random.Generator) -> BochnerElement:
    """Blocks with i.i.d. standard normal entries; redraws degenerate ones."""
    (out,) = _draw_elements(spec, [rng], 1)
    return BochnerElement(out[0])


def _draw_elements(spec: SpaceSpec, rngs, count: int) -> list[np.ndarray]:
    """random_element drawn count times from each generator in turn, as
    count (B, n, d) stacks, workspace views until the thread's next call."""
    stacks = []
    for k in range(count):
        out = _scratch(f"draw{k}", (len(rngs), spec.n, spec.d))
        _draw_usable(out, np.arange(len(rngs)), rngs, spec)
        stacks.append(out)
    return stacks


def _collapsed(Y: np.ndarray, Z: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """not ||Y_i|| > 1e-9 ||Z_i|| for each row of two (B, n, d) stacks, as
    the norms decide it.  Most rows are decided from their largest entries,
    by mu_min^(1/p) max|v| <= ||v|| <= (sum mu)^(1/p) d^(1/q) max|v| with a
    2x slack for rounding (and a normal lower bound); only the others are
    normed."""
    # |Y| and |Z| in the support buffer, free by now: at q = 2 "abs" is unused
    my, mz = (_row_max(np.abs(v, out=_scratch("support", v.shape)).reshape(len(v), -1))
              for v in (Y, Z))
    with np.errstate(over="ignore"):  # a bound past the float range decides nothing
        low = spec.mu.min() ** (1.0 / spec.p) * my
        high = float(spec.mu.sum()) ** (1.0 / spec.p) * spec.d ** (1.0 / spec.q) * mz
        kept = (low > 2e-9 * high) & (low >= 2.0 ** -1022)  # the smallest normal double
    collapsed = np.zeros(len(Y), dtype=bool)
    rows = np.flatnonzero(~kept)
    if len(rows):
        collapsed[rows] = ~(_norm_rows(_take(Y, rows), spec)[1]
                            > 1e-9 * _norm_rows(_take(Z, rows), spec)[1])
    return collapsed


def _draw_pairs(spec: SpaceSpec, rngs) -> tuple[np.ndarray, np.ndarray]:
    """draw_orthogonal_pair from each generator in turn, as (B, n, d) stacks
    of x and y, workspace views until the thread's next call.  Each row takes
    its draws from its own generator in the order the one-pair draw does."""
    shape = (len(rngs), spec.n, spec.d)
    xs, zs, ys = _scratch("draw0", shape), _scratch("draw1", shape), _scratch("partner", shape)
    todo = np.arange(len(rngs))
    for _ in range(100):
        bx, nx = _draw_usable(xs, todo, rngs, spec)
        for i in todo.tolist():
            rngs[i].standard_normal(out=zs[i])
        Z = _take(zs, todo)
        # the first round projects every row straight into ys
        Y = _partners(_take(xs, todo), Z, bx, nx, spec, ys if len(todo) == len(ys) else None)
        if Y is not ys:
            ys[todo] = Y
        # redraw the rows whose partner collapsed to zero
        todo = todo[_collapsed(Y, Z, spec)]
        if not len(todo):
            return xs, ys
    raise DegenerateDraw("partner collapsed to zero on every redraw")


def draw_orthogonal_pair(spec: SpaceSpec, rng: np.random.Generator,
                         ) -> tuple[BochnerElement, BochnerElement]:
    """Random x plus a partner y built by projection, so x is exactly
    orthogonal to y; redraws when the partner collapses to zero."""
    spec.require_smooth_inner()
    xs, ys = _draw_pairs(spec, [rng])
    return BochnerElement(xs[0]), BochnerElement(ys[0])


def is_scalar_multiple_of_isometry(U: ScalingOperator, spec: SpaceSpec,
                                   trials: int = 16,
                                   rng: np.random.Generator | None = None,
                                   ) -> tuple[bool, float]:
    """Probe whether ||U f|| / ||f|| is constant.

    Probes: one single-atom element per atom (for a diagonal operator these
    hit every factor exactly), the two-level witness family over the
    operator's extreme-factor atoms on a log scalar grid, and random
    elements, each under the factors divided by their max, so c U gets U's
    verdict at any scale c > 0.  Returns (spread <= DEFAULT_TOL, spread) with
    spread = (max ratio - min ratio)/max ratio, or raises NonFiniteValue
    when a probe's norm is 0 or either norm is not finite.
    """
    _require_isometry_trials(trials)
    U.check_fits(spec)
    if rng is None:
        rng = np.random.default_rng(0)
    factors = U.factors / U.factors.max()

    def ratio(blocks):
        image, norm = _norm_arr(_image(factors, blocks), spec), _norm_arr(blocks, spec)
        if not (0.0 < norm < math.inf and image < math.inf):  # image 0: a factor underflowed
            raise NonFiniteValue(f"probe norm {norm} is 0 or not finite, or image norm {image}")
        return image / norm

    x0 = np.zeros(spec.d)
    x0[0] = 1.0
    ratios = []
    for i in range(spec.n):
        blocks = np.zeros((spec.n, spec.d))
        blocks[i] = x0
        ratios.append(ratio(blocks))
    hi = np.flatnonzero(factors == 1.0)
    if len(hi) < spec.n:
        part = AtomPartition(hi.tolist(), spec.n)
        for alpha in WITNESS_ALPHAS:
            ratios.append(ratio(h_alpha_witness(alpha, part, x0, spec).blocks))
    for _ in range(trials):
        ratios.append(ratio(random_element(spec, rng).blocks))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    return spread <= DEFAULT_TOL, spread


@dataclass
class TrialRecord:
    """One preservation trial: the verdicts of each check route on the image
    of an exactly-orthogonal pair under the operator."""

    direct: CheckResult
    second_route: str
    second: CheckResult
    outcome: str = field(init=False)  # pass | boundary | fail

    def __post_init__(self):
        self.outcome = str(outcome(self.direct.verdict and self.second.verdict,
                                   self.direct.boundary or self.second.boundary))


def _preservation_stack(factors, eps, spec: SpaceSpec, rngs) -> tuple[str, tuple, tuple]:
    """The trials of preservation_trials on a stack whose rows may differ in
    operator and eps: factors is one operator's (n,) factors or a (B, n) row
    per row, and eps is one float or one per row; certificates are workspace views."""
    spec.require_smooth_inner()  # the partner projection's, before any draw
    xs, ys = _draw_pairs(spec, rngs)
    route = "certificate" if spec.p == 1.0 else "sip"  # the sip criterion for p > 1
    # the pair is imaged in place: the rows need only its image
    return (route, *_route_checks(_image(factors, xs, xs), _image(factors, ys, ys), eps, spec))


def preservation_trials(U: ScalingOperator, eps, spec: SpaceSpec,
                        rngs) -> tuple[str, tuple, tuple]:
    """preservation_trial on each generator of rngs in turn, run as one
    (B, n, d) stack through the kernels of the one-pair checks, with every
    row's bits: the second route's name and both routes' columnar results
    (ortho._route_checks).  When trials raise, one failing row's error is
    raised, not always the first row's: the generators have been drawn from
    and cannot be replayed.  harness.run reruns a failing stack row by row.
    The certificate blocks are copied out of the workspace."""
    eps = epsilon_value(eps)
    U.check_fits(spec)
    if not len(rngs):
        raise BadSpec("need at least one generator")
    route, direct, (*second, T) = _preservation_stack(U.factors, eps, spec, rngs)
    return route, direct, (*second, T.copy())


def preservation_trial(U: ScalingOperator, eps, spec: SpaceSpec,
                       rng: np.random.Generator) -> TrialRecord:
    """Draw an orthogonal pair, apply U, and check the image pair at eps.

    The pair is built by projecting a random z against a random x, so the
    exact check on (x, y) is true by construction; the operators under test
    should make every route's verdict true on (U x, U y).
    """
    route, direct, second = preservation_trials(U, eps, spec, [rng])
    return TrialRecord(direct=_first(direct), second_route=route, second=_first(second))
