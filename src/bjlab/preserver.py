"""Blockwise scaling operators that preserve approximate orthogonality
without being scalar multiples of an isometry, plus the detector and the
preservation trial that exercises them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockspace import (
    DEFAULT_TOL,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    _is_int,
    _norm_arr,
    inner_norm,
    outcome,
)
from .errors import BadSpec, DegenerateDraw, ShapeMismatch
from .ortho import (
    certificate_check,
    epsilon_value,
    is_approx_bj_orthogonal,
    make_orthogonal_partner,
)

# log-spaced scalars for the two-set witness family; exposes both ratio
# endpoints of a diagonal operator
WITNESS_ALPHAS = (0.0,) + tuple(s * 10.0**k for k in range(-3, 7) for s in (1.0, -1.0))


@dataclass(frozen=True)
class AtomPartition:
    """A nonempty proper subset of atoms; the complement is derived."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        members = set(self.indices)
        if not all(_is_int(i) and 0 <= i < self.n for i in members):
            raise BadSpec(f"partition indices must be integers in 0..{self.n - 1}, "
                          f"got {self.indices!r}")
        idx = tuple(sorted(int(i) for i in members))
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise BadSpec("partition must select at least one atom")
        if len(idx) == self.n:
            raise BadSpec("partition complement must be nonempty")

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
        m[list(self.indices)] = True
        return m


@dataclass
class ScalingOperator:
    """Diagonal operator U(f)_i = factors_i * f_i with positive factors."""

    factors: np.ndarray

    def __post_init__(self):
        self.factors = np.asarray(self.factors, dtype=float)
        if self.factors.ndim != 1:
            raise BadSpec("factors must be a 1-d sequence")
        if not np.all(np.isfinite(self.factors) & (self.factors > 0.0)):
            raise BadSpec("all scaling factors must be positive and finite")

    def check_fits(self, spec: SpaceSpec) -> None:
        """Raise ShapeMismatch unless there is one factor per atom of spec."""
        if len(self.factors) != spec.n:
            raise ShapeMismatch(
                f"operator has {len(self.factors)} factors, space has {spec.n} atoms")


def _operator_epsilon(eps) -> float:
    """eps as a float; the counterexample operators need 0 < eps < 1."""
    eps = epsilon_value(eps)
    if not 0.0 < eps < 1.0:
        raise BadSpec(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _require_isometry_trials(trials: int) -> None:
    """Raise BadSpec unless is_scalar_multiple_of_isometry gets at least 2
    random trials."""
    if trials < 2:
        raise BadSpec(f"need at least 2 random trials, got {trials}")


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
    return BochnerElement(U.factors[:, None] * f.blocks)


def h_alpha_witness(alpha: float, part: AtomPartition, x0,
                    spec: SpaceSpec) -> BochnerElement:
    """Two-level witness: x0 on the selected atoms, alpha*x0 on the rest.

    x0 must be a unit block; for p = 1 the norm is mass(A) + |alpha| mass(B).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.d,):
        raise BadSpec(f"x0 must be a {spec.d}-vector, got shape {x0.shape}")
    if abs(inner_norm(x0, spec.q) - 1.0) > 1e-9:
        raise BadSpec("x0 must have unit inner norm")
    mask = part.mask(spec)
    blocks = np.zeros((spec.n, spec.d))
    blocks[mask] = x0
    blocks[~mask] = alpha * x0
    return BochnerElement(blocks)


def random_element(spec: SpaceSpec, rng: np.random.Generator,
                   min_norm: float = 1e-6) -> BochnerElement:
    """Blocks with i.i.d. standard normal entries; redraws degenerate ones
    (none at min_norm <= 0, where every draw is usable)."""
    for _ in range(100):
        blocks = rng.standard_normal((spec.n, spec.d))
        if min_norm <= 0.0 or _norm_arr(blocks, spec) >= min_norm:
            return BochnerElement(blocks)
    raise DegenerateDraw("could not draw an element of usable norm")


def draw_orthogonal_pair(spec: SpaceSpec, rng: np.random.Generator,
                         ) -> tuple[BochnerElement, BochnerElement]:
    """Random x plus a partner y built by projection, so x is exactly
    orthogonal to y; redraws when the partner collapses to zero."""
    for _ in range(100):
        x = random_element(spec, rng)
        z = random_element(spec, rng, min_norm=0.0)
        y = make_orthogonal_partner(x, z, spec)
        if _norm_arr(y.blocks, spec) > 1e-9 * _norm_arr(z.blocks, spec):
            return x, y
    raise DegenerateDraw("partner collapsed to zero on every redraw")


def _ratio(U: ScalingOperator, blocks: np.ndarray, spec: SpaceSpec) -> float:
    return _norm_arr(U.factors[:, None] * blocks, spec) / _norm_arr(blocks, spec)


def is_scalar_multiple_of_isometry(U: ScalingOperator, spec: SpaceSpec,
                                   trials: int = 16, tol: float = DEFAULT_TOL,
                                   rng: np.random.Generator | None = None,
                                   ) -> tuple[bool, float]:
    """Probe whether ||U f|| / ||f|| is constant.

    Probes: one single-atom element per atom (for a diagonal operator these
    hit every factor exactly), the two-level witness family over the
    operator's extreme-factor atoms on a log scalar grid, and random
    elements.  Returns (spread <= tol, spread) with
    spread = (max ratio - min ratio)/max ratio.
    """
    _require_isometry_trials(trials)
    U.check_fits(spec)
    if rng is None:
        rng = np.random.default_rng(0)
    x0 = np.zeros(spec.d)
    x0[0] = 1.0
    ratios = []
    for i in range(spec.n):
        blocks = np.zeros((spec.n, spec.d))
        blocks[i] = x0
        ratios.append(_ratio(U, blocks, spec))
    hi = np.flatnonzero(U.factors == U.factors.max())
    if len(hi) < spec.n:
        part = AtomPartition(hi.tolist(), spec.n)
        for alpha in WITNESS_ALPHAS:
            ratios.append(_ratio(U, h_alpha_witness(alpha, part, x0, spec).blocks, spec))
    for _ in range(trials):
        ratios.append(_ratio(U, random_element(spec, rng).blocks, spec))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    return spread <= tol, spread


@dataclass
class TrialRecord:
    """One preservation trial: an exactly-orthogonal pair and the verdicts of
    each check route on its image under the operator."""

    x: BochnerElement
    y: BochnerElement
    direct: CheckResult
    second_route: str
    second: CheckResult
    outcome: str = field(init=False)  # pass | boundary | fail

    def __post_init__(self):
        self.outcome = outcome(self.direct, self.second)


def preservation_trial(U: ScalingOperator, eps, spec: SpaceSpec,
                       rng: np.random.Generator, tol: float = DEFAULT_TOL,
                       ) -> TrialRecord:
    """Draw an orthogonal pair, apply U, and check the image pair at eps.

    The pair is built by projecting a random z against a random x, so the
    exact check on (x, y) is true by construction; the operators under test
    should make every route's verdict true on (U x, U y).
    """
    eps = epsilon_value(eps)
    U.check_fits(spec)
    x, y = draw_orthogonal_pair(spec, rng)
    ux = apply_operator(U, x)
    uy = apply_operator(U, y)
    direct = is_approx_bj_orthogonal(ux, uy, eps, spec, tol)
    second = certificate_check(ux, uy, eps, spec, tol)  # the sip criterion for p > 1
    route = "certificate" if spec.p == 1.0 else "sip"
    return TrialRecord(x=x, y=y, direct=direct, second_route=route, second=second)
