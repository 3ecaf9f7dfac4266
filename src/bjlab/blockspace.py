"""Discretized vector-valued L^p space: norms, dual pairing, support functionals.

The measure space is n atoms with masses mu_i > 0; elements are n blocks in
R^d, each block normed by an inner l^q norm.  Every integral is a finite
weighted sum, so duality and support functionals have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpec,
    NonFiniteValue,
    NotSmooth,
    ShapeMismatch,
    ZeroElement,
    ZeroVector,
)

# Default decision tolerance (relative) for orthogonality verdicts.
DEFAULT_TOL = 1e-9
# Relative threshold below which a block counts as zero.
DEFAULT_ZERO_TOL = 1e-12
# Verdicts with margins within BOUNDARY_BAND * tol of the threshold are
# reported as boundary cases rather than forced.
BOUNDARY_BAND = 10.0
# Margins of minimization-based checks sit at exactly 0 on passes (the
# objective vanishes at alpha = 0); anything above this floor is rounding
# noise, not an uncertain verdict.
ONE_SIDED_NOISE_FLOOR = 1e-13


def dual_exponent(r: float) -> float:
    """Conjugate exponent r* with 1/r + 1/r* = 1; handles r in {1, inf}."""
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of the discretized space: outer exponent p over n weighted
    atoms, blocks of dimension d normed by l^q."""

    p: float
    q: float
    n: int
    d: int
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise BadSpec(f"p must satisfy 1 <= p < inf, got {self.p}")
        if not self.q >= 1.0:
            raise BadSpec(f"q must satisfy 1 <= q <= inf, got {self.q}")
        if self.n < 1 or self.d < 1:
            raise BadSpec(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if len(self.weights) != self.n:
            raise BadSpec(f"expected {self.n} weights, got {len(self.weights)}")
        if not all(w > 0.0 and math.isfinite(w) for w in self.weights):
            raise BadSpec("all weights must be positive and finite")
        object.__setattr__(self, "_mu", np.asarray(self.weights, dtype=float))

    @classmethod
    def sequence(cls, p: float, q: float, n: int, d: int) -> "SpaceSpec":
        """Sequence-space instance: n atoms of unit mass."""
        return cls(p=p, q=q, n=n, d=d, weights=(1.0,) * n)

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    @property
    def smooth_inner(self) -> bool:
        """True when the inner norm is Frechet differentiable (1 < q < inf)."""
        return 1.0 < self.q < math.inf

    @property
    def dual_p(self) -> float:
        return dual_exponent(self.p)

    @property
    def dual_q(self) -> float:
        return dual_exponent(self.q)

    def to_dict(self) -> dict:
        q = "inf" if math.isinf(self.q) else self.q
        return {"p": self.p, "q": q, "n": self.n, "d": self.d,
                "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceSpec":
        q = data["q"]
        if isinstance(q, str):
            if q.lower() not in ("inf", "infinity"):
                raise BadSpec(f"unrecognized q value {q!r}")
            q = math.inf
        return cls(p=data["p"], q=q, n=int(data["n"]), d=int(data["d"]),
                   weights=tuple(data["weights"]))


def _as_blocks(blocks, what: str) -> np.ndarray:
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{what} must be a 2-d array of blocks, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{what} contains non-finite entries")
    return arr


@dataclass
class BochnerElement:
    """A space element: block i is the value on atom i (an R^d vector)."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks, "element")

    @classmethod
    def from_lists(cls, rows) -> "BochnerElement":
        return cls(np.array(rows, dtype=float))

    def to_lists(self) -> list[list[float]]:
        return self.blocks.tolist()

    def __add__(self, other: "BochnerElement") -> "BochnerElement":
        return BochnerElement(self.blocks + other.blocks)

    def __sub__(self, other: "BochnerElement") -> "BochnerElement":
        return BochnerElement(self.blocks - other.blocks)

    def __mul__(self, a: float) -> "BochnerElement":
        return BochnerElement(self.blocks * float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "BochnerElement":
        return BochnerElement(-self.blocks)


@dataclass
class BlockFunctional:
    """A dual element: block i acts on atom i, pairing sum_i mu_i T_i.g_i."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks, "functional")

    @classmethod
    def from_lists(cls, rows) -> "BlockFunctional":
        return cls(np.array(rows, dtype=float))

    def to_lists(self) -> list[list[float]]:
        return self.blocks.tolist()


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an orthogonality query.

    margin is the signed distance from the defining inequality's boundary
    (relative units); verdict == (margin >= -tol) for the tolerance in force.
    boundary marks verdicts too close to the threshold to trust.
    """

    verdict: bool
    margin: float
    alpha_star: float | None = None
    certificate: BlockFunctional | None = None
    boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "verdict", bool(self.verdict))
        object.__setattr__(self, "margin", float(self.margin))
        object.__setattr__(self, "boundary", bool(self.boundary))
        if self.alpha_star is not None:
            object.__setattr__(self, "alpha_star", float(self.alpha_star))


def check_shape(x, spec: SpaceSpec, what: str = "element") -> np.ndarray:
    blocks = x.blocks
    if blocks.shape != (spec.n, spec.d):
        raise ShapeMismatch(
            f"{what} has shape {blocks.shape}, space expects {(spec.n, spec.d)}")
    return blocks


def inner_norm(v, q: float) -> float:
    """l^q norm of a single block; q may be inf."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("vector contains non-finite entries")
    if q < 1.0:
        raise BadSpec(f"q must be >= 1, got {q}")
    return float(block_norms(v.reshape(1, -1), q)[0]) if v.size else 0.0


def block_norms(blocks: np.ndarray, q: float) -> np.ndarray:
    """Row-wise l^q norms, scaled to avoid overflow for large q."""
    a = np.abs(blocks)
    if math.isinf(q):
        return a.max(axis=1)
    if q == 1.0:
        return a.sum(axis=1)
    if q == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", blocks, blocks))
    m = a.max(axis=1)
    safe = np.where(m > 0.0, m, 1.0)  # zero rows stay zero: 0 ** (1/q) = 0
    return safe * ((a / safe[:, None]) ** q).sum(axis=1) ** (1.0 / q)


def inner_duality_map(v, q: float) -> np.ndarray:
    """Unique norming functional F_v of a nonzero block in smooth l^q.

    Components sign(v_j)|v_j|^(q-1) / ||v||_q^(q-1); satisfies F_v.v = ||v||_q
    and ||F_v||_{q*} = 1.  Equals the gradient of the l^q norm at v.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("vector contains non-finite entries")
    if q == 1.0 or math.isinf(q):
        raise NotSmooth(f"duality map is set-valued for q={q}")
    if q < 1.0:
        raise BadSpec(f"q must be > 1, got {q}")
    if not np.any(v):
        raise ZeroVector("duality map undefined at 0")
    row = v.reshape(1, -1)
    return _duality_rows(row, q, np.ones(1, dtype=bool), block_norms(row, q))[0]


def _duality_rows(blocks: np.ndarray, q: float, active: np.ndarray,
                  norms: np.ndarray) -> np.ndarray:
    """Row-wise duality map; rows outside `active` come back zero.

    norms holds the rows' l^q norms, block_norms(blocks, q).
    """
    out = np.zeros_like(blocks)
    if active.any():
        sub = blocks[active]
        m = np.abs(sub).max(axis=1, keepdims=True)
        sub = sub / m
        bn = norms[active] / m[:, 0]
        out[active] = np.sign(sub) * np.abs(sub) ** (q - 1.0) / bn[:, None] ** (q - 1.0)
    return out


def _weighted_lp(b: np.ndarray, mu: np.ndarray, p: float) -> float:
    """(sum_i mu_i b_i^p)^(1/p) of nonnegative b, scaled by max(b) to avoid
    overflow; max(b) at p = inf."""
    if p == 1.0:
        return float(mu @ b)
    if p == 2.0:
        return float(np.sqrt(mu @ (b * b)))
    m = float(b.max())
    if m == 0.0 or math.isinf(p):
        return m
    return m * float(mu @ (b / m) ** p) ** (1.0 / p)


def _norm_from_block_norms(b: np.ndarray, spec: SpaceSpec) -> float:
    return _weighted_lp(b, spec.mu, spec.p)


def _norm_arr(blocks: np.ndarray, spec: SpaceSpec) -> float:
    """bochner norm on a raw block array (hot path, no validation)."""
    return _norm_from_block_norms(block_norms(blocks, spec.q), spec)


def bochner_norm(f: BochnerElement, spec: SpaceSpec) -> float:
    """(sum_i mu_i ||f_i||_q^p)^(1/p)."""
    return _norm_arr(check_shape(f, spec), spec)


def zero_set(f: BochnerElement, tol: float | None = None, q: float = 2.0) -> frozenset[int]:
    """Indices of blocks with ||f_i||_q <= tol.

    tol defaults to DEFAULT_ZERO_TOL relative to the largest block norm,
    since elements come from floating-point arithmetic.
    """
    b = block_norms(f.blocks, q)
    if tol is None:
        tol = DEFAULT_ZERO_TOL * (float(b.max()) if b.size else 0.0)
    elif tol < 0.0:
        raise BadSpec(f"tol must be >= 0, got {tol}")
    return frozenset(int(i) for i in np.nonzero(b <= tol)[0])


def duality_weights(blocks: np.ndarray, spec: SpaceSpec
                    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The blockwise duality map of f: (||f||, b, w, F).

    b holds the block norms ||f_i||_q, w the row weights (b_i/||f||)^(p-1)
    and F the norming functionals of the blocks above DEFAULT_ZERO_TOL
    (relative to the largest block norm), zero rows elsewhere.  The support
    functional of f is w[:, None] * F, and the semi-inner product is
    [g, f] = ||f|| sum_i mu_i w_i F_i.g_i.  At f = 0 the norm is 0 and w, F
    are zero.
    """
    b = block_norms(blocks, spec.q)
    nf = _norm_from_block_norms(b, spec)
    if nf == 0.0:
        return 0.0, b, np.zeros_like(b), np.zeros_like(blocks)
    F = _duality_rows(blocks, spec.q, b > DEFAULT_ZERO_TOL * float(b.max()), b)
    return nf, b, (b / nf) ** (spec.p - 1.0), F


def _support_rows(blocks: np.ndarray, spec: SpaceSpec) -> tuple[float, np.ndarray]:
    """(||f||, blocks of the support functional of f); raises NotSmooth
    unless 1 < q < inf and ZeroElement at f = 0."""
    if not spec.smooth_inner:
        raise NotSmooth(f"support functionals need 1 < q < inf, got q={spec.q}")
    nf, _, w, F = duality_weights(blocks, spec)
    if nf == 0.0:
        raise ZeroElement("support functional undefined at 0")
    return nf, w[:, None] * F


def support_functional(f: BochnerElement, spec: SpaceSpec) -> BlockFunctional:
    """Canonical norm-one functional T with T(f) = ||f||.

    Blockwise: the norming functional of each nonzero block, weighted by
    (||f_i||_q / ||f||)^(p-1) (1 when p = 1); zero on zero blocks.  The
    zero-block entries of the dual ball's remaining freedom (p = 1 only) are
    fixed to 0 here; ortho.min_certificate_value optimizes over that freedom
    instead.
    """
    return BlockFunctional(_support_rows(check_shape(f, spec), spec)[1])


def _pairing(tb: np.ndarray, gb: np.ndarray, spec: SpaceSpec) -> float:
    """sum_i mu_i T_i.g_i on raw block arrays."""
    return float(spec.mu @ np.einsum("ij,ij->i", tb, gb))


def apply_functional(T: BlockFunctional, g: BochnerElement, spec: SpaceSpec) -> float:
    """Dual pairing sum_i mu_i T_i.g_i."""
    return _pairing(check_shape(T, spec, "functional"), check_shape(g, spec), spec)


def functional_norm(T: BlockFunctional, spec: SpaceSpec) -> float:
    """Operator norm of a block functional: the weighted l^{p*} aggregate of
    the block dual norms ||T_i||_{q*}, the discrete L^{p*} duality (the max
    at p = 1, since the dual of L^1 is L^inf)."""
    tb = check_shape(T, spec, "functional")
    return _weighted_lp(block_norms(tb, spec.dual_q), spec.mu, spec.dual_p)


def outcome(*results: CheckResult) -> str:
    """A row's outcome over its check results: boundary when any is flagged
    boundary, else pass when every verdict holds, else fail."""
    if any(r.boundary for r in results):
        return "boundary"
    return "pass" if all(r.verdict for r in results) else "fail"
