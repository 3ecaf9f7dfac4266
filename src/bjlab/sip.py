"""Semi-inner product compatible with the norm of the discretized space.

For 1 < p < inf and smooth inner norm, [f, g] aggregates the blockwise
norming functionals of g against f, weighted by ||g_i||^(p-1), with the
prefactor 1/||g||^(p-2).  It is linear in the first slot, homogeneous in the
second, bounded by ||f|| ||g||, and has [f, f] = ||f||^2.

The smooth-space orthogonality criterion |[y, x]| <= eps ||x|| ||y|| is the
certificate check, since |[y, x]|/||x|| is the value of x's support functional
at y; semi_inner_product stays a separate computation of [f, g], which the
tests compare against the certificate value.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .blockspace import (
    DEFAULT_TOL,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    _duality_stack,
    _is_number,
    _norm_from_block_norms,  # noqa: F401  perfbench/test_perfbench.py reads it here
    _norm_rows,
    check_shape,
)
from .errors import BadSpec, NonFiniteValue, UnsupportedExponent
from .ortho import _py_max, _squares, certificate_check


def _require_smooth_lp(spec: SpaceSpec):
    if spec.p == 1.0:  # SpaceSpec already keeps p finite
        raise UnsupportedExponent("semi-inner product needs p > 1")
    spec.require_smooth_inner()


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range raises
def semi_inner_product(f: BochnerElement, g: BochnerElement,
                       spec: SpaceSpec) -> float:
    """[f, g]; 0 when g = 0 (the definition's g = 0 branch).

    Computed as ||g|| * sum_i mu_i (||g_i||/||g||)^(p-1) F_{g_i}.f_i over
    nonzero blocks of g, which keeps every power argument <= 1.
    """
    _require_smooth_lp(spec)
    fb = check_shape(f, spec)
    W = _sip_weight_rows(check_shape(g, spec)[None], spec)[1][0]
    value = float(np.einsum("ij,ij->", W, fb))  # W = 0 at g = 0
    if not np.isfinite(value):  # W's or f's terms past the float range: inf, or inf - inf
        raise NonFiniteValue("semi-inner product is past the float range")
    return value


def _sip_weight_rows(stack: np.ndarray, spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """(||g||, W) for each row g of a (B, n, d) stack, with
    [f, g] = sum_ij W_ij f_ij: the duality kernel's rows of g scaled by
    ||g|| mu_i (||g_i||/||g||)^(p-1), and W = 0 at g = 0."""
    b, norms = _norm_rows(stack, spec)
    # a zero row divides by 1: its block norms and functionals are all zero
    w, F = _duality_stack(stack, b, np.where(norms > 0.0, norms, 1.0), spec)
    # w and F multiply into W separately: w * F first rounds differently
    return norms, (norms[:, None] * spec.mu * w)[..., None] * F


@dataclass(frozen=True)
class SipAxiomReport:
    """Absolute residuals of the four semi-inner-product axioms, plus the
    scale they are measured against."""

    first_slot_linearity: float   # |[af+bg, h] - a[f,h] - b[g,h]|
    second_slot_homogeneity: float  # |[f, ag] - a[f,g]|  (real scalars)
    cauchy_schwarz: float         # max(0, |[f,g]| - ||f|| ||g||)
    norm_compatibility: float     # |[f,f] - ||f||^2|
    scale: float

    def max_relative(self) -> float:
        return float(_axiom_rule(*astuple(self))[0])

    def passes(self) -> bool:
        return bool(_axiom_rule(*astuple(self))[1])


def _axiom_rule(lin, hom, cs, norm_gap, scale) -> tuple[np.ndarray, np.ndarray]:
    """(max(lin, hom, cs, norm_gap) / scale, passes) of each sample, the max
    taken in Python's order and passing at <= DEFAULT_TOL."""
    relative = _py_max(_py_max(_py_max(lin, hom), cs), norm_gap) / scale
    return relative, relative <= DEFAULT_TOL


# Entries of NumPy's einsum buffer, which np.setbufsize does not change
# (measured with NumPy 2.4.6): a call over rows of at most this many entries
# gives each row the bits of its own np.einsum("ij,ij->"); a call over two
# rows of (1500, 8) does not, and a call over one row does up to (4096, 8).
EINSUM_BUFFER = 8192


@np.errstate(over="ignore", invalid="ignore")  # a term past the float range raises
def _axiom_reports(F: np.ndarray, G: np.ndarray, H: np.ndarray, a: np.ndarray,
                   b: np.ndarray, spec: SpaceSpec) -> tuple[np.ndarray, ...]:
    """SipAxiomReport's five columns and passes() of each sample of (B, n, d)
    stacks f, g, h and (B,) scalars a, b, as (B,) arrays with the bits of the
    sample alone: one weight kernel call for all 4B elements, and each
    pairing one einsum per EINSUM_BUFFER // (n d) rows.  Raises
    NonFiniteValue when a sample's residual or scale is not finite."""
    norms, W = _sip_weight_rows(np.concatenate((F, G, H, a[:, None, None] * G)), spec)
    w_f, w_g, w_h, w_ag = W.reshape(4, *F.shape)
    nf, ng, nh, _ = norms.reshape(4, -1)
    rows = max(1, EINSUM_BUFFER // (spec.n * spec.d))

    def pair(w, blocks):
        return np.concatenate([np.einsum("bij,bij->b", w[k:k + rows], blocks[k:k + rows])
                               for k in range(0, len(F), rows)])

    fg = pair(w_g, F)
    lin = np.abs(pair(w_h, a[:, None, None] * F + b[:, None, None] * G)
                 - a * pair(w_h, F) - b * pair(w_h, G))
    hom = np.abs(pair(w_ag, F) - a * fg)
    cs = _py_max(0.0, np.abs(fg) - nf * ng)
    norm_gap = np.abs(pair(w_f, F) - nf * nf)
    scale = (1.0 + nf) * (1.0 + ng) * (1.0 + nh) * _squares(1.0 + np.abs(a) + np.abs(b))
    columns = (lin, hom, cs, norm_gap, scale)
    if not np.isfinite(columns).all():  # inf, or NaN from inf - inf or inf * 0
        raise NonFiniteValue("an axiom residual or the scale overflowed")
    return *columns, _axiom_rule(*columns)[1]


def sip_axiom_report(f: BochnerElement, g: BochnerElement, h: BochnerElement,
                     a: float, b: float, spec: SpaceSpec) -> SipAxiomReport:
    """Evaluate all four axiom residuals on one sample (f, g, h, a, b);
    raises BadSpec unless a and b are finite numbers."""
    _require_smooth_lp(spec)
    if not all(_is_number(v) and np.isfinite(v) for v in (a, b)):
        raise BadSpec(f"a and b must be finite numbers, got {a!r} and {b!r}")
    f, g, h = (check_shape(e, spec)[None] for e in (f, g, h))
    *columns, _ = _axiom_reports(f, g, h, np.array([float(a)]), np.array([float(b)]), spec)
    return SipAxiomReport(*(float(c[0]) for c in columns))


def sip_orthogonality_criterion(x: BochnerElement, y: BochnerElement, eps,
                                spec: SpaceSpec) -> CheckResult:
    """Smooth-space criterion: x approximately orthogonal to y iff
    |[y, x]| <= eps ||x|| ||y||.  Note the order: x sits in the second slot.

    |[y, x]|/||x|| = |T_x(y)| for the support functional T_x of x, so this is
    certificate_check for p > 1, with margin (eps ||y|| - |T_x(y)|)/||y||.
    """
    _require_smooth_lp(spec)
    return certificate_check(x, y, eps, spec)
