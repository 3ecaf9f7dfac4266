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

from dataclasses import dataclass

import numpy as np

from .blockspace import (
    DEFAULT_TOL,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    _norm_from_block_norms,  # noqa: F401  perfbench/test_perfbench.py reads it here
    check_shape,
    duality_weights,
)
from .errors import UnsupportedExponent
from .ortho import certificate_check


def _require_smooth_lp(spec: SpaceSpec):
    if spec.p == 1.0:  # SpaceSpec already keeps p finite
        raise UnsupportedExponent("semi-inner product needs p > 1")
    spec.require_smooth_inner()


def semi_inner_product(f: BochnerElement, g: BochnerElement,
                       spec: SpaceSpec) -> float:
    """[f, g]; 0 when g = 0 (the definition's g = 0 branch).

    Computed as ||g|| * sum_i mu_i (||g_i||/||g||)^(p-1) F_{g_i}.f_i over
    nonzero blocks of g, which keeps every power argument <= 1.
    """
    _require_smooth_lp(spec)
    fb = check_shape(f, spec)
    gb = check_shape(g, spec)
    ng, W = _sip_weights(gb, spec)
    if ng == 0.0:
        return 0.0
    return float(np.einsum("ij,ij->", W, fb))


def _sip_weights(gb: np.ndarray, spec: SpaceSpec) -> tuple[float, np.ndarray]:
    """(||g||, W) with [f, g] = sum_ij W_ij f_ij: the duality kernel's rows
    of g scaled by ||g|| mu_i (||g_i||/||g||)^(p-1)."""
    ng, _, w, F = duality_weights(gb, spec)
    return ng, (ng * spec.mu * w)[:, None] * F


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
        worst = max(self.first_slot_linearity, self.second_slot_homogeneity,
                    self.cauchy_schwarz, self.norm_compatibility)
        return worst / self.scale

    def passes(self, tol: float = 1e-9) -> bool:
        return self.max_relative() <= tol


def sip_axiom_report(f: BochnerElement, g: BochnerElement, h: BochnerElement,
                     a: float, b: float, spec: SpaceSpec) -> SipAxiomReport:
    """Evaluate all four axiom residuals on one sample (f, g, h, a, b)."""
    _require_smooth_lp(spec)
    a = float(a)
    b = float(b)
    fb = check_shape(f, spec)
    gb = check_shape(g, spec)
    hb = check_shape(h, spec)
    nf, w_f = _sip_weights(fb, spec)
    ng, w_g = _sip_weights(gb, spec)
    nh, w_h = _sip_weights(hb, spec)
    _, w_ag = _sip_weights(a * gb, spec)
    scale = (1.0 + nf) * (1.0 + ng) * (1.0 + nh) * (1.0 + abs(a) + abs(b)) ** 2

    def pair(w, blocks):
        return float(np.einsum("ij,ij->", w, blocks))

    lin = abs(pair(w_h, a * fb + b * gb) - a * pair(w_h, fb) - b * pair(w_h, gb))
    hom = abs(pair(w_ag, fb) - a * pair(w_g, fb))
    cs = max(0.0, abs(pair(w_g, fb)) - nf * ng)
    norm_gap = abs(pair(w_f, fb) - nf * nf)
    return SipAxiomReport(first_slot_linearity=lin, second_slot_homogeneity=hom,
                          cauchy_schwarz=cs, norm_compatibility=norm_gap,
                          scale=scale)


def sip_orthogonality_criterion(x: BochnerElement, y: BochnerElement, eps,
                                spec: SpaceSpec, tol: float = DEFAULT_TOL) -> CheckResult:
    """Smooth-space criterion: x approximately orthogonal to y iff
    |[y, x]| <= eps ||x|| ||y||.  Note the order: x sits in the second slot.

    |[y, x]|/||x|| = |T_x(y)| for the support functional T_x of x, so this is
    certificate_check for p > 1, with margin (eps ||y|| - |T_x(y)|)/||y||.
    """
    _require_smooth_lp(spec)
    return certificate_check(x, y, eps, spec, tol)
