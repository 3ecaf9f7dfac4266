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
    _duality_stack,
    _norm_from_block_norms,  # noqa: F401  perfbench/test_perfbench.py reads it here
    _norm_rows,
    check_shape,
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
    W = _sip_weight_rows(check_shape(g, spec)[None], spec)[1][0]
    return float(np.einsum("ij,ij->", W, fb))  # W = 0 at g = 0


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
        worst = max(self.first_slot_linearity, self.second_slot_homogeneity,
                    self.cauchy_schwarz, self.norm_compatibility)
        return worst / self.scale

    def passes(self) -> bool:
        return self.max_relative() <= DEFAULT_TOL


def _axiom_reports(F: np.ndarray, G: np.ndarray, H: np.ndarray, a: np.ndarray,
                   b: np.ndarray, spec: SpaceSpec) -> list[SipAxiomReport]:
    """sip_axiom_report of each sample of (B, n, d) stacks f, g, h and (B,)
    scalars a, b: one weight kernel call for all 4B elements, then each
    sample's full contractions on Python floats, which keep its bits."""
    B = len(F)
    norms, W = _sip_weight_rows(np.concatenate((F, G, H, a[:, None, None] * G)), spec)
    w_f, w_g, w_h, w_ag = W[:B], W[B:2 * B], W[2 * B:3 * B], W[3 * B:]
    norms_f, norms_g, norms_h, _ = norms.reshape(4, B).tolist()

    def pair(w, blocks):
        return float(np.einsum("ij,ij->", w, blocks))

    reports = []
    for k, (ak, bk, nf, ng, nh) in enumerate(zip(a.tolist(), b.tolist(),
                                                norms_f, norms_g, norms_h)):
        fb, gb, wh = F[k], G[k], w_h[k]
        fg = pair(w_g[k], fb)
        scale = (1.0 + nf) * (1.0 + ng) * (1.0 + nh) * (1.0 + abs(ak) + abs(bk)) ** 2
        lin = abs(pair(wh, ak * fb + bk * gb) - ak * pair(wh, fb) - bk * pair(wh, gb))
        hom = abs(pair(w_ag[k], fb) - ak * fg)
        cs = max(0.0, abs(fg) - nf * ng)
        norm_gap = abs(pair(w_f[k], fb) - nf * nf)
        reports.append(SipAxiomReport(
            first_slot_linearity=lin, second_slot_homogeneity=hom,
            cauchy_schwarz=cs, norm_compatibility=norm_gap, scale=scale))
    return reports


def sip_axiom_report(f: BochnerElement, g: BochnerElement, h: BochnerElement,
                     a: float, b: float, spec: SpaceSpec) -> SipAxiomReport:
    """Evaluate all four axiom residuals on one sample (f, g, h, a, b)."""
    _require_smooth_lp(spec)
    f, g, h = (check_shape(e, spec)[None] for e in (f, g, h))
    return _axiom_reports(f, g, h, np.array([float(a)]), np.array([float(b)]), spec)[0]


def sip_orthogonality_criterion(x: BochnerElement, y: BochnerElement, eps,
                                spec: SpaceSpec) -> CheckResult:
    """Smooth-space criterion: x approximately orthogonal to y iff
    |[y, x]| <= eps ||x|| ||y||.  Note the order: x sits in the second slot.

    |[y, x]|/||x|| = |T_x(y)| for the support functional T_x of x, so this is
    certificate_check for p > 1, with margin (eps ||y|| - |T_x(y)|)/||y||.
    """
    _require_smooth_lp(spec)
    return certificate_check(x, y, eps, spec)
