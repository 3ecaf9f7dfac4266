import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bjlab import (
    BadSpec,
    BochnerElement,
    NonFiniteValue,
    NotSmooth,
    SpaceSpec,
    UnsupportedExponent,
    ZeroElement,
    bochner_norm,
    draw_orthogonal_pair,
    is_approx_bj_orthogonal,
    min_certificate_value,
    random_element,
    semi_inner_product,
    sip_axiom_report,
    sip_orthogonality_criterion,
)
from conftest import rng_for, scalars, spec_with_elements

SMOOTH = dict(ps=(1.5, 2.0, 3.0, 4.0), qs=(1.5, 2.0, 3.0))


@given(spec_with_elements(count=1, **SMOOTH))
def test_sip_norm_compatibility(data):
    spec, f = data
    nf = bochner_norm(f, spec)
    assert semi_inner_product(f, f, spec) == pytest.approx(nf * nf, rel=1e-10, abs=1e-12)


@given(spec_with_elements(count=2, ps=(2.0,), qs=(2.0,)))
def test_sip_hilbert_reduction(data):
    spec, f, g = data
    dot = float(spec.mu @ np.einsum("ij,ij->i", f.blocks, g.blocks))
    assert semi_inner_product(f, g, spec) == pytest.approx(dot, rel=1e-12, abs=1e-12)


def test_sip_blockwise_orthogonal_vanishes():
    for p in (1.5, 2.0, 3.0):
        spec = SpaceSpec(p, 2, 1, 2, (1.0,))
        f = BochnerElement.from_lists([[1.0, 0.0]])
        g = BochnerElement.from_lists([[0.0, 1.0]])
        assert semi_inner_product(f, g, spec) == pytest.approx(0.0, abs=1e-15)


def test_sip_zero_second_argument():
    spec = SpaceSpec(3, 2, 2, 2, (1.0, 1.0))
    f = BochnerElement.from_lists([[1, 2], [3, 4]])
    zero = BochnerElement(np.zeros((2, 2)))
    assert semi_inner_product(f, zero, spec) == 0.0
    assert semi_inner_product(zero, f, spec) == 0.0


def test_sip_exponent_errors():
    f = BochnerElement(np.ones((2, 2)))
    with pytest.raises(UnsupportedExponent):
        semi_inner_product(f, f, SpaceSpec(1, 2, 2, 2, (1.0, 1.0)))
    with pytest.raises(NotSmooth):
        semi_inner_product(f, f, SpaceSpec(2, 1, 2, 2, (1.0, 1.0)))


def test_axiom_report_zero_sample():
    spec = SpaceSpec(2.5, 2, 2, 2, (1.0, 1.0))
    zero = BochnerElement(np.zeros((2, 2)))
    rep = sip_axiom_report(zero, zero, zero, 0.0, 0.0, spec)
    assert rep.first_slot_linearity == 0.0
    assert rep.second_slot_homogeneity == 0.0
    assert rep.cauchy_schwarz == 0.0
    assert rep.norm_compatibility == 0.0
    assert rep.scale == 1.0


def test_axiom_report_scale_overflow_is_a_typed_error():
    # (1 + |a| + |b|)^2 overflows on Python floats; at q = 1.5 the norms of
    # a g do not
    spec = SpaceSpec(3, 1.5, 2, 2, (1.0, 1.0))
    f = BochnerElement(np.ones((2, 2)))
    with pytest.raises(NonFiniteValue, match="overflowed"):
        sip_axiom_report(f, f, f, 1e200, 0.0, spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a,b", [(math.nan, 0.0), (0.5, math.nan), (math.inf, 0.0),
                                 (0.0, -math.inf), (True, 0.0), ("1", 0.0), (0.0, None)])
def test_axiom_report_rejects_scalars_that_are_not_finite_numbers(a, b):
    # a and b come from the caller: NaN once gave NaN residuals and scale,
    # and inf a bare RuntimeWarning
    spec = SpaceSpec(3, 1.5, 2, 2, (1.0, 1.0))
    f = BochnerElement(np.ones((2, 2)))
    with pytest.raises(BadSpec, match="^a and b must be finite numbers"):
        sip_axiom_report(f, f, f, a, b, spec)


@given(spec_with_elements(count=3, nonzero_first=False, ps=(2.0,), qs=(2.0,)),
       scalars, scalars)
def test_axiom_report_hilbert_case_is_exact(data, a, b):
    spec, f, g, h = data
    rep = sip_axiom_report(f, g, h, a, b, spec)
    assert rep.max_relative() < 1e-12  # true bilinearity, only rounding left


@given(spec_with_elements(count=3, nonzero_first=False,
                          ps=(3.0,), qs=(1.5,)),
       scalars, scalars)
def test_axiom_report_non_hilbert(data, a, b):
    spec, f, g, h = data
    rep = sip_axiom_report(f, g, h, a, b, spec)
    assert rep.passes(), rep


@given(spec_with_elements(count=2, **SMOOTH),
       st.floats(min_value=-6.0, max_value=6.0))
def test_sip_second_slot_homogeneity_both_signs(data, a):
    spec, f, g = data
    lhs = semi_inner_product(f, BochnerElement(a * g.blocks), spec)
    rhs = a * semi_inner_product(f, g, spec)
    scale = (1.0 + bochner_norm(f, spec)) * (1.0 + bochner_norm(g, spec)) * (1.0 + abs(a))
    assert lhs == pytest.approx(rhs, abs=1e-10 * scale)


@given(spec_with_elements(count=2, **SMOOTH))
def test_sip_cauchy_schwarz(data):
    spec, f, g = data
    bound = bochner_norm(f, spec) * bochner_norm(g, spec)
    assert abs(semi_inner_product(f, g, spec)) <= bound * (1.0 + 1e-10) + 1e-12


def test_criterion_matches_euclidean_orthogonality():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 3.0))
    rng = rng_for("crit_euclid")
    for _ in range(50):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        dot = float(spec.mu @ np.einsum("ij,ij->i", x.blocks, y.blocks))
        stat = abs(dot) / (bochner_norm(x, spec) * bochner_norm(y, spec))
        res = sip_orthogonality_criterion(x, y, 0.0, spec)
        if not res.boundary:
            assert res.verdict == (stat <= 1e-9)


def test_criterion_near_critical_pair_matches_direct_route():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x = BochnerElement.from_lists([[1.0, 0.0]])
    y = BochnerElement.from_lists([[0.1, 1.0]])
    res = sip_orthogonality_criterion(x, y, 0.1, spec)
    assert res.verdict  # 0.1 <= 0.1 * sqrt(1.01)
    assert is_approx_bj_orthogonal(x, y, 0.1, spec).verdict


@pytest.mark.parametrize("p,q", [(1.5, 2.0), (3.0, 2.0), (2.0, 1.5), (3.0, 3.0)])
def test_criterion_consistent_with_direct_route(p, q):
    rng = rng_for("crit_consist", int(p * 10 + q))
    spec = SpaceSpec(p, q, 3, 2, (1.0, 0.5, 2.0))
    compared = 0
    for k in range(500):
        eps = float(rng.uniform(0.0, 0.9))
        if k % 3 == 0:
            x, y = draw_orthogonal_pair(spec, rng)
        else:
            x = random_element(spec, rng)
            y = random_element(spec, rng)
        direct = is_approx_bj_orthogonal(x, y, eps, spec)
        crit = sip_orthogonality_criterion(x, y, eps, spec)
        if direct.boundary or crit.boundary or abs(crit.margin) < 1e-3:
            continue  # cross-route sensitivity band
        compared += 1
        assert direct.verdict == crit.verdict, (eps, direct, crit)
    assert compared > 400


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_certificate_value_is_sip_value(p, q):
    # for p > 1 the unique support functional T_x satisfies
    # [y, x] = ||x|| T_x(y), so the certificate and semi-inner-product routes
    # are one computation; both sums cancel when the value is small, so the
    # error is bounded relative to ||y||, the scale of both routes' margins
    rng = rng_for("cert_is_sip", int(p * 10 + q))
    for n, d in ((1, 1), (3, 2), (5, 3)):
        spec = SpaceSpec(p, q, n, d, tuple(rng.uniform(0.2, 3.0, n)))
        for _ in range(50):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            value = abs(semi_inner_product(y, x, spec)) / bochner_norm(x, spec)
            assert abs(min_certificate_value(x, y, spec) - value) <= (
                2e-14 * bochner_norm(y, spec))


def test_criterion_zero_cases():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x = BochnerElement.from_lists([[1.0, 0.0]])
    zero = BochnerElement(np.zeros((1, 2)))
    assert sip_orthogonality_criterion(x, zero, 0.2, spec).verdict
    with pytest.raises(ZeroElement):
        sip_orthogonality_criterion(zero, x, 0.2, spec)
