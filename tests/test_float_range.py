"""Inputs across the whole float range: every public one-pair function and
harness.run either return finite results or raise a BjlabError, never a bare
builtin exception or a numpy RuntimeWarning, and never a NaN verdict."""

import json
import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from bjlab import (
    AtomPartition,
    BjlabError,
    BochnerElement,
    CheckResult,
    ExperimentConfig,
    NonFiniteValue,
    SipAxiomReport,
    SpaceSpec,
    apply_functional,
    bochner_norm,
    certificate_check,
    functional_norm,
    is_approx_bj_orthogonal,
    is_bj_orthogonal,
    make_orthogonal_partner,
    min_certificate_value,
    parse_config,
    run,
    semi_inner_product,
    sip_axiom_report,
    sip_orthogonality_criterion,
    support_functional,
)
from bjlab.cli import main
from bjlab.harness import MODES

# row 0 of the first writes res_linearity 3.62e189 and scale inf; the
# second writes NaN residuals.  Both once counted as passes.
AXIOMS_PAST_THE_RANGE = [
    {"mode": "axioms", "trials": 5, "seed": 127,
     "spec": {"p": 2, "q": 3, "n": 3, "d": 2,
              "weights": [6.745544840643914e-138, 1.4047295372380827e+205,
                          3.2320762172137424e-140]}},
    {"mode": "axioms", "trials": 5, "seed": 0,
     "spec": {"p": 2, "q": 1.5, "n": 4, "d": 2,
              "weights": [7.925279256138181e+60, 1.634575643029538e-283,
                          5.697059384935239e-212, 8.445274617550915e+256]}},
]


@pytest.mark.parametrize("data", AXIOMS_PAST_THE_RANGE)
def test_axiom_rows_past_the_float_range_raise(data, tmp_path, capsys):
    with pytest.raises(NonFiniteValue, match="^an axiom residual or the scale overflowed$"):
        run(parse_config(json.dumps(data)), echo=False)
    path = tmp_path / "axioms.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["axioms", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bjlab: error: NonFiniteValue: ") and "Traceback" not in err


def test_an_axiom_sample_whose_terms_overflow_raises():
    # b g overflows in the linearity residual
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    f = BochnerElement([[1e308, 1e308]])
    with pytest.raises(NonFiniteValue, match="overflowed"):
        sip_axiom_report(f, f, BochnerElement([[1, 1]]), 0.5, -2, spec)


X = BochnerElement([[1, 0], [0, 0]])
Y = BochnerElement([[0, 1], [1, 1]])


def test_a_p1_support_weight_on_a_subnormal_atom_is_one():
    # ||x|| = 5e-324, so ||x_0|| / ||x|| overflows; at p = 1 its power is 1
    spec = SpaceSpec(1, 2, 2, 2, (5e-324, 1.0))
    assert support_functional(X, spec).to_lists() == [[1.0, 0.0], [0.0, 0.0]]
    assert certificate_check(X, Y, 0.5, spec).margin == 0.5
    assert min_certificate_value(X, Y, spec) == 0.0
    assert make_orthogonal_partner(X, Y, spec).to_lists() == Y.to_lists()


def test_a_support_weight_past_the_float_range_raises():
    # at p = 50 the same quotient's 49th power is past the range
    spec = SpaceSpec(50, 2, 2, 2, (5e-324, 1.0))
    with pytest.raises(NonFiniteValue, match="^a support weight is past the float range$"):
        certificate_check(X, Y, 0.5, spec)
    for call in (lambda: support_functional(X, spec),
                 lambda: min_certificate_value(X, Y, spec),
                 lambda: make_orthogonal_partner(X, Y, spec)):
        with pytest.raises(NonFiniteValue, match="support weight"):
            call()


def test_a_partner_projection_past_the_float_range_raises():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    with pytest.raises(NonFiniteValue):
        make_orthogonal_partner(BochnerElement([[1e-300, 1e-300]]),
                                BochnerElement([[1e300, 0]]), spec)


def test_line_points_past_the_float_range_raise_in_both_minimizations():
    spec = SpaceSpec(1, 2, 2, 2, (1.0, 1e-300))
    x = BochnerElement([[1e10, 0], [0, 0]])
    y = BochnerElement([[0, 0], [0, 1e200]])
    for check in (is_bj_orthogonal, lambda x, y, spec: is_approx_bj_orthogonal(x, y, 0.1, spec)):
        with pytest.raises(NonFiniteValue, match=r"^objective returned inf at alpha=-4e\+110$"):
            check(x, y, spec)


def test_semi_inner_product_weights_past_the_float_range_raise():
    spec = SpaceSpec(2, 2, 1, 2, (1e300,))
    with pytest.raises(NonFiniteValue, match="^semi-inner product is past the float range$"):
        semi_inner_product(BochnerElement([[1e10, 0]]), BochnerElement([[1e10, 1]]), spec)


# ROADMAP item 9's domain: entries sign 10^U(-320, 308), some blocks zero,
# atom masses 10^U(-300, 300)
PS = (1.0, 1.5, 2.0, 3.0, 50.0)
QS = (1.5, 2.0, 3.0)
entries = st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from((-1.0, 1.0)),
                    st.floats(-320.0, 308.0))
masses = st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 3))
    return SpaceSpec(draw(st.sampled_from(PS)), draw(st.sampled_from(QS)), n,
                     draw(st.integers(1, 2)), tuple(draw(masses) for _ in range(n)))


@st.composite
def elements(draw, spec):
    zero = [0.0] * spec.d
    return BochnerElement([zero if draw(st.integers(0, 3)) == 0
                           else [draw(entries) for _ in range(spec.d)]
                           for _ in range(spec.n)])


@st.composite
def one_pair_calls(draw):
    spec = draw(spaces())
    x, y, h = (draw(elements(spec)) for _ in range(3))
    eps = draw(st.sampled_from((0.0, 0.3)))
    a, b = (draw(st.floats(-4.0, 4.0)) for _ in range(2))
    return spec, x, y, h, eps, a, b


def outcome_of(call, *args):
    """call(*args), or None when it raises a BjlabError; a RuntimeWarning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(*args)
        except BjlabError:
            return None


def assert_finite(value):
    if isinstance(value, CheckResult):
        assert math.isfinite(value.margin), value
    elif isinstance(value, SipAxiomReport):
        assert all(map(math.isfinite, vars(value).values())), value
    elif isinstance(value, float):
        assert math.isfinite(value)


@settings(max_examples=150)
@example((SpaceSpec(2, 2, 1, 2, (1.0,)), BochnerElement([[1e308, 1e308]]),
          BochnerElement([[1e308, 1e308]]), BochnerElement([[1, 1]]), 0.0, 0.5, -2.0))
@example((SpaceSpec(1, 2, 2, 2, (5e-324, 1.0)), X, Y, Y, 0.5, 0.0, 0.0))
@example((SpaceSpec(50, 2, 2, 2, (5e-324, 1.0)), X, Y, Y, 0.5, 0.0, 0.0))
@example((SpaceSpec(2, 2, 1, 2, (1.0,)), BochnerElement([[1e-300, 1e-300]]),
          BochnerElement([[1e300, 0]]), X, 0.0, 0.0, 0.0))
@example((SpaceSpec(1, 2, 2, 2, (1.0, 1e-300)), BochnerElement([[1e10, 0], [0, 0]]),
          BochnerElement([[0, 0], [0, 1e200]]), Y, 0.0, 0.0, 0.0))
@example((SpaceSpec(2, 2, 1, 2, (1e300,)), BochnerElement([[1e10, 0]]),
          BochnerElement([[1e10, 1]]), BochnerElement([[1, 1]]), 0.0, 0.0, 0.0))
@given(one_pair_calls())
def test_the_one_pair_api_raises_only_typed_errors(data):
    spec, x, y, h, eps, a, b = data
    # bochner_norm and functional_norm may read inf, as documented
    outcome_of(bochner_norm, x, spec)
    T = outcome_of(support_functional, x, spec)
    if T is not None:
        outcome_of(functional_norm, T, spec)
        assert_finite(outcome_of(apply_functional, T, y, spec))
    for call, args in [(is_bj_orthogonal, (x, y)), (is_approx_bj_orthogonal, (x, y, eps)),
                       (certificate_check, (x, y, eps)), (min_certificate_value, (x, y)),
                       (make_orthogonal_partner, (x, y)), (semi_inner_product, (x, y)),
                       (sip_orthogonality_criterion, (x, y, eps)),
                       (sip_axiom_report, (x, y, h, a, b))]:
        assert_finite(outcome_of(call, *args, spec))
    for op in (x.__add__, x.__sub__):
        outcome_of(op, y)
    outcome_of(x.__mul__, a)


@st.composite
def run_configs(draw):
    spec = draw(spaces())
    mode = draw(st.sampled_from(MODES))
    extra = {}
    if mode in ("check-approx", "sip", "preserver-sweep"):
        extra["epsilons"] = (draw(st.sampled_from((0.3, 0.9))),)
    if mode == "isometry-test":
        extra["factors"] = tuple(draw(masses) for _ in range(spec.n))
    if mode == "preserver-sweep" and spec.n > 1:
        extra["partition"] = AtomPartition((0,), spec.n)
    return mode, spec, draw(st.integers(0, 2**32)), extra


@settings(max_examples=150)
@example(("axioms", SpaceSpec.from_dict(AXIOMS_PAST_THE_RANGE[0]["spec"]), 127, {}))
@example(("axioms", SpaceSpec.from_dict(AXIOMS_PAST_THE_RANGE[1]["spec"]), 0, {}))
@given(run_configs())
def test_a_run_in_any_mode_raises_only_typed_errors(data):
    mode, spec, seed, extra = data
    cfg = outcome_of(lambda: ExperimentConfig(mode=mode, spec=spec, trials=3, seed=seed,
                                              **extra))
    report = None if cfg is None else outcome_of(run, cfg, False)
    if report is not None:
        for column in report.values:
            if column.dtype.kind == "f":
                assert np.isfinite(column).all(), report.rows
