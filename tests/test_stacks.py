"""Stacked paths against their one-row references: the secant bound over
(rows x intervals), the rows of every harness mode run as (B, n, d) stacks,
and the errors a stack raises."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import bjlab.harness as harness
from bjlab import (
    AtomPartition,
    BochnerElement,
    DegenerateDraw,
    NonFiniteValue,
    ScalingOperator,
    SpaceSpec,
    bochner_norm,
    parse_config,
    preservation_trial,
    preservation_trials,
    run,
    u_eps_Lp,
)
from bjlab import ortho, preserver
from bjlab.harness import trial_rng
from conftest import rng_for
from oracles import (
    reference_axiom_row,
    reference_check_row,
    reference_minimize_convex_1d,
    reference_secant_lower_bound,
    reference_sip_row,
    reference_sweep_row,
)
from test_acceptance import _pair_stream

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
SWEEPS = ("l1_sweep", "lp_sweep", "weighted_L1_sweep")


def bits(v: float) -> str:
    return float(v).hex()


def secant_cases(rng, count: int):
    """(alphas, values) rows on the 13-probe grid: convex quadratics, kinked
    |a| + c a, random values, and values near overflow."""
    offsets = np.array(sorted(ortho._PROBE_OFFSETS))
    radius = 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    alphas = offsets * radius
    kind = rng.integers(0, 4, (count, 1))
    a0 = rng.uniform(-1.0, 1.0, (count, 1)) * radius
    scale = 10.0 ** rng.uniform(-6.0, 6.0, (count, 1))
    quadratic = scale * ((alphas - a0) ** 2 - rng.uniform(0.0, 1.0, (count, 1)) * radius ** 2)
    kinked = scale * (np.abs(alphas) + rng.uniform(-1.0, 1.0, (count, 1)) * alphas)
    noise = rng.standard_normal(alphas.shape) * scale
    huge = rng.choice([-1.0, 1.0], alphas.shape) * 10.0 ** rng.uniform(307.0, 308.2, alphas.shape)
    values = np.select([kind == 0, kind == 1, kind == 2], [quadratic, kinked, noise], huge)
    return alphas, values


def test_secant_bound_matches_the_interval_loop_bit_for_bit():
    alphas, values = secant_cases(rng_for("secant_bits"), 20_000)
    stacked = ortho._secant_lower_bound(alphas, values)
    reference = [reference_secant_lower_bound(a, v)
                 for a, v in zip(alphas.tolist(), values.tolist())]
    assert [bits(b) for b in stacked] == [bits(b) for b in reference]
    level = -1e-13 * np.abs(values).max(axis=1)
    assert ((stacked >= level) == (np.array(reference) >= level)).all()
    # each kind reaches the comparison: finite bounds, certified and not,
    # and rows whose slopes are not finite
    assert np.isfinite(stacked).sum() > 10_000
    assert 0 < (stacked >= level).sum() < len(stacked)
    assert (stacked == -math.inf).sum() > 1_000
    # a row's bound does not depend on the rows beside it
    for a, v, b in zip(alphas[:200], values[:200], stacked[:200]):
        assert bits(ortho._secant_lower_bound(a, v)[0]) == bits(b)


def described(results: list) -> list:
    """Each (alpha, value) of a list as bits."""
    return [tuple(map(bits, r)) for r in results]


def reference_sections(phis, radius, **options) -> list:
    """reference_minimize_convex_1d on each row in turn."""
    return [reference_minimize_convex_1d(phi, r, **options)
            for phi, r in zip(phis, radius)]


def recorded_sections(monkeypatch) -> list:
    """Patch ortho._golden_sections to record each call: its result and, per
    row, the reference loop's result on phi(0) and the values the objective
    gave that row (a KeyError if the loop asks for a point the stack never
    evaluated)."""
    calls = []
    sections = ortho._golden_sections

    def recording(objective, rows, radius, phi0):
        keys, values = [], []

        def recorded(alphas, live):
            v, overflowed = objective(alphas, live)
            keys.extend(zip(np.asarray(live).tolist(), alphas.tolist()))
            values.extend(zip(v.tolist(), [False] * len(v) if overflowed is None
                              else overflowed.tolist()))
            return v, overflowed

        result = sections(recorded, rows, radius, phi0)
        seen = dict(zip(keys, values))

        def phi(row, zero):
            def value(a):
                if a == 0.0:
                    return zero
                v, overflowed = seen[row, a]
                if overflowed:
                    raise OverflowError
                return v
            return value

        calls.append((described(result), described(reference_sections(
            map(phi, rows, phi0.tolist()), radius.tolist()))))
        return result

    monkeypatch.setattr(ortho, "_golden_sections", recording)
    return calls


# criterion 6b's two streams and 6c's, each pair checked exactly and at
# eps = 0 and 0.3
STREAMS = ((SpaceSpec(1, 2, 4, 2, (1.0, 2.0, 0.5, 1.0)), 1007),
           (SpaceSpec(2.5, 1.5, 4, 2, (1.0, 0.3, 1.5, 2.0)), 1008),
           (SpaceSpec(2, 2, 4, 2, (1.0, 0.5, 2.0, 1.0)), 1008))


def checked_streams(streams) -> list:
    """Every check result on the pairs of each (spec, xs, ys) stream, in
    stream order, run in stacks of max(1, STACK_ENTRIES // (n d)) pairs."""
    results = []
    for spec, xs, ys in streams:
        size = max(1, harness.STACK_ENTRIES // (spec.n * spec.d))
        for start in range(0, len(xs), size):
            x, y = xs[start:start + size], ys[start:start + size]
            nx, ny = ortho._norm_rows(x, spec)[1], ortho._norm_rows(y, spec)[1]
            checks = (ortho._exact_checks(x, y, nx, ny, spec, 1e-9),
                      *(ortho._approx_checks(x, y, nx, ny, eps, spec, 1e-9)
                        for eps in (0.0, 0.3)))
            results += [(r.verdict, bits(r.margin), bits(r.alpha_star), r.boundary)
                        for row in zip(*checks, strict=True) for r in row]
    return results


def test_golden_sections_match_the_scalar_loop_bit_for_bit(monkeypatch):
    streams = []
    for spec, seed in STREAMS:
        pairs = list(_pair_stream(spec, seed, 2700))
        streams.append((spec, np.stack([x.blocks for x, _ in pairs]),
                        np.stack([y.blocks for _, y in pairs])))
    calls = recorded_sections(monkeypatch)
    whole = checked_streams(streams)
    assert sum(len(got) for got, _ in calls) >= 10_000
    for got, reference in calls:
        assert got == reference
    # stacks of 499 pairs: other rows beside each row, the same results
    monkeypatch.undo()
    monkeypatch.setattr(harness, "STACK_ENTRIES", 499 * 4 * 2)
    assert checked_streams(streams) == whole


def golden_rows() -> list:
    """Five phi rows, over [-1, 1].  Row 1's value falls at every call, so
    only a value that a scalar loop compares can be its best; row 2
    overflows once its points close in on 0.5, well inside the bracket;
    row 3 returns NaN at its second point, earlier in lockstep."""
    calls = itertools.count(1)
    return [lambda a: (a - 0.3) ** 2,
            lambda a: -float(next(calls)),
            lambda a: ((a - 0.5) * (1e200 if abs(a - 0.5) < 1e-3 else 1.0)) ** 2,
            lambda a: math.nan if a > 0.0 else a * a,
            lambda a: a * a]


def test_the_first_failing_golden_row_decides_the_error(monkeypatch):
    # 30 steps: rows 0 and 1 stop at the step limit, row 2 fails before it.
    # A stack raises the error of a row that fails, so the passing rows run
    # as one stack and each failing row alone.
    monkeypatch.setattr(ortho, "GOLDEN_MAX_ITER", 30)
    phis = golden_rows()

    def objective(alphas, rows):
        values, overflowed = [], []
        for a, i in zip(alphas.tolist(), rows.tolist()):
            try:
                values.append(phis[i](a))
                overflowed.append(False)
            except OverflowError:
                values.append(math.inf)
                overflowed.append(True)
        return np.array(values), np.array(overflowed)

    phi0 = np.array([phi(0.0) for phi in phis])

    def sections(rows):
        return ortho._golden_sections(objective, rows, np.ones(len(rows)), phi0[rows])

    reference = golden_rows()
    passing = [0, 1, 4]
    got = described(sections(passing))
    assert got == described(reference_sections([reference[i] for i in passing],
                                               [1.0] * 3, max_iter=30))
    # row 1 called phi at 0, -1, 1, the two inner points and once per step;
    # the last step's value is never compared
    assert got[1][1] == (-4.0 - 30).hex()
    for row, message in ((2, "objective overflowed at alpha=0.49"),
                         (3, "objective returned nan at alpha=1.0")):
        with pytest.raises(NonFiniteValue) as alone:
            sections([row])
        with pytest.raises(NonFiniteValue) as looped:
            reference_minimize_convex_1d(reference[row], 1.0, max_iter=30)
        assert str(alone.value) == str(looped.value)
        assert str(alone.value).startswith(message)


def sweep_config(stem: str, trials: int):
    data = json.loads((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    return dataclasses.replace(parse_config(json.dumps(data)), trials=trials, out=None)


def assert_rows_match_reference(report, cfg):
    col = {name: i for i, name in enumerate(harness.TRIAL_COLUMNS)}
    for row in report.rows:
        seed, index = map(int, row[col["seed"]].split(":"))
        eps = row[col["epsilon"]]
        ref = reference_sweep_row(cfg._operator(eps), eps, cfg.spec,
                                  trial_rng(seed, index), cfg.tol)
        got = (row[col["direct_verdict"]], bits(row[col["direct_margin"]]),
               row[col["second_verdict"]], bits(row[col["second_margin"]]),
               row[col["boundary"]])
        assert got == (ref[0], bits(ref[1]), ref[2], bits(ref[3]),
                       ref[4] == "boundary"), row


@pytest.mark.parametrize("stem", SWEEPS)
def test_stacked_sweep_rows_equal_the_per_row_pipeline(stem):
    cfg = sweep_config(stem, 60)
    assert_rows_match_reference(run(cfg, echo=False), cfg)


def test_stacks_split_into_pieces_give_the_same_rows(monkeypatch):
    cfg = sweep_config("lp_sweep", 20)
    whole = run(cfg, echo=False).csv_text()
    monkeypatch.setattr(harness, "STACK_ENTRIES", 7 * cfg.spec.n * cfg.spec.d)
    sizes = []
    stacked = preserver.preservation_trials
    monkeypatch.setattr(harness, "preservation_trials",
                        lambda U, eps, spec, rngs, tol: sizes.append(len(rngs))
                        or stacked(U, eps, spec, rngs, tol))
    report = run(cfg, echo=False)
    assert sizes == [7, 7, 6] * len(cfg.epsilons)
    assert report.csv_text() == whole
    assert_rows_match_reference(report, cfg)


def test_non_preserving_operator_rows_equal_the_per_row_pipeline(monkeypatch):
    # atom 0 shrunk to 5%: far below the theorem's factor, so some rows fail
    # and some are not certified by the probes
    spec = SpaceSpec.sequence(1, 2, 8, 3)
    U = ScalingOperator([0.05] + [1.0] * 7)
    golden = []  # one entry per golden-section row
    sections = ortho._golden_sections
    monkeypatch.setattr(ortho, "_golden_sections",
                        lambda objective, rows, radius, phi0: golden.extend(rows)
                        or sections(objective, rows, radius, phi0))
    rngs = [trial_rng(5, i) for i in range(80)]
    records = preservation_trials(U, 0.1, spec, rngs)
    assert len(records) == 80
    outcomes = []
    for i, rec in enumerate(records):
        ref = reference_sweep_row(U, 0.1, spec, trial_rng(5, i))
        got = (rec.direct.verdict, bits(rec.direct.margin), rec.second.verdict,
               bits(rec.second.margin), rec.outcome)
        assert got == (ref[0], bits(ref[1]), ref[2], bits(ref[3]), ref[4]), i
        outcomes.append(rec.outcome)
    assert outcomes.count("fail") > 0 and outcomes.count("pass") > 0
    assert 0 < len(golden) < 80


def scaled_draws(monkeypatch, norms: dict):
    """Patch the pair draw so each row drawn from a generator in `norms`
    comes out rescaled, y with x, to give x that norm."""
    draw = preserver._draw_pairs

    def scaled(spec, rngs):
        xs, ys = draw(spec, rngs)
        for i, rng in enumerate(rngs):
            if id(rng) in norms:
                s = norms[id(rng)] / bochner_norm(BochnerElement(xs[i]), spec)
                xs[i] *= s
                ys[i] *= s
        return xs, ys

    monkeypatch.setattr(preserver, "_draw_pairs", scaled)


SPACE = SpaceSpec(3, 1.5, 6, 3, (1.0,) * 6)
OPERATOR = u_eps_Lp(0.3, AtomPartition((0, 1, 2), 6), SPACE)
# ||Ux||^2 overflows at 1e200; at 1e154 it fits, but the squared norms of
# the first probes overflow
MESSAGES = {1e200: r"^\|\|x\|\|\^2 = inf is outside the float range$",
            1e154: r"^objective overflowed at alpha=-"}


@pytest.mark.parametrize("norm", [1e200, 1e154])
def test_a_stack_raises_the_error_of_its_failing_row(monkeypatch, norm):
    # two good rows before it and one after it
    rngs = [trial_rng(9, i) for i in range(4)]
    rng = trial_rng(9, 2)  # the failing row's stream, for the row alone
    scaled_draws(monkeypatch, {id(rngs[2]): norm, id(rng): norm})
    with pytest.raises(NonFiniteValue, match=MESSAGES[norm]) as stacked:
        preservation_trials(OPERATOR, 0.3, SPACE, rngs)
    with pytest.raises(NonFiniteValue) as alone:
        preservation_trial(OPERATOR, 0.3, SPACE, rng)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


SPACES = {
    "A": {"p": 1, "q": 2, "n": 4, "d": 2, "weights": [1, 2, 0.5, 1]},
    "B": {"p": 2.5, "q": 1.5, "n": 4, "d": 2, "weights": [1, 0.3, 1.5, 2]},
    "C": {"p": 3, "q": 2, "n": 6, "d": 3, "weights": [1] * 6},
    "D": SPACE.to_dict(),
}


def mode_config(mode: str, space: str, trials: int, seed: int = 11):
    data = {"mode": mode, "spec": SPACES[space], "trials": trials, "seed": seed}
    if mode in ("check-approx", "sip"):
        data["epsilons"] = [0, 0.1, 0.5]
    if mode == "preserver-sweep":  # OPERATOR on space D
        data.update(epsilons=[0.3], partition=[0, 1, 2])
    return parse_config(json.dumps(data))


def reference_row(cfg, eps, rng) -> tuple:
    if cfg.mode == "sip":
        return reference_sip_row(eps, cfg.spec, rng, cfg.tol)
    if cfg.mode == "axioms":
        return reference_axiom_row(cfg.spec, rng, cfg.tol)
    return reference_check_row(eps, cfg.spec, rng, cfg.tol)


def typed_bits(values) -> list:
    """Each value's type and, for floats, its bits: what the CSV writes."""
    return [(type(v), bits(v) if isinstance(v, float) else v) for v in values]


@pytest.mark.parametrize("mode,space", [
    ("check-ortho", "A"), ("check-ortho", "C"), ("check-approx", "A"),
    ("check-approx", "B"), ("sip", "B"), ("sip", "C"), ("axioms", "B"),
    ("axioms", "C")])
def test_mode_rows_equal_the_per_row_pipeline(monkeypatch, mode, space):
    cfg = mode_config(mode, space, 30)
    report = run(cfg, echo=False)
    s = cfg.spec
    outcomes = []
    for k, eps in enumerate(cfg.epsilons or (None,)):
        for trial in range(cfg.trials):
            index = k * cfg.trials + trial
            values, row_outcome = reference_row(cfg, eps, trial_rng(cfg.seed, index))
            row = report.rows[index]
            assert row[:6] == (trial, f"11:{index}", s.p, s.q, s.n, s.d)
            assert typed_bits(row[6:]) == typed_bits(values), row
            outcomes.append(row_outcome)
    assert len(report.rows) == len(outcomes)
    for key in ("pass", "fail", "boundary"):
        assert report.summary[key] == outcomes.count(key)
    # stacks of 7 rows give the same CSV
    monkeypatch.setattr(harness, "STACK_ENTRIES", 7 * s.n * s.d)
    sizes = []
    stack_function = harness._STACK_FUNCTIONS[mode]
    monkeypatch.setitem(harness._STACK_FUNCTIONS, mode,
                        lambda cfg, rngs, eps: sizes.append(len(rngs))
                        or stack_function(cfg, rngs, eps))
    assert run(cfg, echo=False).csv_text() == report.csv_text()
    assert sizes == [7, 7, 7, 7, 2] * len(cfg.epsilons or (None,))


class ScaledDraws:
    """A generator whose normal draws come out multiplied by factor: at 0
    every draw is degenerate, and at 1e200 ||x||^2 overflows."""

    def __init__(self, rng, factor: float):
        self.rng, self.factor = rng, factor

    def standard_normal(self, size=None, out=None):
        values = self.rng.standard_normal(size, out=out)
        values *= self.factor
        return values


DEGENERATE = (DegenerateDraw, "^could not draw an element of usable norm$")
OVERFLOW = (NonFiniteValue, MESSAGES[1e200])
PROBE_OVERFLOW = (NonFiniteValue, r"^objective overflowed at alpha=-2\.72")


@pytest.mark.parametrize("mode,factors,expected", [
    ("check-ortho", {2: 0.0}, DEGENERATE),
    ("check-approx", {2: 0.0, 3: 1e200}, DEGENERATE),
    ("check-approx", {2: 1e200, 3: 0.0}, OVERFLOW),
    ("sip", {2: 0.0, 3: 1e200}, DEGENERATE),
    ("sip", {2: 1e200, 3: 0.0}, OVERFLOW),
    # a stack checks every row's ||x||^2 before any row's probes, and draws
    # every row before it checks one
    ("preserver-sweep", {1: 2e153, 3: 1e200}, PROBE_OVERFLOW),
    ("preserver-sweep", {1: 1e200, 3: 2e153}, OVERFLOW),
    ("preserver-sweep", {2: 0.0, 3: 2e153}, DEGENERATE),
    ("preserver-sweep", {2: 1e200, 3: 0.0}, OVERFLOW),
])
def test_a_mode_stack_raises_the_error_of_its_first_failing_row(monkeypatch, mode,
                                                                 factors, expected):
    # rows 0-4 of the first stack; axioms rows draw with no redraw and no
    # check that can raise, so that mode has no failing row
    cfg = (mode_config(mode, "D", 5, seed=9) if mode == "preserver-sweep"
           else mode_config(mode, "B", 5))
    make = harness.trial_rng
    monkeypatch.setattr(harness, "trial_rng", lambda seed, index: (
        ScaledDraws(make(seed, index), factors[index]) if index in factors
        else make(seed, index)))
    error, message = expected
    with pytest.raises(error, match=message):
        run(cfg, echo=False)
    # the same error when each row runs alone, as in a loop over the rows
    monkeypatch.setattr(harness, "STACK_ENTRIES", 1)
    with pytest.raises(error, match=message):
        run(cfg, echo=False)


def test_a_stack_that_loses_rows_is_an_error(monkeypatch):
    # a stack function that returned fewer rows than it was given, without
    # raising, would otherwise write a short CSV
    draw = harness._draw_pairs

    def draw_dropping_rows(spec, rngs):
        xs, ys = draw(spec, rngs)
        return xs[:2], ys[:2]

    monkeypatch.setattr(harness, "_draw_pairs", draw_dropping_rows)
    with pytest.raises(ValueError, match="shorter"):
        run(mode_config("check-ortho", "B", 5), echo=False)


def test_an_axiom_stack_raises_its_draw_error(monkeypatch):
    # axiom draws are never redrawn, so their draw cannot fail; if it did,
    # its error would propagate out of run
    def failing_draw(spec, rngs, count, min_norm):
        raise DegenerateDraw("no usable draw")

    monkeypatch.setattr(harness, "_draw_elements", failing_draw)
    with pytest.raises(DegenerateDraw, match="^no usable draw$"):
        run(mode_config("axioms", "B", 5), echo=False)
