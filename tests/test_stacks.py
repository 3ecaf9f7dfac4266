"""Stacked paths against their one-row references: the secant bound over
(rows x intervals), the rows of every harness mode run as (B, n, d) stacks,
and the errors a stack raises."""

import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import bjlab.harness as harness
from bjlab import (
    AtomPartition,
    BochnerElement,
    DegenerateDraw,
    ExperimentConfig,
    NonFiniteValue,
    ScalingOperator,
    SpaceSpec,
    bochner_norm,
    draw_orthogonal_pair,
    parse_config,
    preservation_trial,
    preservation_trials,
    run,
    u_eps_Lp,
)
from bjlab import blockspace, ortho, preserver, sip, streams
from bjlab.blockspace import outcome
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


def described(results) -> list:
    """Each (alpha, value) of a sequence as bits."""
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
            v = objective(alphas, live)
            keys.extend(zip(np.asarray(live).tolist(), alphas.tolist()))
            values.extend(v.tolist())
            return v

        result = sections(recorded, rows, radius, phi0)
        seen = dict(zip(keys, values))

        def phi(row, zero):
            def value(a):
                return zero if a == 0.0 else seen[row, a]
            return value

        calls.append((described(zip(*result)), described(reference_sections(
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
    stream order, run in stacks of blockspace._budget_rows(n d) pairs."""
    results = []
    for spec, xs, ys in streams:
        size = blockspace._budget_rows(spec.n * spec.d)
        for start in range(0, len(xs), size):
            x, y = xs[start:start + size], ys[start:start + size]
            nx, ny = ortho._norm_rows(x, spec)[1], ortho._norm_rows(y, spec)[1]
            checks = (ortho._exact_checks(x, y, nx, ny, spec),
                      *(ortho._approx_checks(x, y, nx, ny, eps, spec)
                        for eps in (0.0, 0.3)))
            results += [(verdict, bits(margin), bits(alpha), boundary)
                        for row in zip(*(zip(*check) for check in checks), strict=True)
                        for verdict, margin, boundary, alpha in row]
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
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 499 * 4 * 2)
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
        values = []
        for a, i in zip(alphas.tolist(), rows.tolist()):
            try:
                values.append(phis[i](a))
            except OverflowError:
                values.append(math.inf)
        return np.array(values)

    phi0 = np.array([phi(0.0) for phi in phis])

    def sections(rows):
        return ortho._golden_sections(objective, rows, np.ones(len(rows)), phi0[rows])

    reference = golden_rows()
    passing = [0, 1, 4]
    got = described(zip(*sections(passing)))
    assert got == described(reference_sections([reference[i] for i in passing],
                                               [1.0] * 3, max_iter=30))
    # row 1 called phi at 0, -1, 1, the two inner points and once per step;
    # the last step's value is never compared
    assert got[1][1] == (-4.0 - 30).hex()
    for row, message in ((2, "objective returned inf at alpha=0.49"),
                         (3, "objective returned nan at alpha=1.0")):
        with pytest.raises(NonFiniteValue) as alone:
            sections([row])
        with pytest.raises(NonFiniteValue) as looped:
            reference_minimize_convex_1d(reference[row], 1.0, max_iter=30)
        assert str(alone.value) == str(looped.value)
        assert str(alone.value).startswith(message)


def test_a_golden_row_that_finishes_first_leaves_the_others_running():
    # alone, radius 1.0 takes 63 evaluations and a subnormal radius 34: in
    # one stack the second row stops early and the first runs on, each with
    # the scalar loop's bits
    def phi(a):
        return (a - 0.3) ** 2

    radius = np.array([1.0, 3e-318])
    evaluations = [0, 0]

    def objective(alphas, rows):
        for i in rows.tolist():
            evaluations[i] += 1
        return np.array([phi(a) for a in alphas.tolist()])

    got = ortho._golden_sections(objective, [0, 1], radius, np.full(2, phi(0.0)))
    assert described(zip(*got)) == described(reference_sections([phi, phi], radius.tolist()))
    assert evaluations == [63, 34]


def test_golden_section_stops_when_its_bracket_stops_shrinking():
    # GOLDEN_TOL * 3e-318 underflows to 0, a width this bracket never
    # reaches: it once ran all 200 steps (205 evaluations)
    def phi(a):
        return abs(a - 1e-318)

    evaluations = []
    got = ortho.minimize_convex_1d(lambda a: evaluations.append(a) or phi(a), 3e-318)
    assert len(evaluations) <= 80
    assert described([got]) == described([reference_minimize_convex_1d(phi, 3e-318)])
    assert got == (1e-318, 0.0)


def sweep_config(stem: str, trials: int):
    data = json.loads((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    return dataclasses.replace(parse_config(json.dumps(data)), trials=trials, out=None)


def assert_rows_match_reference(report, cfg):
    col = {name: i for i, name in enumerate(harness.TRIAL_COLUMNS)}
    for row in report.rows:
        seed, index = map(int, row[col["seed"]].split(":"))
        eps = row[col["epsilon"]]
        ref = reference_sweep_row(cfg._operator(eps), eps, cfg.spec,
                                  trial_rng(seed, index))
        got = (row[col["direct_verdict"]], bits(row[col["direct_margin"]]),
               row[col["second_verdict"]], bits(row[col["second_margin"]]),
               row[col["boundary"]])
        assert got == (ref[0], bits(ref[1]), ref[2], bits(ref[3]),
                       ref[4] == "boundary"), row


@pytest.mark.parametrize("stem", SWEEPS)
def test_stacked_sweep_rows_equal_the_per_row_pipeline(stem):
    cfg = sweep_config(stem, 60)
    assert_rows_match_reference(run(cfg, echo=False), cfg)


def test_a_sweep_builds_no_per_row_objects(monkeypatch):
    # stacked stages pass arrays: a validated element or functional
    # (_as_blocks) and a CheckResult are built only by the one-pair API
    built = []
    as_blocks = blockspace._as_blocks
    monkeypatch.setattr(blockspace, "_as_blocks",
                        lambda *args: built.append("_as_blocks") or as_blocks(*args))
    post_init = blockspace.CheckResult.__post_init__
    monkeypatch.setattr(blockspace.CheckResult, "__post_init__",
                        lambda self: built.append("CheckResult") or post_init(self))
    report = run(sweep_config("l1_sweep", 12), echo=False)
    assert len(report.rows) == 60
    assert built == []


def stack_sizes(rows: int, size: int) -> list:
    """The sizes of the stacks a run of `rows` rows takes, `size` at most."""
    return [min(size, rows - start) for start in range(0, rows, size)]


def recorded_stack_sizes(monkeypatch, mode: str) -> list:
    """Patch mode's stack function to record the size of each stack."""
    sizes = []
    stack_function = harness._STACK_FUNCTIONS[mode]
    monkeypatch.setitem(harness._STACK_FUNCTIONS, mode,
                        lambda cfg, rngs, eps: sizes.append(len(rngs))
                        or stack_function(cfg, rngs, eps))
    return sizes


def test_stacks_split_into_pieces_give_the_same_rows(monkeypatch):
    cfg = sweep_config("lp_sweep", 20)
    whole = run(cfg, echo=False).csv_text()
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 7 * cfg.spec.n * cfg.spec.d)
    sizes = recorded_stack_sizes(monkeypatch, "preserver-sweep")
    report = run(cfg, echo=False)
    assert sizes == stack_sizes(len(cfg.epsilons) * cfg.trials, 7)
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
    _, direct, second = preservation_trials(U, 0.1, spec, rngs)
    outcomes = outcome(direct[0] & second[0], direct[2] | second[2]).tolist()
    assert len(outcomes) == 80
    for i, row in enumerate(zip(direct[0], direct[1], second[0], second[1], outcomes)):
        ref = reference_sweep_row(U, 0.1, spec, trial_rng(5, i))
        got = (row[0], bits(row[1]), row[2], bits(row[3]), row[4])
        assert got == (ref[0], bits(ref[1]), ref[2], bits(ref[3]), ref[4]), i
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
            1e154: r"^objective returned inf at alpha=-"}


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
        return reference_sip_row(eps, cfg.spec, rng)
    if cfg.mode == "axioms":
        return reference_axiom_row(cfg.spec, rng)
    return reference_check_row(eps, cfg.spec, rng)


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
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 7 * s.n * s.d)
    sizes = recorded_stack_sizes(monkeypatch, mode)
    assert run(cfg, echo=False).csv_text() == report.csv_text()
    assert sizes == stack_sizes(len(cfg.epsilons or (None,)) * cfg.trials, 7)


@pytest.mark.parametrize("n,d,trials", [(1024, 8, 4), (1500, 8, 2)])
def test_axiom_rows_keep_their_bits_at_the_einsum_buffer(monkeypatch, n, d, trials):
    # one stack each, its pairings one einsum call per row: a row has
    # EINSUM_BUFFER = 8192 entries or more
    spec = SpaceSpec(3, 1.5, n, d, tuple(rng_for("einsum_buffer", n).uniform(0.2, 3.0, n)))
    cfg = ExperimentConfig(mode="axioms", spec=spec, trials=trials, seed=13)
    sizes = recorded_stack_sizes(monkeypatch, "axioms")
    rows = [typed_bits(row[6:]) for row in run(cfg, echo=False).rows]
    assert sizes == [trials]
    expected = [typed_bits(reference_axiom_row(spec, trial_rng(13, i))[0])
                for i in range(trials)]
    assert rows == expected
    # one einsum call over the whole stack keeps the rows' bits while a row
    # has at most 8192 entries, and changes them above that
    monkeypatch.setattr(sip, "EINSUM_BUFFER", trials * n * d)
    batched = [typed_bits(row[6:]) for row in run(cfg, echo=False).rows]
    assert (batched == expected) == (n * d <= 8192)


def axioms_config():
    return parse_config((CONFIGS / "axioms.json").read_text(encoding="utf-8"))


def test_axiom_stacks_split_into_pieces_give_the_same_rows(monkeypatch):
    cfg = axioms_config()
    whole = run(cfg, echo=False).csv_text()
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 7 * cfg.spec.n * cfg.spec.d)
    sizes = recorded_stack_sizes(monkeypatch, "axioms")
    assert run(cfg, echo=False).csv_text() == whole
    assert sizes == stack_sizes(cfg.trials, 7)
    # one stack again, its pairings in einsum calls of 5 rows
    monkeypatch.undo()
    monkeypatch.setattr(sip, "EINSUM_BUFFER", 5 * cfg.spec.n * cfg.spec.d)
    assert run(cfg, echo=False).csv_text() == whole


def test_an_axioms_run_builds_no_per_row_objects(monkeypatch):
    # the stack's columns go straight to the CSV: a validated element and a
    # SipAxiomReport are built only by the one-pair API
    built = []
    as_blocks = blockspace._as_blocks
    monkeypatch.setattr(blockspace, "_as_blocks",
                        lambda *args: built.append("_as_blocks") or as_blocks(*args))
    init = sip.SipAxiomReport.__init__
    monkeypatch.setattr(sip.SipAxiomReport, "__init__",
                        lambda self, *args: built.append("SipAxiomReport") or init(self, *args))
    cfg = axioms_config()
    assert len(run(cfg, echo=False).rows) == cfg.trials
    assert built == []
    f = np.ones((cfg.spec.n, cfg.spec.d))
    sip.sip_axiom_report(*(BochnerElement(f) for _ in range(3)), 0.5, -0.5, cfg.spec)
    assert built == ["_as_blocks"] * 3 + ["SipAxiomReport"]


class ScaledDraws:
    """A generator whose normal draws come out multiplied by factor: at 0
    every draw is degenerate, and at 1e200 ||x||^2 overflows."""

    def __init__(self, rng, factor: float):
        self.rng, self.factor = rng, factor

    def standard_normal(self, size=None, out=None):
        values = self.rng.standard_normal(size, out=out)
        values *= self.factor
        return values


def scaled_rows(monkeypatch, factors: dict):
    """Patch a run's generators so row index draws ScaledDraws by
    factors[index]: a stack draws from the pooled generators, a rerun row
    from trial_rng."""
    stack_rngs = streams.stack_rngs
    monkeypatch.setattr(streams, "stack_rngs", lambda keys, indices: [
        ScaledDraws(rng, factors[index]) if index in factors else rng
        for index, rng in zip(indices, stack_rngs(keys, indices), strict=True)])
    make = harness.trial_rng
    monkeypatch.setattr(harness, "trial_rng", lambda seed, index: (
        ScaledDraws(make(seed, index), factors[index]) if index in factors
        else make(seed, index)))


DEGENERATE = (DegenerateDraw, "^could not draw an element of usable norm$")
OVERFLOW = (NonFiniteValue, MESSAGES[1e200])
PROBE_OVERFLOW = (NonFiniteValue, r"^objective returned inf at alpha=-2\.72")


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
    scaled_rows(monkeypatch, factors)
    error, message = expected
    with pytest.raises(error, match=message):
        run(cfg, echo=False)
    # the same error when each row runs alone, as in a loop over the rows
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 1)
    with pytest.raises(error, match=message):
        run(cfg, echo=False)


def straddling_config(mode: str):
    """Five rows at each of three epsilons, on space D."""
    data = {"mode": mode, "spec": SPACES["D"], "trials": 5, "seed": 17,
            "epsilons": [0.1, 0.3, 0.5]}
    if mode == "preserver-sweep":
        data["partition"] = [0, 1, 2]
    return parse_config(json.dumps(data))


@pytest.mark.parametrize("mode", ["preserver-sweep", "check-approx"])
def test_a_stack_that_straddles_epsilons_gives_each_row_its_own(monkeypatch, mode):
    # stacks of 4 rows: rows 4-7 hold the last row of eps 0.1 and the first
    # three of 0.3, rows 8-11 the last two of 0.3 and the first two of 0.5
    cfg = straddling_config(mode)
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 4 * cfg.spec.n * cfg.spec.d)
    sizes = recorded_stack_sizes(monkeypatch, mode)
    report = run(cfg, echo=False)
    assert sizes == [4, 4, 4, 3]
    assert [row[6] for row in report.rows] == [0.1] * 5 + [0.3] * 5 + [0.5] * 5
    if mode == "preserver-sweep":
        assert_rows_match_reference(report, cfg)
        return
    for index, row in enumerate(report.rows):
        values, _ = reference_check_row(row[6], cfg.spec, trial_rng(cfg.seed, index))
        assert typed_bits(row[6:]) == typed_bits(values), row


def test_a_straddling_stack_raises_the_error_of_its_first_failing_row(monkeypatch):
    # in the stack of rows 4-7, rows 5 and 7 (both at eps 0.3) fail: the
    # stack checks every row's ||x||^2 before any row's probes, so it raises
    # row 7's error, but row 5 fails first when each row runs alone
    cfg = straddling_config("preserver-sweep")
    factors = {5: 2e153, 7: 1e200}
    monkeypatch.setattr(blockspace, "STACK_ENTRIES", 4 * cfg.spec.n * cfg.spec.d)

    def alone(index):
        rng = ScaledDraws(trial_rng(cfg.seed, index), factors[index])
        with pytest.raises(NonFiniteValue) as raised:
            preservation_trial(cfg._operator(0.3), 0.3, cfg.spec, rng)
        return str(raised.value)

    assert re.match(MESSAGES[1e154], alone(5))
    assert re.match(OVERFLOW[1], alone(7))
    scaled_rows(monkeypatch, factors)
    with pytest.raises(NonFiniteValue) as raised:
        run(cfg, echo=False)
    assert str(raised.value) == alone(5)


def test_small_sweeps_run_as_one_stack_and_shipped_sweeps_in_few(monkeypatch):
    # one stack per 1,365 rows at n d = 24, whatever the epsilons
    sizes = recorded_stack_sizes(monkeypatch, "preserver-sweep")
    data = {"mode": "preserver-sweep", "spec": SpaceSpec.sequence(1, 2, 8, 3).to_dict(),
            "epsilons": [0.1, 0.3, 0.5, 0.7, 0.9], "trials": 30, "seed": 3}
    run(parse_config(json.dumps(data)), echo=False)
    assert sizes == [150]
    sizes.clear()
    cfg = sweep_config("l1_sweep", 1000)
    run(cfg, echo=False)
    rows = len(cfg.epsilons) * cfg.trials
    assert len(sizes) == math.ceil(rows / 1365) == 4
    assert sum(sizes) == rows


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

    # and one that returned more rows than it was given
    def draw_adding_rows(spec, rngs):
        xs, ys = draw(spec, rngs)
        return np.concatenate((xs, xs[:1])), np.concatenate((ys, ys[:1]))

    monkeypatch.setattr(harness, "_draw_pairs", draw_adding_rows)
    with pytest.raises(ValueError, match="longer"):
        run(mode_config("check-ortho", "B", 5), echo=False)


def test_a_stack_error_that_no_row_gives_alone_is_raised(monkeypatch):
    # rerun one at a time, every row passes: the stack's own error stands
    checks = harness._STACK_FUNCTIONS["check-ortho"]

    def fails_in_stacks(cfg, rngs, eps):
        if len(rngs) > 1:
            raise DegenerateDraw("only in a stack")
        return checks(cfg, rngs, eps)

    monkeypatch.setitem(harness._STACK_FUNCTIONS, "check-ortho", fails_in_stacks)
    with pytest.raises(DegenerateDraw, match="^only in a stack$"):
        run(mode_config("check-ortho", "B", 5), echo=False)


class CollapsingPartner:
    """A generator whose first z draw repeats its x draw, so the first
    partner projects to zero and the pair is drawn again."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def standard_normal(self, size=None, out=None):
        if len(self.draws) == 1:
            out[...] = self.draws[0]
            values = out
        else:
            values = self.rng.standard_normal(size, out=out)
        self.draws.append(values.copy())
        return values


def test_a_collapsed_partner_redraws_only_its_row():
    spec = SpaceSpec.from_dict(SPACES["B"])

    def rngs():
        return [trial_rng(13, 0), CollapsingPartner(trial_rng(13, 1)), trial_rng(13, 2)]

    stack = rngs()
    # copies: the one-pair draws below reuse the workspace the stack drew into
    xs, ys = (a.copy() for a in preserver._draw_pairs(spec, stack))
    assert len(stack[1].draws) == 4  # x and z, then x and z again
    pairs = [draw_orthogonal_pair(spec, rng) for rng in rngs()]
    assert xs.tobytes() == np.stack([x.blocks for x, _ in pairs]).tobytes()
    assert ys.tobytes() == np.stack([y.blocks for _, y in pairs]).tobytes()


def test_an_axiom_stack_raises_its_draw_error(monkeypatch):
    # axiom draws are never redrawn, so their draw cannot fail; an error
    # raised in the stack after its draw, here by its reports, propagates
    # out of run
    def failing_reports(*args):
        raise DegenerateDraw("no usable draw")

    monkeypatch.setattr(harness, "_axiom_reports", failing_reports)
    with pytest.raises(DegenerateDraw, match="^no usable draw$"):
        run(mode_config("axioms", "B", 5), echo=False)


class CountedDraws:
    """A generator that counts its standard_normal calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, size=None, out=None):
        self.calls += 1
        return self.rng.standard_normal(size, out=out)


def test_an_axiom_stack_draws_each_row_in_one_call():
    # f, g, h, a and b of a row fill one buffer, from the stream the per-row
    # reference reads in four calls
    cfg = mode_config("axioms", "B", 5)
    rngs = [CountedDraws(trial_rng(cfg.seed, i)) for i in range(5)]
    harness._axiom_stack(cfg, rngs, None)
    assert [rng.calls for rng in rngs] == [1] * 5


def test_a_stack_spanning_epsilons_images_its_rows_in_two_products(monkeypatch):
    # one product for x and one for y, each row by its own epsilon's factors
    images = []
    image = preserver._image
    monkeypatch.setattr(preserver, "_image",
                        lambda factors, blocks, out: images.append(factors.shape)
                        or image(factors, blocks, out))
    sizes = recorded_stack_sizes(monkeypatch, "preserver-sweep")
    cfg = sweep_config("l1_sweep", 6)
    run(cfg, echo=False)
    assert sizes == [30]
    assert images == [(30, cfg.spec.n)] * 2
