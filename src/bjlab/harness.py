"""Experiment runner: parses configs, seeds per-trial RNG streams, dispatches
to the core modules, and emits deterministic CSV reports.

Rows run in one loop over stacks of rows: every mode runs each stack
through its draws and checks as (B, n, d) arrays.  Each row draws from its
own counter-based generator (Philox keyed on (seed, row index)), so any row
can be recomputed on its own and no row's output depends on the rows before
it or on the stack it ran in.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .blockspace import DEFAULT_TOL, SpaceSpec, _is_int, _is_number, _norm_rows, outcome
from .errors import BjlabError, ConfigError
from .ortho import _approx_checks, _exact_checks, _route_checks, epsilon_value
from .preserver import (
    AtomPartition,
    ScalingOperator,
    _draw_elements,
    _draw_pairs,
    _require_isometry_trials,
    is_scalar_multiple_of_isometry,
    preservation_trials,
    u_eps_L1,
    u_eps_l1,
    u_eps_Lp,
)
from .sip import _axiom_reports, _require_smooth_lp

# The optional operand keys each mode reads.  isometry-test reads factors,
# or epsilons and partition to build the sweep's operator.
_MODE_KEYS = {"check-ortho": (), "check-approx": ("epsilons",),
              "sip": ("epsilons",), "axioms": (),
              "preserver-sweep": ("epsilons", "partition"),
              "isometry-test": ("epsilons", "partition", "factors")}
MODES = tuple(_MODE_KEYS)

_MODES_NEEDING_EPS = ("check-approx", "sip", "preserver-sweep")

# Cross-route comparisons are inconclusive within this band of the linear
# criterion's boundary: the minimization route's margin is quadratic in the
# distance to the boundary, so verdicts cannot be matched closer than the
# square root of the decision tolerance.
CROSS_ROUTE_BAND = 1e-3

# Entries (rows x n x d) of one stack of rows: 256 KiB of float64, so the
# few stacks a sweep keeps live fit a core's L2 cache.  A stack holds
# max(1, STACK_ENTRIES // (n d)) rows.
STACK_ENTRIES = 2**15

TRIAL_COLUMNS = ("trial", "seed", "p", "q", "n", "d", "epsilon",
                 "direct_verdict", "direct_margin", "second_route",
                 "second_verdict", "second_margin", "boundary")
AXIOM_COLUMNS = ("trial", "seed", "p", "q", "n", "d", "a", "b",
                 "res_linearity", "res_homogeneity", "res_cauchy_schwarz",
                 "res_norm", "scale", "pass")
ISOMETRY_COLUMNS = ("scalar_multiple_of_isometry", "ratio_spread", "probes")


def _value(key: str, convert, *args):
    """convert(*args), with any failure reported as a config error on key."""
    try:
        return convert(*args)
    except (TypeError, ValueError, BjlabError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _numbers(value, convert=float) -> tuple:
    """convert of each number of a list (or tuple) of numbers, as a tuple;
    raises ValueError for anything else."""
    if not (isinstance(value, (list, tuple)) and all(map(_is_number, value))):
        raise ValueError(f"must be a list of numbers, got {value!r}")
    return tuple(map(convert, value))


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    spec: SpaceSpec
    trials: int
    seed: int
    epsilons: tuple[float, ...] = ()
    partition: AtomPartition | None = None
    factors: tuple[float, ...] | None = None
    tol: float = DEFAULT_TOL
    out: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {', '.join(MODES)}, got {self.mode!r}")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials: must be a positive integer, got {self.trials!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed: must be a non-negative 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "epsilons", _value("epsilons", _numbers, self.epsilons,
                                                    epsilon_value))
        if not (_is_number(self.tol) and 0.0 < self.tol < math.inf):
            raise ConfigError(f"tol: must be a positive finite number, got {self.tol!r}")
        object.__setattr__(self, "tol", float(self.tol))
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out: must be a path string or null, got {self.out!r}")
        if self.factors is not None:
            factors = _value("factors", _numbers, self.factors)
            operator = _value("factors", ScalingOperator, factors)
            _value("factors", operator.check_fits, self.spec)
            object.__setattr__(self, "factors", tuple(operator.factors.tolist()))
        for key in ("epsilons", "partition", "factors"):
            if getattr(self, key) and key not in _MODE_KEYS[self.mode]:
                raise ConfigError(f"{key}: not read by mode {self.mode}")
        if self.mode in _MODES_NEEDING_EPS and not self.epsilons:
            raise ConfigError(f"epsilons: required for mode {self.mode}")
        if self.mode in ("sip", "axioms"):
            _value("spec", _require_smooth_lp, self.spec)
        elif self.mode != "isometry-test":
            _value("spec", self.spec.require_smooth_inner)
        if self.mode == "isometry-test":
            if self.factors is None and not self.epsilons:
                raise ConfigError("factors: required for isometry-test "
                                  "(or give epsilons to test a built-in operator)")
            if self.factors is not None and (self.epsilons or self.partition):
                raise ConfigError(f"{'epsilons' if self.epsilons else 'partition'}: "
                                  "not read by isometry-test when factors are given")
            if len(self.epsilons) > 1:
                raise ConfigError("epsilons: isometry-test reads one epsilon, "
                                  f"got {len(self.epsilons)}")
            _value("trials", _require_isometry_trials, self.trials)
        if self.epsilons and self.mode in ("preserver-sweep", "isometry-test"):
            self._operator(min(self.epsilons))  # the pairing; only eps = 0 can fail

    def _operator(self, eps: float) -> ScalingOperator:
        """Matching counterexample operator for this space at eps."""
        if self.partition is None:
            if self.spec.p > 1.0:
                raise ConfigError("partition: required for p > 1 sweeps")
            return _value("spec/partition", u_eps_l1, eps, self.spec)
        build = u_eps_L1 if self.spec.p == 1.0 else u_eps_Lp
        return _value("spec/partition", build, eps, self.partition, self.spec)


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def parse_config(text: str, mode: str | None = None) -> ExperimentConfig:
    """Parse a JSON config.  Unknown keys and malformed values raise a
    ConfigError naming the key; absent optional keys default (tol=DEFAULT_TOL)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    cfg_mode = data.get("mode")
    if mode is not None and cfg_mode is not None and mode != cfg_mode:
        raise ConfigError(f"mode: config says {cfg_mode!r} but {mode!r} was requested")
    eff_mode = mode or cfg_mode
    if eff_mode is None:
        raise ConfigError("mode: missing (set it in the config or on the command line)")
    for key in ("spec", "trials", "seed"):
        if key not in data:
            raise ConfigError(f"{key}: missing")

    spec = _value("spec", SpaceSpec.from_dict, data["spec"])
    if data.get("partition") is not None:
        data["partition"] = _value("partition", AtomPartition, data["partition"], spec.n)
    return ExperimentConfig(**{**data, "mode": eff_mode, "spec": spec})


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trial stream, independent of execution order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


@dataclass
class RunReport:
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict

    def csv_text(self) -> str:
        lines = ["#v1 " + ",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# A stack function measures the rows of a list of generators, one row per
# generator: each row's columns after the shared (trial, seed, p, q, n, d)
# prefix and its outcome (pass | fail | boundary), or raises a failing row's error.

def _check_stack(cfg: ExperimentConfig, rngs, eps):
    """Draw an orthogonal pair per row and check it (exactly at eps None)."""
    xs, ys = _draw_pairs(cfg.spec, rngs)
    nx, ny = _norm_rows(xs, cfg.spec)[1], _norm_rows(ys, cfg.spec)[1]
    if eps is None:
        results = _exact_checks(xs, ys, nx, ny, cfg.spec, cfg.tol)
    else:
        results = _approx_checks(xs, ys, nx, ny, eps, cfg.spec, cfg.tol)
    shown_eps = 0.0 if eps is None else eps
    return [((shown_eps, res.verdict, res.margin, "none", "", "", res.boundary),
             outcome(res))
            for res in results]


def _sip_stack(cfg: ExperimentConfig, rngs, eps):
    """Random (not constructed) pairs: the direct check and the semi-inner
    product criterion must agree outside the cross-route band."""
    xs, ys = _draw_elements(cfg.spec, rngs, 2)
    rows = []
    for direct, crit in _route_checks(xs, ys, eps, cfg.spec, cfg.tol):
        # the routes must agree (not hold), so blockspace.outcome does not apply
        if direct.boundary or crit.boundary or abs(crit.margin) < CROSS_ROUTE_BAND:
            agreement = "boundary"
        else:
            agreement = "pass" if direct.verdict == crit.verdict else "fail"
        rows.append(((eps, direct.verdict, direct.margin, "sip", crit.verdict,
                      crit.margin, agreement == "boundary"), agreement))
    return rows


def _axiom_stack(cfg: ExperimentConfig, rngs, eps):
    """Draw f, g, h and scalars (a, b) per row and measure the residuals of
    the four semi-inner-product axioms on them."""
    F, G, H = _draw_elements(cfg.spec, rngs, 3, min_norm=0.0)
    ab = np.array([rng.standard_normal(2) for rng in rngs])
    reports = _axiom_reports(F, G, H, ab[:, 0], ab[:, 1], cfg.spec)
    rows = []
    for (a, b), rep in zip(ab.tolist(), reports):
        ok = rep.passes(cfg.tol)
        rows.append(((a, b, rep.first_slot_linearity, rep.second_slot_homogeneity,
                      rep.cauchy_schwarz, rep.norm_compatibility, rep.scale, ok),
                     "pass" if ok else "fail"))
    return rows


def _sweep_stack(cfg: ExperimentConfig, rngs, eps):
    return [((eps, rec.direct.verdict, rec.direct.margin, rec.second_route,
              rec.second.verdict, rec.second.margin, rec.outcome == "boundary"),
             rec.outcome)
            for rec in preservation_trials(cfg._operator(eps), eps, cfg.spec, rngs,
                                           cfg.tol)]


_STACK_FUNCTIONS = {
    "check-ortho": _check_stack,
    "check-approx": _check_stack,
    "sip": _sip_stack,
    "axioms": _axiom_stack,
    "preserver-sweep": _sweep_stack,
}


def _trial_rows(cfg: ExperimentConfig) -> list[tuple[tuple, str]]:
    """Rows in order: cfg.trials per epsilon (one pass without epsilons for
    check-ortho and axioms), row k*trials + i seeded by (seed, that index),
    in stacks of max(1, STACK_ENTRIES // (n d)) rows.  Raises the error of
    the first row that fails, in that order."""
    stack_function = _STACK_FUNCTIONS[cfg.mode]
    epsilons = cfg.epsilons or (None,)
    s = cfg.spec
    size = max(1, STACK_ENTRIES // (s.n * s.d))
    rows = []
    for k, eps in enumerate(epsilons):
        for start in range(0, cfg.trials, size):
            trials = range(start, min(start + size, cfg.trials))
            indices = [k * cfg.trials + trial for trial in trials]
            rngs = [trial_rng(cfg.seed, index) for index in indices]
            try:
                stack = stack_function(cfg, rngs, eps)
            except BjlabError:
                # no row depends on its stack: rerun the rows one at a time,
                # from fresh generators, up to the first that fails alone
                for index in indices:
                    stack_function(cfg, [trial_rng(cfg.seed, index)], eps)
                raise
            for trial, index, (values, row_outcome) in zip(trials, indices, stack, strict=True):
                rows.append(((trial, f"{cfg.seed}:{index}", s.p, s.q, s.n, s.d)
                             + values, row_outcome))
    return rows


def _run_isometry_test(cfg: ExperimentConfig):
    if cfg.factors is not None:
        operator = ScalingOperator(cfg.factors)
    else:
        operator = cfg._operator(cfg.epsilons[0])
    rng = trial_rng(cfg.seed, 0)
    verdict, spread = is_scalar_multiple_of_isometry(
        operator, cfg.spec, trials=cfg.trials, tol=cfg.tol, rng=rng)
    return ISOMETRY_COLUMNS, [((verdict, spread, cfg.trials), "pass")]


def run(config: ExperimentConfig, echo: bool = True) -> RunReport:
    """Execute a configured experiment.

    Deterministic given (config, seed): the CSV written to config.out is
    byte-for-byte identical across runs on the same platform.  The summary is
    printed to stdout as a single JSON object unless echo is False.
    """
    start = time.perf_counter()
    if config.mode == "isometry-test":
        columns, row_data = _run_isometry_test(config)
    else:
        columns = AXIOM_COLUMNS if config.mode == "axioms" else TRIAL_COLUMNS
        row_data = _trial_rows(config)
    rows, outcomes = zip(*row_data)
    counts = {key: outcomes.count(key) for key in ("pass", "fail", "boundary")}
    summary = {
        "mode": config.mode,
        "seed": config.seed,
        "trials": len(rows),
        **counts,
        "wall_time_s": time.perf_counter() - start,
        "out": config.out,
    }
    if config.mode == "isometry-test":
        summary["trials"] = config.trials  # the random probes, as in the CSV
        summary["scalar_multiple_of_isometry"] = bool(rows[0][0])
        summary["ratio_spread"] = float(rows[0][1])
    report = RunReport(columns=columns, rows=list(rows), summary=summary)
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.csv_text())
    if echo:
        print(json.dumps(summary, sort_keys=True))
    return report
