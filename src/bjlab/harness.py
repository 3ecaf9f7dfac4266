"""Experiment runner: parses configs, seeds per-trial RNG streams, dispatches
to the core modules, and emits deterministic CSV reports.

Rows run in one loop over a run's row indices, in stacks of rows: every mode
runs each stack through its draws and checks as (B, n, d) arrays, and a
stack may hold the rows of several epsilons, each with its own.  Each row
draws from its own counter-based generator (Philox keyed on (seed, row
index)), so any row can be recomputed on its own and no row's output depends
on the rows before it or on the stack it ran in.  `trial_rng` defines a
row's generator and builds it for a row rerun alone; a run hashes every
row's key at once and re-keys each thread's pool of generators, kept from
run to run, for each stack (`streams`), to the same state.
"""

from __future__ import annotations

import json
import os
import stat
import time
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .blockspace import (
    DEFAULT_TOL,
    SpaceSpec,
    _budget_rows,
    _is_int,
    _is_number,
    _norm_rows,
    outcome,
)
from .errors import BjlabError, ConfigError
from .ortho import _approx_checks, _exact_checks, _route_checks, epsilon_value
from .preserver import (
    AtomPartition,
    ScalingOperator,
    _draw_elements,
    _draw_pairs,
    _preservation_stack,
    _require_isometry_trials,
    is_scalar_multiple_of_isometry,
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
    out: str | None = None
    tol = DEFAULT_TOL  # every verdict's tolerance, readable but not a field a config sets

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {', '.join(MODES)}, got {self.mode!r}")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials: must be a positive integer, got {self.trials!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed: must be a non-negative 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "epsilons", _value("epsilons", _numbers, self.epsilons,
                                                    epsilon_value))
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
    ConfigError naming the key; absent optional keys take their defaults."""
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
    values: list[np.ndarray]  # one array per column, one entry per row
    summary: dict

    def csv_text(self) -> str:
        """A `#v1` header, then the rows: a float column prints "%.17g", a
        bool column true/false and any other column "%s"."""
        line = ",".join("%.17g" if v.dtype.kind == "f" else "%s" for v in self.values)
        columns = [np.where(v, "true", "false").tolist() if v.dtype.kind == "b" else v.tolist()
                   for v in self.values]
        return "\n".join(["#v1 " + ",".join(self.columns),
                          *(line % row for row in zip(*columns))]) + "\n"

    @cached_property
    def rows(self) -> list[tuple]:
        """The rows as tuples of Python values, derived from the columns."""
        return list(zip(*(v.tolist() for v in self.values)))


# A stack function measures the rows of a list of generators, one row per
# generator, at eps: a float array of each row's epsilon, or None in the
# modes without epsilons.  It returns their columns after the shared (trial,
# seed, p, q, n, d) prefix, each an array of one entry per row or a value
# every row of the run shares, and an array of their outcomes (pass | fail |
# boundary); or it raises a failing row's error.

def _check_stack(cfg: ExperimentConfig, rngs, eps):
    """Draw an orthogonal pair per row and check it (exactly at eps None)."""
    xs, ys = _draw_pairs(cfg.spec, rngs)
    nx, ny = _norm_rows(xs, cfg.spec)[1], _norm_rows(ys, cfg.spec)[1]
    if eps is None:
        verdict, margin, boundary, _ = _exact_checks(xs, ys, nx, ny, cfg.spec)
    else:
        verdict, margin, boundary, _ = _approx_checks(xs, ys, nx, ny, eps, cfg.spec)
    return ((0.0 if eps is None else eps, verdict, margin, "none", "", "", boundary),
            outcome(verdict, boundary))


def _sip_stack(cfg: ExperimentConfig, rngs, eps):
    """Random (not constructed) pairs: the direct check and the semi-inner
    product criterion must agree outside the cross-route band."""
    xs, ys = _draw_elements(cfg.spec, rngs, 2)
    (dv, dm, db, _), (cv, cm, cb, _) = _route_checks(xs, ys, eps, cfg.spec)
    boundary = db | cb | (np.abs(cm) < CROSS_ROUTE_BAND)
    return (eps, dv, dm, "sip", cv, cm, boundary), outcome(dv == cv, boundary)


def _axiom_stack(cfg: ExperimentConfig, rngs, eps):
    """Draw f, g, h and scalars (a, b) per row, in that order and in one call
    on its generator, and measure the residuals of the four semi-inner-product
    axioms on them: the CSV's residual, scale and pass columns."""
    n, d = cfg.spec.n, cfg.spec.d
    draws = np.empty((len(rngs), 3 * n * d + 2))
    for rng, row in zip(rngs, draws):
        rng.standard_normal(out=row)
    F, G, H = (draws[:, k * n * d:(k + 1) * n * d].reshape(-1, n, d) for k in range(3))
    a, b = draws[:, -2], draws[:, -1]
    columns = _axiom_reports(F, G, H, a, b, cfg.spec)
    return (a, b, *columns), outcome(columns[-1], False)


def _sweep_stack(cfg: ExperimentConfig, rngs, eps):
    """Preservation trials, each row imaged by its epsilon's operator."""
    values, which = np.unique(eps, return_inverse=True)
    factors = np.stack([cfg._operator(e).factors for e in values.tolist()])[which]
    route, (dv, dm, db, _), (sv, sm, sb, _) = _preservation_stack(factors, eps, cfg.spec, rngs)
    boundary = db | sb
    return (eps, dv, dm, route, sv, sm, boundary), outcome(dv & sv, boundary)


_STACK_FUNCTIONS = {
    "check-ortho": _check_stack,
    "check-approx": _check_stack,
    "sip": _sip_stack,
    "axioms": _axiom_stack,
    "preserver-sweep": _sweep_stack,
}

def _trial_rows(cfg: ExperimentConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """Each column's values and the outcomes, one entry per row, rows in
    order: cfg.trials per epsilon (one pass without epsilons for check-ortho
    and axioms), row k*trials + i seeded by (seed, that index).  One loop
    runs the rows in stacks of _budget_rows(n d) rows (blockspace), a stack
    holding the rows of one epsilon or of several.  Raises the error of the
    first row that fails, in that order."""
    from .streams import philox_keys, stack_rngs  # imports numpy.random; import bjlab does not
    stack_function = _STACK_FUNCTIONS[cfg.mode]
    s = cfg.spec
    size = _budget_rows(s.n * s.d)
    total = max(1, len(cfg.epsilons)) * cfg.trials
    keys = philox_keys(cfg.seed, np.arange(total, dtype=np.uint64))
    row_eps = np.repeat(cfg.epsilons, cfg.trials) if cfg.epsilons else None
    stacks = []  # a stack's columns are new arrays: the next stack reuses the workspace
    for start in range(0, total, size):
        indices = range(start, min(start + size, total))
        eps = None if row_eps is None else row_eps[indices.start:indices.stop]
        try:
            columns, outcomes = stack_function(cfg, stack_rngs(keys, indices), eps)
        except BjlabError:
            # no row depends on its stack: rerun the rows one at a time,
            # from fresh generators, up to the first that fails alone
            for i, index in enumerate(indices):
                stack_function(cfg, [trial_rng(cfg.seed, index)],
                               None if eps is None else eps[i:i + 1])
            raise
        for c in (*columns, outcomes):
            if isinstance(c, np.ndarray) and len(c) != len(indices):
                raise ValueError(f"a column {'shorter' if len(c) < len(indices) else 'longer'}"
                                 f" than its stack of {len(indices)} rows")
        stacks.append((*columns, outcomes))
    index = np.arange(total)
    prefix = [index % cfg.trials, np.array([f"{cfg.seed}:{i}" for i in range(total)], object),
              *(np.full(total, v) for v in (s.p, s.q, s.n, s.d))]
    # a value every row shares is given once per stack
    *columns, outcomes = (np.concatenate(c) if isinstance(c[0], np.ndarray)
                          else np.full(total, c[0]) for c in zip(*stacks))
    return prefix + columns, outcomes


def _run_isometry_test(cfg: ExperimentConfig):
    """isometry-test's one row, as _trial_rows gives a run's rows."""
    operator = (cfg._operator(cfg.epsilons[0]) if cfg.factors is None
                else ScalingOperator(cfg.factors))
    verdict, spread = is_scalar_multiple_of_isometry(
        operator, cfg.spec, trials=cfg.trials, rng=trial_rng(cfg.seed, 0))
    values = [np.array([verdict]), np.array([spread]), np.array([cfg.trials])]
    return values, outcome(values[0], False)


def _write_csv(path: str, text: str) -> None:
    """Write text to path as UTF-8, over the file already there, then cut a
    regular file to the written length.  Opening without O_TRUNC spares the
    filesystem's truncate of the old file to zero on every run; a target
    that is not a regular file (/dev/null, a FIFO, a tty) takes the write
    alone, since ftruncate raises on it."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # one write, unless a pipe takes part of it
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def run(config: ExperimentConfig, echo: bool = True) -> RunReport:
    """Execute a configured experiment.

    Deterministic given (config, seed): the CSV written to config.out is
    byte-for-byte identical across runs on the same platform.  The summary is
    printed to stdout as a single JSON object unless echo is False.
    """
    start = time.perf_counter()
    if config.mode == "isometry-test":
        columns, (values, outcomes) = ISOMETRY_COLUMNS, _run_isometry_test(config)
    else:
        columns = AXIOM_COLUMNS if config.mode == "axioms" else TRIAL_COLUMNS
        values, outcomes = _trial_rows(config)
    counts = {key: int(np.count_nonzero(outcomes == key)) for key in ("pass", "fail", "boundary")}
    summary = {
        "mode": config.mode,
        "seed": config.seed,
        "trials": len(outcomes),
        **counts,
        "wall_time_s": time.perf_counter() - start,
        "out": config.out,
    }
    if config.mode == "isometry-test":
        summary["trials"] = config.trials  # the random probes, as in the CSV
        summary["scalar_multiple_of_isometry"] = bool(values[0][0])
        summary["ratio_spread"] = float(values[1][0])
    report = RunReport(columns=columns, values=values, summary=summary)
    if config.out is not None:
        _write_csv(config.out, report.csv_text())
    if echo:
        print(json.dumps(summary, sort_keys=True))
    return report
