"""Experiment runner: parses configs, seeds per-trial RNG streams, dispatches
to the core modules, and emits deterministic CSV reports.

Rows run in one loop over a run's row indices, in stacks of rows: every mode
runs each stack through its draws and checks as (B, n, d) arrays, and a
stack may hold the rows of several epsilons, each with its own.  Each row
draws from its own counter-based generator (Philox keyed on (seed, row
index)), so any row can be recomputed on its own and no row's output depends
on the rows before it or on the stack it ran in.  `trial_rng` defines a
row's generator and builds it for a row rerun alone; a run hashes every
row's key at once and re-keys a pool of generators, kept from run to run,
for each stack (`streams`), to the same state.
"""

from __future__ import annotations

import json
import threading
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
    _preservation_stack,
    _require_isometry_trials,
    is_scalar_multiple_of_isometry,
    u_eps_L1,
    u_eps_l1,
    u_eps_Lp,
)
from .sip import SipAxiomReport, _axiom_reports, _require_smooth_lp

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
    rows: list[tuple]
    summary: dict

    def csv_text(self) -> str:
        """A `#v1` header, then the rows; a column of floats prints "%.17g"."""
        columns = list(zip(*self.rows))
        floats = [all(isinstance(v, float) for v in values) for values in columns]
        line = ",".join("%.17g" if f else "%s" for f in floats)
        columns = [values if f else list(map(_fmt, values)) for values, f in zip(columns, floats)]
        return "\n".join(["#v1 " + ",".join(self.columns),
                          *(line % row for row in zip(*columns))]) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# A stack function measures the rows of a list of generators, one row per
# generator, at eps: a float array of each row's epsilon, or None in the
# modes without epsilons.  It returns their columns after the shared (trial,
# seed, p, q, n, d) prefix, each a list of one value per row or a value every
# row shares, and their outcomes (pass | fail | boundary); or it raises a
# failing row's error.

def _check_stack(cfg: ExperimentConfig, rngs, eps):
    """Draw an orthogonal pair per row and check it (exactly at eps None)."""
    xs, ys = _draw_pairs(cfg.spec, rngs)
    nx, ny = _norm_rows(xs, cfg.spec)[1], _norm_rows(ys, cfg.spec)[1]
    if eps is None:
        verdict, margin, boundary, _ = _exact_checks(xs, ys, nx, ny, cfg.spec)
    else:
        verdict, margin, boundary, _ = _approx_checks(xs, ys, nx, ny, eps, cfg.spec)
    return ((0.0 if eps is None else eps.tolist(), verdict.tolist(), margin.tolist(), "none",
             "", "", boundary.tolist()), outcome(verdict, boundary).tolist())


def _sip_stack(cfg: ExperimentConfig, rngs, eps):
    """Random (not constructed) pairs: the direct check and the semi-inner
    product criterion must agree outside the cross-route band."""
    xs, ys = _draw_elements(cfg.spec, rngs, 2)
    (dv, dm, db, _), (cv, cm, cb, _) = _route_checks(xs, ys, eps, cfg.spec)
    boundary = db | cb | (np.abs(cm) < CROSS_ROUTE_BAND)
    return ((eps.tolist(), dv.tolist(), dm.tolist(), "sip", cv.tolist(), cm.tolist(),
             boundary.tolist()), outcome(dv == cv, boundary).tolist())


def _axiom_stack(cfg: ExperimentConfig, rngs, eps):
    """Draw f, g, h and scalars (a, b) per row and measure the residuals of
    the four semi-inner-product axioms on them."""
    F, G, H = _draw_elements(cfg.spec, rngs, 3, min_norm=0.0)
    ab = np.array([rng.standard_normal(2) for rng in rngs])
    reports = _axiom_reports(F, G, H, ab[:, 0], ab[:, 1], cfg.spec)
    # the report's fields are the CSV's residual and scale columns, in order
    residuals = [[getattr(rep, f.name) for rep in reports] for f in fields(SipAxiomReport)]
    ok = [rep.passes() for rep in reports]
    return (*ab.T.tolist(), *residuals, ok), outcome(np.array(ok), False).tolist()


def _sweep_stack(cfg: ExperimentConfig, rngs, eps):
    """Preservation trials, each epsilon's rows (a contiguous slice of the
    stack) imaged by that epsilon's operator."""
    cuts = [0, *(np.flatnonzero(eps[1:] != eps[:-1]) + 1).tolist(), len(eps)]
    images = [(cfg._operator(float(eps[i])), slice(i, j)) for i, j in zip(cuts, cuts[1:])]
    route, (dv, dm, db, _), (sv, sm, sb, _) = _preservation_stack(images, eps, cfg.spec, rngs)
    boundary = db | sb
    return ((eps.tolist(), dv.tolist(), dm.tolist(), route, sv.tolist(), sm.tolist(),
             boundary.tolist()), outcome(dv & sv, boundary).tolist())


_STACK_FUNCTIONS = {
    "check-ortho": _check_stack,
    "check-approx": _check_stack,
    "sip": _sip_stack,
    "axioms": _axiom_stack,
    "preserver-sweep": _sweep_stack,
}

# Each thread's pool of the generators that runs re-key for their stacks
# (streams.stack_rngs).  It outlives a run, so a later run re-keys generators
# instead of building them, and holds as many as the largest stack run so far
# in its thread; runs in two threads share no generator.
_GENERATORS = threading.local()


def _trial_rows(cfg: ExperimentConfig) -> list[tuple[tuple, str]]:
    """Rows in order: cfg.trials per epsilon (one pass without epsilons for
    check-ortho and axioms), row k*trials + i seeded by (seed, that index).
    One loop runs the rows in stacks of max(1, STACK_ENTRIES // (n d)) rows,
    a stack holding the rows of one epsilon or of several.  Raises the error
    of the first row that fails, in that order."""
    from .streams import philox_keys, stack_rngs  # imports numpy.random; import bjlab does not
    stack_function = _STACK_FUNCTIONS[cfg.mode]
    s = cfg.spec
    size = max(1, STACK_ENTRIES // (s.n * s.d))
    total = max(1, len(cfg.epsilons)) * cfg.trials
    keys = philox_keys(cfg.seed, np.arange(total, dtype=np.uint64))
    row_eps = np.repeat(cfg.epsilons, cfg.trials) if cfg.epsilons else None
    pool = vars(_GENERATORS).setdefault("pool", [])
    rows = []
    for start in range(0, total, size):
        indices = range(start, min(start + size, total))
        eps = None if row_eps is None else row_eps[indices.start:indices.stop]
        try:
            columns, outcomes = stack_function(cfg, stack_rngs(keys, indices, pool), eps)
        except BjlabError:
            # no row depends on its stack: rerun the rows one at a time,
            # from fresh generators, up to the first that fails alone
            for i, index in enumerate(indices):
                stack_function(cfg, [trial_rng(cfg.seed, index)],
                               None if eps is None else eps[i:i + 1])
            raise
        # a column every row shares is given once
        columns = [c if isinstance(c, list) else [c] * len(indices)
                   for c in ([i % cfg.trials for i in indices],
                             [f"{cfg.seed}:{i}" for i in indices], s.p, s.q, s.n, s.d,
                             *columns)]
        rows += zip(zip(*columns, strict=True), outcomes, strict=True)
    return rows


def _run_isometry_test(cfg: ExperimentConfig):
    if cfg.factors is not None:
        operator = ScalingOperator(cfg.factors)
    else:
        operator = cfg._operator(cfg.epsilons[0])
    rng = trial_rng(cfg.seed, 0)
    verdict, spread = is_scalar_multiple_of_isometry(
        operator, cfg.spec, trials=cfg.trials, rng=rng)
    return ISOMETRY_COLUMNS, [((verdict, spread, cfg.trials), str(outcome(verdict, False)))]


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
