"""Experiment runner: parses configs, seeds per-trial RNG streams, dispatches
to the core modules, and emits deterministic CSV reports.

Rows run in one serial loop.  Each row draws from its own counter-based
generator (Philox keyed on (seed, row index)), so any row can be recomputed
on its own and no row's output depends on the rows before it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .blockspace import SpaceSpec, outcome
from .errors import BadSpec, ConfigError
from .ortho import is_approx_bj_orthogonal, is_bj_orthogonal
from .preserver import (
    AtomPartition,
    ScalingOperator,
    draw_orthogonal_pair,
    is_scalar_multiple_of_isometry,
    preservation_trial,
    random_element,
    u_eps_L1,
    u_eps_l1,
    u_eps_Lp,
)
from .sip import sip_axiom_report, sip_orthogonality_criterion

MODES = ("check-ortho", "check-approx", "sip", "axioms", "preserver-sweep",
         "isometry-test")

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


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    spec: SpaceSpec
    trials: int
    seed: int
    epsilons: tuple[float, ...] = ()
    partition: AtomPartition | None = None
    factors: tuple[float, ...] | None = None
    tol: float = 1e-9
    out: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {', '.join(MODES)}, got {self.mode!r}")
        # type() rather than isinstance(): bool is a subclass of int
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials: must be a positive integer, got {self.trials!r}")
        if type(self.seed) is not int or abs(self.seed) >= 2**63:
            raise ConfigError(f"seed: must be a 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        for e in self.epsilons:
            if not (0.0 <= e < 1.0):
                raise ConfigError(f"epsilons: values must lie in [0, 1), got {e}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol: must be positive and finite, got {self.tol}")
        if self.mode in _MODES_NEEDING_EPS and not self.epsilons:
            raise ConfigError(f"epsilons: required for mode {self.mode}")
        if self.partition is not None and self.partition.n != self.spec.n:
            raise ConfigError(
                f"partition: covers {self.partition.n} atoms, spec has {self.spec.n}")
        if self.factors is not None:
            object.__setattr__(self, "factors",
                               tuple(float(c) for c in self.factors))
            if len(self.factors) != self.spec.n:
                raise ConfigError(
                    f"factors: expected {self.spec.n} entries, got {len(self.factors)}")
            if not all(c > 0.0 and math.isfinite(c) for c in self.factors):
                raise ConfigError("factors: all entries must be positive and finite")
        if self.mode != "isometry-test" and not self.spec.smooth_inner:
            raise ConfigError(
                f"spec: mode {self.mode} needs 1 < q < inf, got q={self.spec.q}")
        if self.mode in ("sip", "axioms") and self.spec.p == 1.0:
            raise ConfigError(f"spec: mode {self.mode} needs p > 1")
        if self.mode == "isometry-test":
            if self.factors is None and not self.epsilons:
                raise ConfigError("factors: required for isometry-test "
                                  "(or give epsilons to test a built-in operator)")
            if self.trials < 2:
                raise ConfigError("trials: isometry-test needs at least 2")
        if self.mode == "preserver-sweep":
            self._operator(self.epsilons[0])  # validate spec/partition pairing

    def _operator(self, eps: float) -> ScalingOperator:
        """Matching counterexample operator for this space at eps."""
        try:
            if self.spec.p == 1.0:
                if self.partition is None:
                    return u_eps_l1(eps, self.spec)
                return u_eps_L1(eps, self.partition, self.spec)
            if self.partition is None:
                raise ConfigError("partition: required for p > 1 sweeps")
            return u_eps_Lp(eps, self.partition, self.spec)
        except BadSpec as exc:
            raise ConfigError(f"spec/partition: {exc}") from exc


_CONFIG_KEYS = {"mode", "spec", "epsilons", "trials", "seed", "partition",
                "factors", "tol", "out"}
_SPEC_KEYS = {"p", "q", "n", "d", "weights"}


def parse_config(text: str, mode: str | None = None) -> ExperimentConfig:
    """Parse a JSON config; rejects unknown keys and fills documented
    defaults (tol=1e-9)."""
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

    if "spec" not in data:
        raise ConfigError("spec: missing")
    raw_spec = data["spec"]
    if not isinstance(raw_spec, dict):
        raise ConfigError("spec: must be an object {p, q, n, d, weights}")
    bad = set(raw_spec) - _SPEC_KEYS
    if bad:
        raise ConfigError(f"spec: unknown key(s): {', '.join(sorted(bad))}")
    missing = _SPEC_KEYS - set(raw_spec)
    if missing:
        raise ConfigError(f"spec: missing key(s): {', '.join(sorted(missing))}")
    try:
        spec = SpaceSpec.from_dict(raw_spec)
    except BadSpec as exc:
        raise ConfigError(f"spec: {exc}") from exc

    for key in ("trials", "seed"):
        if key not in data:
            raise ConfigError(f"{key}: missing")

    partition = None
    if data.get("partition") is not None:
        raw_part = data["partition"]
        if not isinstance(raw_part, list):
            raise ConfigError("partition: must be an array of atom indices")
        try:
            partition = AtomPartition(tuple(raw_part), spec.n)
        except BadSpec as exc:
            raise ConfigError(f"partition: {exc}") from exc

    return ExperimentConfig(
        mode=eff_mode,
        spec=spec,
        trials=data["trials"],
        seed=data["seed"],
        epsilons=tuple(data.get("epsilons", ())),
        partition=partition,
        factors=tuple(data["factors"]) if data.get("factors") is not None else None,
        tol=float(data.get("tol", 1e-9)),
        out=data.get("out"),
    )


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trial stream, independent of execution order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


@dataclass
class _Row:
    values: tuple
    outcome: str          # pass | fail | boundary
    pass_margins: tuple = ()


@dataclass
class RunReport:
    mode: str
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


# A row function measures one row from its generator and returns the row's
# columns after the shared (trial, seed, p, q, n, d) prefix, its outcome and
# the margins that count towards max_abs_margin_pass.  operator is the
# sweep's operator at eps; the other modes ignore it.

def _ortho_row(cfg: ExperimentConfig, rng, eps, operator):
    """Draw an orthogonal pair and check it (exactly when eps is None)."""
    x, y = draw_orthogonal_pair(cfg.spec, rng)
    if eps is None:
        res = is_bj_orthogonal(x, y, cfg.spec, cfg.tol)
    else:
        res = is_approx_bj_orthogonal(x, y, eps, cfg.spec, cfg.tol)
    shown_eps = 0.0 if eps is None else eps
    return ((shown_eps, res.verdict, res.margin, "none", "", "", res.boundary),
            outcome(res), (res.margin,))


def _sip_row(cfg: ExperimentConfig, rng, eps, operator):
    """Random (not constructed) pairs: the direct check and the semi-inner
    product criterion must agree outside the cross-route band."""
    x = random_element(cfg.spec, rng)
    y = random_element(cfg.spec, rng)
    direct = is_approx_bj_orthogonal(x, y, eps, cfg.spec, cfg.tol)
    crit = sip_orthogonality_criterion(x, y, eps, cfg.spec, cfg.tol)
    # the routes must agree (not hold), so blockspace.outcome does not apply
    if direct.boundary or crit.boundary or abs(crit.margin) < CROSS_ROUTE_BAND:
        agreement = "boundary"
    else:
        agreement = "pass" if direct.verdict == crit.verdict else "fail"
    return ((eps, direct.verdict, direct.margin, "sip", crit.verdict,
             crit.margin, agreement == "boundary"),
            agreement, (direct.margin, crit.margin))


def _axiom_row(cfg: ExperimentConfig, rng, eps, operator):
    f = random_element(cfg.spec, rng, min_norm=0.0)
    g = random_element(cfg.spec, rng, min_norm=0.0)
    h = random_element(cfg.spec, rng, min_norm=0.0)
    a, b = rng.standard_normal(2)
    rep = sip_axiom_report(f, g, h, a, b, cfg.spec)
    ok = rep.passes(cfg.tol)
    return ((float(a), float(b), rep.first_slot_linearity,
             rep.second_slot_homogeneity, rep.cauchy_schwarz,
             rep.norm_compatibility, rep.scale, ok),
            "pass" if ok else "fail", (rep.max_relative(),))


def _sweep_row(cfg: ExperimentConfig, rng, eps, operator):
    rec = preservation_trial(operator, eps, cfg.spec, rng, cfg.tol)
    return ((eps, rec.direct.verdict, rec.direct.margin, rec.second_route,
             rec.second.verdict, rec.second.margin, rec.outcome == "boundary"),
            rec.outcome, (rec.direct.margin, rec.second.margin))


_ROW_FUNCTIONS = {
    "check-ortho": _ortho_row,
    "check-approx": _ortho_row,
    "sip": _sip_row,
    "axioms": _axiom_row,
    "preserver-sweep": _sweep_row,
}


def _trial_rows(cfg: ExperimentConfig) -> list[_Row]:
    """Rows in order: cfg.trials per epsilon (one pass without epsilons for
    check-ortho and axioms), row k*trials + i seeded by (seed, that index)."""
    row_function = _ROW_FUNCTIONS[cfg.mode]
    epsilons = cfg.epsilons if cfg.mode in _MODES_NEEDING_EPS else (None,)
    s = cfg.spec
    rows = []
    for k, eps in enumerate(epsilons):
        operator = cfg._operator(eps) if cfg.mode == "preserver-sweep" else None
        for trial in range(cfg.trials):
            index = k * cfg.trials + trial
            values, row_outcome, margins = row_function(
                cfg, trial_rng(cfg.seed, index), eps, operator)
            rows.append(_Row((trial, f"{cfg.seed}:{index}", s.p, s.q, s.n, s.d)
                             + values, row_outcome, margins))
    return rows


def _run_isometry_test(cfg: ExperimentConfig):
    if cfg.factors is not None:
        operator = ScalingOperator(np.asarray(cfg.factors))
    else:
        operator = cfg._operator(cfg.epsilons[0])
    rng = trial_rng(cfg.seed, 0)
    verdict, spread = is_scalar_multiple_of_isometry(
        operator, cfg.spec, trials=cfg.trials, tol=cfg.tol, rng=rng)
    row = _Row((verdict, spread, cfg.trials), "pass", ())
    return ISOMETRY_COLUMNS, [row]


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
    rows = [r.values for r in row_data]
    counts = {"pass": 0, "fail": 0, "boundary": 0}
    max_pass_margin = 0.0
    for r in row_data:
        counts[r.outcome] += 1
        if r.outcome == "pass" and r.pass_margins:
            max_pass_margin = max(max_pass_margin,
                                  max(abs(m) for m in r.pass_margins))
    summary = {
        "mode": config.mode,
        "seed": config.seed,
        "trials": len(rows),
        "pass": counts["pass"],
        "fail": counts["fail"],
        "boundary": counts["boundary"],
        "max_abs_margin_pass": max_pass_margin,
        "wall_time_s": time.perf_counter() - start,
        "out": config.out,
    }
    if config.mode == "isometry-test":
        summary["trials"] = config.trials  # the random probes, as in the CSV
        summary["scalar_multiple_of_isometry"] = bool(rows[0][0])
        summary["ratio_spread"] = float(rows[0][1])
    report = RunReport(mode=config.mode, columns=columns, rows=rows,
                       summary=summary)
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.csv_text())
    if echo:
        print(json.dumps(summary, sort_keys=True))
    return report


def with_overrides(config: ExperimentConfig, seed: int | None = None,
                   out: str | None = None) -> ExperimentConfig:
    """Command-line overrides applied to a parsed config."""
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if out is not None:
        changes["out"] = out
    return replace(config, **changes) if changes else config
