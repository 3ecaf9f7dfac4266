import json
from pathlib import Path

import pytest

import bjlab.harness as harness
from bjlab import (
    CheckResult,
    ConfigError,
    ExperimentConfig,
    SpaceSpec,
    parse_config,
    run,
)
from bjlab.cli import main
from bjlab.harness import with_overrides

MINIMAL = {
    "spec": {"p": 1, "q": 2, "n": 4, "d": 2, "weights": [1, 1, 1, 1]},
    "trials": 5,
    "seed": 7,
}


def config_text(mode=None, **extra):
    data = dict(MINIMAL)
    if mode:
        data["mode"] = mode
    data.update(extra)
    return json.dumps(data)


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(config_text("check-ortho"))
    assert cfg.mode == "check-ortho"
    assert cfg.tol == 1e-9
    assert cfg.epsilons == ()
    assert cfg.spec == SpaceSpec(1, 2, 4, 2, (1.0,) * 4)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(config_text("check-ortho", tollerance=1e-9))
    with pytest.raises(ConfigError, match="spec: unknown key"):
        parse_config(json.dumps({**MINIMAL, "mode": "check-ortho",
                                 "spec": {**MINIMAL["spec"], "r": 3}}))


def test_parse_rejects_bad_epsilons():
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config(config_text("check-approx", epsilons=[1.0]))
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config(config_text("check-approx", epsilons=[-0.2]))
    with pytest.raises(ConfigError, match="epsilons: required"):
        parse_config(config_text("check-approx"))


def test_parse_rejects_bad_spec_values():
    bad = {**MINIMAL, "mode": "check-ortho",
           "spec": {"p": 1, "q": 2, "n": 4, "d": 2, "weights": [1, 0, 1, 1]}}
    with pytest.raises(ConfigError, match="spec"):
        parse_config(json.dumps(bad))
    missing = {k: v for k, v in MINIMAL.items() if k != "trials"}
    with pytest.raises(ConfigError, match="trials: missing"):
        parse_config(json.dumps({**missing, "mode": "check-ortho"}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_parse_mode_conflict_and_merge():
    with pytest.raises(ConfigError, match="mode"):
        parse_config(config_text("sip"), mode="check-ortho")
    cfg = parse_config(config_text(), mode="check-ortho")
    assert cfg.mode == "check-ortho"
    with pytest.raises(ConfigError, match="mode: missing"):
        parse_config(config_text())


def test_mode_specific_validation():
    with pytest.raises(ConfigError, match="1 < q < inf"):
        parse_config(json.dumps({**MINIMAL, "mode": "check-ortho",
                                 "spec": {**MINIMAL["spec"], "q": 1}}))
    with pytest.raises(ConfigError, match="p > 1"):
        parse_config(config_text("sip", epsilons=[0.1]))
    with pytest.raises(ConfigError, match="partition"):
        parse_config(json.dumps({
            "mode": "preserver-sweep", "trials": 2, "seed": 1,
            "epsilons": [0.5],
            "spec": {"p": 2, "q": 2, "n": 4, "d": 2, "weights": [1, 1, 1, 1]},
        }))
    with pytest.raises(ConfigError, match="trials"):
        parse_config(config_text("isometry-test", factors=[1, 1, 1, 1], trials=1))


def test_partition_parsing():
    cfg = parse_config(config_text("preserver-sweep", epsilons=[0.5],
                                   partition=[0, 1]))
    assert cfg.partition.indices == (0, 1)
    with pytest.raises(ConfigError, match="partition"):
        parse_config(config_text("preserver-sweep", epsilons=[0.5],
                                 partition=[0, 1, 2, 3]))


def run_quiet(cfg):
    return run(cfg, echo=False)


@pytest.mark.parametrize("mode,extra", [
    ("check-ortho", {}),
    ("check-approx", {"epsilons": [0.0, 0.4]}),
    ("preserver-sweep", {"epsilons": [0.3]}),
])
def test_summary_accounting(mode, extra):
    cfg = parse_config(config_text(mode, **extra))
    report = run_quiet(cfg)
    s = report.summary
    assert s["pass"] + s["fail"] + s["boundary"] == s["trials"] == len(report.rows)
    assert s["fail"] == 0


def test_summary_accounting_smooth_modes():
    base = {"spec": {"p": 3, "q": 1.5, "n": 3, "d": 2, "weights": [1, 0.5, 2]},
            "trials": 5, "seed": 11}
    for mode, extra in (("sip", {"epsilons": [0.2]}), ("axioms", {}),
                        ("preserver-sweep", {"epsilons": [0.5], "partition": [0]})):
        cfg = parse_config(json.dumps({**base, "mode": mode, **extra}))
        s = run_quiet(cfg).summary
        assert s["pass"] + s["fail"] + s["boundary"] == s["trials"]
        assert s["fail"] == 0


def test_csv_deterministic_across_runs_and_threads(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    text = config_text("preserver-sweep", epsilons=[0.5], trials=20)
    run_quiet(with_overrides(parse_config(text), out=str(out1)))
    run_quiet(with_overrides(parse_config(text), out=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = with_overrides(parse_config(config_text("check-ortho")), out=str(out))
    run_quiet(cfg)
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("#v1 ")
    assert lines[0][4:].split(",") == list(harness.TRIAL_COLUMNS)
    assert len(lines) == 1 + cfg.trials
    first = lines[1].split(",")
    assert first[7] in ("true", "false")

    sweep = with_overrides(
        parse_config(config_text("preserver-sweep", epsilons=[0.1], trials=2)),
        out=str(tmp_path / "sweep.csv"))
    run_quiet(sweep)
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[6] == f"{0.1:.17g}"  # decimals carry 17 significant digits


def test_seed_changes_rows():
    text = config_text("check-ortho", trials=10)
    r1 = run_quiet(parse_config(text))
    r2 = run_quiet(with_overrides(parse_config(text), seed=123))
    assert r1.rows != r2.rows


SHIPPED_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_run(path, tmp_path):
    data = json.loads(path.read_text(encoding="utf-8"))
    data.update(trials=20, out=str(tmp_path / f"{path.stem}.csv"))
    s = run_quiet(parse_config(json.dumps(data))).summary
    if data["mode"] == "isometry-test":
        assert s["scalar_multiple_of_isometry"] is True
    else:
        assert s["fail"] == 0 and s["boundary"] == 0
    assert (tmp_path / f"{path.stem}.csv").exists()


def test_isometry_mode_summary():
    cfg = parse_config(config_text("isometry-test", factors=[1, 1, 1, 1]))
    s = run_quiet(cfg).summary
    assert s["scalar_multiple_of_isometry"] is True
    assert s["trials"] == cfg.trials
    assert s["ratio_spread"] <= 1e-12

    cfg2 = parse_config(config_text("isometry-test", epsilons=[0.5]))
    s2 = run_quiet(cfg2).summary
    assert s2["scalar_multiple_of_isometry"] is False
    assert s2["ratio_spread"] >= 0.25


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(config_text("check-ortho"), encoding="utf-8")
    assert main(["check-ortho", "--config", str(good)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["fail"] == 0 and summary["pass"] == 5

    bad = tmp_path / "bad.json"
    bad.write_text(config_text("check-approx", epsilons=[1.5]), encoding="utf-8")
    assert main(["check-approx", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err

    assert main(["check-ortho", "--config", str(tmp_path / "missing.json")]) == 1


def test_cli_seed_and_out_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_text("check-ortho"), encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["check-ortho", "--config", str(cfg_path),
                 "--seed", "99", "--out", str(out)]) == 0
    assert out.exists()
    assert ":99" not in out.read_text()  # seed lands in the seed column
    assert "99:" in out.read_text()


def test_cli_exit_two_on_failed_trials(tmp_path, monkeypatch, capsys):
    # force a failing verdict to exercise the unexplained-failure path
    monkeypatch.setattr(harness, "is_bj_orthogonal",
                        lambda *a, **k: CheckResult(False, -0.5))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_text("check-ortho"), encoding="utf-8")
    assert main(["check-ortho", "--config", str(cfg_path)]) == 2
    assert json.loads(capsys.readouterr().out.strip())["fail"] == 5


def test_config_spec_roundtrip_through_json():
    spec = SpaceSpec(1.5, 3, 3, 2, (0.1, 2.25, 5.0))
    text = json.dumps({"mode": "check-ortho", "spec": spec.to_dict(),
                       "trials": 2, "seed": 1})
    assert parse_config(text).spec == spec


def test_direct_experiment_config_validation():
    spec = SpaceSpec(1, 2, 4, 2, (1.0,) * 4)
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(mode="check-ortho", spec=spec, trials=0, seed=1)
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(mode="check-ortho", spec=spec, trials=True, seed=1)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(mode="check-ortho", spec=spec, trials=1, seed=2**70)
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(mode="explore", spec=spec, trials=1, seed=1)
