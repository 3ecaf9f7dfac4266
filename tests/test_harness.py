import dataclasses
import importlib.util
import json
import os
import re
import resource
import threading
from pathlib import Path

import numpy as np
import pytest

import bjlab.harness as harness
from bjlab import (
    AtomPartition,
    ConfigError,
    ExperimentConfig,
    SpaceSpec,
    blockspace,
    parse_config,
    preservation_trial,
    run,
)
from bjlab.blockspace import DEFAULT_TOL
from bjlab.cli import build_parser, main
from bjlab.harness import trial_rng

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
    assert cfg.tol == DEFAULT_TOL == 1e-9
    assert cfg.epsilons == ()
    assert cfg.spec == SpaceSpec(1, 2, 4, 2, (1.0,) * 4)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(config_text("check-ortho", tollerance=1e-9))
    # every verdict is decided at DEFAULT_TOL; no config sets its own
    with pytest.raises(ConfigError, match=r"^unknown config key\(s\): tol$"):
        parse_config(config_text("check-ortho", tol=1e-9))
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
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        parse_config(json.dumps([MINIMAL]))


def test_parse_mode_conflict_and_merge():
    with pytest.raises(ConfigError, match="mode"):
        parse_config(config_text("sip"), mode="check-ortho")
    cfg = parse_config(config_text(), mode="check-ortho")
    assert cfg.mode == "check-ortho"
    with pytest.raises(ConfigError, match="mode: missing"):
        parse_config(config_text())


def test_mode_specific_validation():
    for q in (1, "inf"):
        with pytest.raises(ConfigError, match="^spec: .*1 < q < inf"):
            parse_config(json.dumps({**MINIMAL, "mode": "check-ortho",
                                     "spec": {**MINIMAL["spec"], "q": q}}))
    with pytest.raises(ConfigError, match="p > 1"):
        parse_config(config_text("sip", epsilons=[0.1]))
    with pytest.raises(ConfigError, match="partition"):
        parse_config(json.dumps({
            "mode": "preserver-sweep", "trials": 2, "seed": 1,
            "epsilons": [0.5],
            "spec": {"p": 2, "q": 2, "n": 4, "d": 2, "weights": [1, 1, 1, 1]},
        }))
    with pytest.raises(ConfigError, match="^trials: need at least 2"):
        parse_config(config_text("isometry-test", factors=[1, 1, 1, 1], trials=1))


def test_partition_parsing():
    cfg = parse_config(config_text("preserver-sweep", epsilons=[0.5],
                                   partition=[0, 1]))
    assert cfg.partition.indices == (0, 1)
    with pytest.raises(ConfigError, match="partition"):
        parse_config(config_text("preserver-sweep", epsilons=[0.5],
                                 partition=[0, 1, 2, 3]))


def with_spec(**changes):
    return {"spec": {**MINIMAL["spec"], **changes}}


SMOOTH = with_spec(p=3)


MALFORMED_OR_UNREAD = [
    # malformed values
    ("check-approx", "epsilons", {"epsilons": 5}),
    ("check-approx", "epsilons", {"epsilons": ["a"]}),
    ("isometry-test", "factors", {"factors": 5}),
    ("isometry-test", "factors", {"factors": ["a", 1, 1, 1]}),
    ("check-ortho", "spec", with_spec(weights=5)),
    ("check-ortho", "spec", with_spec(n="x")),
    ("check-ortho", "spec", with_spec(p=None)),
    ("preserver-sweep", "partition", {"epsilons": [0.5], "partition": ["a"]}),
    # values that were truncated or misread
    ("check-ortho", "spec", with_spec(n=4.7)),
    ("check-ortho", "spec", with_spec(d=2.5)),
    ("preserver-sweep", "partition", {"epsilons": [0.5], "partition": [0.5]}),
    ("check-ortho", "out", {"out": 5}),
    # keys the mode does not read
    ("check-ortho", "epsilons", {"epsilons": [0.1]}),
    ("axioms", "epsilons", {**SMOOTH, "epsilons": [0.1]}),
    ("check-ortho", "partition", {"partition": [0]}),
    ("check-approx", "partition", {"epsilons": [0.1], "partition": [0]}),
    ("axioms", "partition", {**SMOOTH, "partition": [0]}),
    ("check-ortho", "factors", {"factors": [1, 1, 1, 1]}),
    ("preserver-sweep", "factors", {"epsilons": [0.5], "factors": [1, 1, 1, 1]}),
    ("isometry-test", "epsilons", {"epsilons": [0.5], "factors": [1, 1, 1, 1]}),
    ("isometry-test", "partition", {"partition": [0], "factors": [1, 1, 1, 1]}),
    ("isometry-test", "epsilons", {"epsilons": [0.3, 0.5]}),
    # operators that could not be built until the run reached them
    ("preserver-sweep", "spec/partition", {"epsilons": [0.5, 0.0]}),
    ("isometry-test", "partition", {**SMOOTH, "epsilons": [0.5]}),
    # epsilons that are not a list of numbers (5 is the first probe above)
    ("check-approx", "epsilons", {"epsilons": "0.1"}),
    ("check-approx", "epsilons", {"epsilons": [[0.1]]}),
    # bools and numeric strings are not numbers
    ("check-approx", "epsilons", {"epsilons": [True]}),
    ("check-ortho", "spec", with_spec(p="3")),
    ("check-ortho", "spec", with_spec(p=True)),
    ("isometry-test", "spec", {**with_spec(q=True), "factors": [1, 1, 1, 1]}),
    ("check-ortho", "spec", with_spec(weights=[1, True, 1, 1])),
    ("check-ortho", "spec", with_spec(weights=[1, "2", 1, 1])),
    ("isometry-test", "factors", {"factors": [1, True, 1, 1]}),
    ("isometry-test", "factors", {"factors": [1, "2", 1, 1]}),
    # specs that SpaceSpec.from_dict or SpaceSpec refuses
    ("check-ortho", "spec", with_spec(q=0.5)),
    ("check-ortho", "spec", {"spec": [1, 2, 4, 2, [1, 1, 1, 1]]}),
    ("check-ortho", "spec", {"spec": {"p": 1, "q": 2, "n": 4, "d": 2}}),
    ("check-ortho", "spec", with_spec(q="two")),
    # an isometry test with no operator to test
    ("isometry-test", "factors", {}),
]
# Each case keeps a fixed number, not its position, in its test id, so
# deleting a case renames no other; 2, 3, 28 and 29 are retired.
CASE_NUMBERS = [0, 1, *range(4, 28), *range(30, 43)]


@pytest.mark.parametrize("mode,key,extra", MALFORMED_OR_UNREAD, ids=[
    f"{mode}-{key}-extra{number}"
    for number, (mode, key, _) in zip(CASE_NUMBERS, MALFORMED_OR_UNREAD, strict=True)])
def test_malformed_or_unread_values_are_config_errors(mode, key, extra):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        parse_config(config_text(mode, **extra))


# README's table of optional keys: the ones each mode accepts, modes in the
# order of MODES and of the CLI's choices
ACCEPTED_KEYS = {
    "check-ortho": set(),
    "check-approx": {"epsilons"},
    "sip": {"epsilons"},
    "axioms": set(),
    "preserver-sweep": {"epsilons", "partition"},
    "isometry-test": {"epsilons", "partition", "factors"},
}


def test_each_mode_accepts_the_optional_keys_of_the_readme_table():
    (choices,) = [a.choices for a in build_parser()._actions if a.dest == "mode"]
    assert tuple(choices) == harness.MODES == tuple(ACCEPTED_KEYS)
    values = {"epsilons": [0.5], "partition": [0], "factors": [1, 2, 1, 1]}
    accepted = {}
    for mode in harness.MODES:
        accepted[mode] = set()
        for key in values:
            # the key, with the epsilons and partition the mode needs beside
            # it; factors stand alone
            extra = {key: values[key]} if key == "factors" else {
                k: values[k] for k in ("epsilons", "partition")
                if k == key or k in ACCEPTED_KEYS[mode]}
            try:
                cfg = parse_config(config_text(mode, **extra, **SMOOTH))
            except ConfigError as exc:
                assert str(exc) == f"{key}: not read by mode {mode}"
            else:
                assert getattr(cfg, key)
                accepted[mode].add(key)
    assert accepted == ACCEPTED_KEYS


@pytest.mark.parametrize("value", [5, "0.1", [[0.1]]])
def test_epsilons_must_be_a_list_of_numbers(value):
    with pytest.raises(ConfigError) as err:
        parse_config(config_text("check-approx", epsilons=value))
    assert str(err.value) == f"epsilons: must be a list of numbers, got {value!r}"


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


SUMMARY_KEYS = {"mode", "seed", "trials", "pass", "fail", "boundary",
                "wall_time_s", "out"}


@pytest.mark.parametrize("mode,extra,added", [
    ("check-ortho", {}, set()),
    ("sip", {**SMOOTH, "epsilons": [0.2]}, set()),
    ("axioms", SMOOTH, set()),
    ("preserver-sweep", {"epsilons": [0.3]}, set()),
    ("isometry-test", {"factors": [1, 1, 1, 1]},
     {"scalar_multiple_of_isometry", "ratio_spread"}),
])
def test_summary_key_set(mode, extra, added):
    summary = run_quiet(parse_config(config_text(mode, **extra))).summary
    assert set(summary) == SUMMARY_KEYS | added


def test_csv_deterministic_across_runs(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    text = config_text("preserver-sweep", epsilons=[0.5], trials=20)
    run_quiet(dataclasses.replace(parse_config(text), out=str(out1)))
    run_quiet(dataclasses.replace(parse_config(text), out=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = dataclasses.replace(parse_config(config_text("check-ortho")), out=str(out))
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

    sweep = dataclasses.replace(
        parse_config(config_text("preserver-sweep", epsilons=[0.1], trials=2)),
        out=str(tmp_path / "sweep.csv"))
    run_quiet(sweep)
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[6] == f"{0.1:.17g}"  # decimals carry 17 significant digits


@pytest.mark.parametrize("old", [b"x" * 4096, b"#v1 short\n", None],
                         ids=["longer", "shorter", "absent"])
def test_csv_is_written_over_the_old_file(tmp_path, old):
    # the old file keeps its inode and ends where the new CSV ends
    out = tmp_path / "rows.csv"
    if old is not None:
        out.write_bytes(old)
    inode = out.stat().st_ino if old is not None else None
    report = run_quiet(dataclasses.replace(parse_config(config_text("check-ortho")),
                                           out=str(out)))
    assert out.read_bytes() == report.csv_text().encode("utf-8")
    assert len(report.csv_text()) < 4096  # the longer old file was cut
    if inode is not None:
        assert out.stat().st_ino == inode


def test_csv_write_never_truncates_on_open(tmp_path, monkeypatch):
    # opening with O_TRUNC would cut the old file to zero before the write
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(harness.os, "open", recording_open)
    harness._write_csv(str(tmp_path / "rows.csv"), "#v1 a\n1\n")
    assert len(flags) == 1
    assert flags[0] & os.O_CREAT and flags[0] & os.O_WRONLY
    assert not flags[0] & os.O_TRUNC


def test_a_failed_format_leaves_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    out.write_bytes(b"#v1 old\n")

    def broken(self):
        raise RuntimeError("format failed")

    monkeypatch.setattr(harness.RunReport, "csv_text", broken)
    with pytest.raises(RuntimeError, match="format failed"):
        run_quiet(dataclasses.replace(parse_config(config_text("check-ortho")), out=str(out)))
    assert out.read_bytes() == b"#v1 old\n"


def test_csv_goes_to_targets_that_are_not_regular_files(tmp_path):
    # /dev/null and a FIFO take the write alone: ftruncate would raise there
    cfg = parse_config(config_text("preserver-sweep", epsilons=[0.1, 0.5], trials=500))
    report = run_quiet(dataclasses.replace(cfg, out=os.devnull))
    assert len(report.csv_text()) > 65536  # more than a pipe buffer holds
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        run_quiet(dataclasses.replace(cfg, out=str(fifo)))
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [report.csv_text().encode("utf-8")]


def test_seed_changes_rows():
    text = config_text("check-ortho", trials=10)
    r1 = run_quiet(parse_config(text))
    r2 = run_quiet(dataclasses.replace(parse_config(text), seed=123))
    assert r1.rows != r2.rows


def test_row_is_recomputable_from_its_key():
    cfg = parse_config(config_text("preserver-sweep", epsilons=[0.3, 0.7], trials=3))
    col = {name: i for i, name in enumerate(harness.TRIAL_COLUMNS)}
    report = run_quiet(cfg)
    assert len(report.rows) == 6
    for row in report.rows:
        seed, index = map(int, row[col["seed"]].split(":"))
        eps = row[col["epsilon"]]
        rec = preservation_trial(cfg._operator(eps), eps, cfg.spec, trial_rng(seed, index))
        assert (row[col["direct_verdict"]], row[col["direct_margin"]],
                row[col["second_verdict"]], row[col["second_margin"]]) == (
            rec.direct.verdict, rec.direct.margin,
            rec.second.verdict, rec.second.margin)


SHIPPED_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_run(path, tmp_path, capsys):
    data = json.loads(path.read_text(encoding="utf-8"))
    data.update(trials=20)
    cfg_path = tmp_path / path.name
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main([data["mode"], "--config", str(cfg_path),
                 "--out", str(tmp_path / f"{path.stem}.csv")]) == 0
    s = json.loads(capsys.readouterr().out)
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

    malformed = tmp_path / "malformed.json"
    malformed.write_text(config_text("check-approx", epsilons=5), encoding="utf-8")
    assert main(["check-approx", "--config", str(malformed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bjlab: config error: epsilons: ") and "Traceback" not in err

    # subnormal weights pass the config checks but leave no drawable element
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(config_text(
        "preserver-sweep", epsilons=[0.5], partition=[0], trials=3, seed=1,
        **with_spec(p=3, n=3, weights=[1e-320] * 3)), encoding="utf-8")
    assert main(["preserver-sweep", "--config", str(degenerate)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bjlab: error: DegenerateDraw: ") and "Traceback" not in err

    # 1e308 I is a scalar multiple of an isometry: the probes divide the
    # factors by their max, so no probe's image leaves the float range
    huge = tmp_path / "huge.json"
    huge.write_text(config_text(
        "isometry-test", factors=[1e308] * 3,
        **with_spec(p=2, n=3, weights=[1, 1, 1])), encoding="utf-8")
    assert main(["isometry-test", "--config", str(huge)]) == 0
    assert json.loads(capsys.readouterr().out)["scalar_multiple_of_isometry"] is True

    assert main(["check-ortho", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    # the per-row generators are keyed on non-negative seeds only
    assert main(["check-ortho", "--config", str(good), "--seed", "-5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bjlab: config error: seed: ") and "Traceback" not in err


def test_cli_write_errors_exit_two(tmp_path, capsys):
    # a CSV path that cannot be opened for writing is an unexplained failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text("check-ortho"), encoding="utf-8")
    for out, error in [(tmp_path, "IsADirectoryError"),
                       (tmp_path / "missing" / "x.csv", "FileNotFoundError")]:
        assert main(["check-ortho", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"bjlab: error: {error}: ")
        assert str(out) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("factors,code,outcome", [
    ([2, 2, 2], 0, "pass"),  # a scalar multiple of the identity
    ([1, 2, 1], 2, "fail"),
    # the probes divide the factors by their max, so a multiple of the
    # identity passes at any scale: images near 1e200, whose q = 2 norms
    # would overflow, and near 1e-160, whose squares would be subnormal,
    # are never formed
    ([1e200] * 3, 0, "pass"),
    ([1e-160] * 3, 0, "pass"),
])
def test_cli_isometry_row_outcome_is_the_verdict(tmp_path, capsys, factors, code, outcome):
    cfg = tmp_path / "iso.json"
    cfg.write_text(config_text("isometry-test", factors=factors,
                               **with_spec(p=2, n=3, weights=[1, 1, 1])), encoding="utf-8")
    out = tmp_path / "iso.csv"
    assert main(["isometry-test", "--config", str(cfg), "--out", str(out)]) == code
    summary = json.loads(capsys.readouterr().out)
    assert summary[outcome] == 1 and summary["pass"] + summary["fail"] == 1
    verdict = out.read_text(encoding="utf-8").splitlines()[1].split(",")[0]
    assert verdict == ("true" if outcome == "pass" else "false")
    assert summary["scalar_multiple_of_isometry"] is (outcome == "pass")


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
    monkeypatch.setattr(harness, "_exact_checks",
                        lambda xs, *a: (np.zeros(len(xs), dtype=bool), np.full(len(xs), -0.5),
                                        np.zeros(len(xs), dtype=bool), np.zeros(len(xs))))
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
    with pytest.raises(ConfigError) as err:
        parse_config(config_text("check-ortho", seed=-5))
    assert str(err.value) == "seed: must be a non-negative 64-bit integer, got -5"
    assert ExperimentConfig(mode="check-ortho", spec=spec, trials=1, seed=0).seed == 0
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(mode="explore", spec=spec, trials=1, seed=1)
    # a config's JSON shapes, a spec object and a partition list, are
    # converted as parse_config converts them, their failures config errors
    data = {"mode": "preserver-sweep", "trials": 3, "seed": 1, "epsilons": [0.5],
            "spec": {"p": 3, "q": 2, "n": 6, "d": 3, "weights": [1] * 6},
            "partition": [0, 1, 2]}
    cfg = ExperimentConfig(**data)
    assert cfg == parse_config(json.dumps(data))
    assert cfg.spec == SpaceSpec.sequence(3, 2, 6, 3)
    assert cfg.partition == AtomPartition((0, 1, 2), 6)
    assert ExperimentConfig(**{**data, "spec": cfg.spec, "partition": (0, 1, 2)}) == cfg
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(mode="check-ortho", spec=3, trials=1, seed=1)
    assert str(err.value) == "spec: must be an object {p, q, n, d, weights}"
    with pytest.raises(ConfigError, match="^partition: "):
        ExperimentConfig(**{**data, "partition": [7]})


def test_rowcost_splits_a_small_sweep_by_stage(tmp_path, capsys):
    # scripts/rowcost.py measures runs in this process and leaves no wrapper
    path = Path(__file__).resolve().parents[1] / "scripts" / "rowcost.py"
    spec = importlib.util.spec_from_file_location("rowcost", path)
    rowcost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rowcost)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(config_text("preserver-sweep", epsilons=[0.1, 0.5], trials=2),
                   encoding="utf-8")
    def wrapped():
        return (harness._draw_pairs, harness.RunReport.csv_text, harness._write_csv,
                harness._norm_rows)

    before = wrapped()
    assert rowcost.main([str(cfg), "--rows", "6"]) == 0
    assert wrapped() == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{cfg}: 8 rows in 2 runs"
    stages = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert set(stages) >= {"_draw_pairs", "_certified_probes", "csv_text", "rest", "total"}
    assert stages["_draw_pairs"][3] == stages["csv_text"][3] == "2"  # one stack per run
    assert stages["_golden_sections"][4] == "0"  # rows it minimized: every row certifies
    assert stages["_write_csv"][3] == "0"  # without --out nothing is written
    # the norm kernel, counted outside the stages: the draw's call, the two
    # routes' and one for all 12 probes, which this 4-row stack batches
    assert "_norm_rows calls/run: 4.0" in lines
    # this thread's workspace, which the warm-ups grew to the runs' stack size
    workspace = vars(blockspace._WORKSPACE)
    assert (f"workspace: {len(workspace)} buffers, "
            f"{sum(buf.nbytes for buf in workspace.values()) / 1024:.1f} KiB, "
            "0 grown by the measured runs") in lines
    # the process's peak memory, beside the faults the workspace saves
    (rss,) = [re.fullmatch(r"max RSS: (\d+\.\d) MiB", line) for line in lines[2:]
              if line.startswith("max RSS")]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert float(rss.group(1)) == pytest.approx(peak, abs=0.05)
    # sip rows on this space often reach golden section (819 of the 1,200
    # pinned rows): here 7 of 8, in one call
    space = {"p": 2.5, "q": 1.5, "n": 4, "d": 2, "weights": [1, 0.3, 1.5, 2]}
    cfg.write_text(config_text("sip", spec=space, epsilons=[0, 0.1], trials=4), encoding="utf-8")
    assert rowcost.main([str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{cfg}: 8 rows in 1 runs"
    stages = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert stages["_golden_sections"][3:] == ["1", "7"]
    # with --out each run writes its CSV through harness.run, over the last
    out = tmp_path / "rows.csv"
    assert rowcost.main([str(cfg), "--rows", "16", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{cfg}: 16 rows in 2 runs"
    stages = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert stages["_write_csv"][3] == stages["csv_text"][3] == "2"  # one per run
    last = parse_config(cfg.read_text(encoding="utf-8"))
    assert out.read_text(encoding="utf-8") == \
        run_quiet(dataclasses.replace(last, seed=last.seed + 1)).csv_text()
    assert wrapped() == before
