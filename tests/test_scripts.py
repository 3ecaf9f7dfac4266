import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,args", [
    ("run_theorem_sweeps", ["--trials", "2", "--outdir", "{tmp}"]),
    ("run_axiom_grid", ["--samples", "5"]),
])
def test_script_main_exits_zero(name, args, tmp_path, monkeypatch, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args]
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert load_script(name).main() == 0
    assert capsys.readouterr().out
