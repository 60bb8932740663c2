"""Smoke tests for the example scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_synth_experiment_end_to_end(capsys):
    script = load_script("run_synth_experiment")
    code = script.main(["--n", "10,20", "--nd", "3", "--rounds", "1", "--eps-abs", "1e9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nsBB: f_lower=" in out and "(gap_abs)" in out
