import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_additive_study_runs(tmp_path, capsys):
    study = _load("run_additive_study")
    assert study.main(["--outdir", str(tmp_path), "--n-samples", "1000"]) == 0
    out = capsys.readouterr().out
    assert "std_err      ess" in out
    for name in ("rate", "scaling", "laplace"):
        assert (tmp_path / name / "manifest.json").is_file(), name
