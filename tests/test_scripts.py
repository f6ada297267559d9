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


def test_sampler_demo_runs(tmp_path, capsys):
    demo = _load("run_sampler_demo")
    assert demo.main(["--outdir", str(tmp_path), "--n-steps", "64",
                      "--n-paths", "200"]) == 0
    assert "vs R_H = " in capsys.readouterr().out


def test_validate_ops_runs(tmp_path, capsys):
    validate = _load("run_validate_ops")
    assert validate.main(["--outdir", str(tmp_path)]) == 0
    assert "gauss_2f1 ln2,pass" in capsys.readouterr().out
