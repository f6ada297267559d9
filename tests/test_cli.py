import dataclasses
import functools
import importlib
import json
import math
import os
import pkgutil
import re
from pathlib import Path

import pytest

import fbmld
from fbmld import cli


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {"command": "sample", "output_dir": str(tmp_path / "out"),
           "sampler": "volterra", "hurst": 0.7, "n_steps": 32,
           "d": 1, "n_paths": 4, "seed": 11}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_artifacts(out_dir):
    """Artifact bytes, with the manifest's volatile timing fields dropped."""
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        data = p.read_bytes()
        if p.name == "manifest.json":
            m = json.loads(data)
            m.pop("wall_time_s", None)
            m.pop("created_unix", None)
            data = json.dumps(m, sort_keys=True).encode()
        out[p.name] = data
    return out


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_missing_keys_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"command": "sample"}))
    assert cli.run(str(path)) == cli.EXIT_SCHEMA


def test_unknown_keys_exit_2(tmp_path):
    path, _ = write_config(tmp_path, extra_field=1)
    assert cli.run(str(path)) == cli.EXIT_SCHEMA
    path, _ = write_config(tmp_path, tolerances={"bogus": 1})
    assert cli.run(str(path)) == cli.EXIT_SCHEMA


def test_bad_command_and_hurst_exit_2(tmp_path):
    path, _ = write_config(tmp_path, command="simulate")
    assert cli.run(str(path)) == cli.EXIT_SCHEMA
    path, _ = write_config(tmp_path, command="rate", hurst=0.4)
    assert cli.run(str(path)) == cli.EXIT_SCHEMA
    path, _ = write_config(tmp_path, hurst=1.2)
    assert cli.run(str(path)) == cli.EXIT_SCHEMA


CONTROL_COMMANDS = {
    "rate": {"event": {"kind": "terminal_exceedance", "a": 1.0}},
    "ldp-scaling": {"event": {"kind": "terminal_exceedance", "a": 1.0},
                    "eps_list": [0.5], "n_samples": 1000},
    "laplace-check": {"n_samples": 1000},
}


@pytest.mark.parametrize("n_ctrl", [0, -8, 65])
@pytest.mark.parametrize("command", sorted(CONTROL_COMMANDS))
def test_n_ctrl_out_of_range_exit_2(tmp_path, capsys, command, n_ctrl):
    path, _ = write_config(tmp_path, command=command, hurst=0.6, n_steps=64,
                           n_ctrl=n_ctrl, **CONTROL_COMMANDS[command])
    assert cli.run(str(path)) == cli.EXIT_SCHEMA
    assert "n_ctrl must lie in 1..64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"command": "solve", "coefficient_params": {"scael": 3.0}}, "scael"),
    ({"command": "laplace-check", "n_samples": 1000, "n_ctrl": 8,
      "functional": {"name": "terminal_shortfall", "targte": 2.0}}, "targte"),
])
def test_misspelled_parameters_exit_2(tmp_path, capsys, overrides, key):
    path, _ = write_config(tmp_path, hurst=0.6, n_steps=64,
                           coefficient="constant", **overrides)
    assert cli.run(str(path)) == cli.EXIT_SCHEMA
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, fragment", [
    ({"command": "laplace-check", "functional": {"target": 2.0}}, "'name'"),
    ({"command": "laplace-check", "functional": ["x"]}, "functional"),
    ({"command": "rate", "coefficient": "rotation", "m": 2, "d": 2,
      "x0": [0.0, 0.0],
      "event": {"kind": "terminal_target", "y": [1.0, 0.5, 0.2], "r": 0.1}},
     "event y"),
    ({"command": "ldp-scaling", "eps_list": [0.5, -0.1],
      "event": {"kind": "terminal_exceedance", "a": 1.0}}, "eps_list"),
    ({"command": "sample", "n_paths": 0}, "n_paths"),
    ({"command": "rate", "event": {"kind": "terminal_exceedance", "a": 0.5,
                                   "r": 3.0}}, "['r']"),
    ({"command": "rate", "event": {"kind": "terminal_target", "a": 0.5,
                                   "y": 1.0, "r": 0.1}}, "['a']"),
    ({"command": "rate", "event": {"kind": "sup_exceedance", "a": 0.5,
                                   "y": 1.0}}, "['y']"),
    ({"command": "ldp-scaling", "n_samples": -5, "eps_list": [0.5],
      "event": {"kind": "terminal_exceedance", "a": 1.0}}, "n_samples"),
    ({"command": "ldp-scaling", "n_samples": 0, "eps_list": [0.5],
      "event": {"kind": "terminal_exceedance", "a": 1.0}}, "n_samples"),
    ({"command": "laplace-check", "eps_list": [2.0]}, "eps"),
    ({"command": "laplace-check", "eps_list": [0.0]}, "eps"),
    ({"command": "laplace-check", "n_samples": 500}, "n_samples"),
    ({"command": "rate", "coefficient_params": {"scael": 3.0},
      "event": {"kind": "terminal_exceedance", "a": 1.0}}, "scael"),
    ({"command": "laplace-check", "functional": {"name": "entropy"}},
     "entropy"),
    ({"command": "solve", "coefficient": "tanh", "m": 2, "d": 1,
      "x0": [0.0, 0.0]}, "m == d"),
    ({"command": "solve", "coefficient": "rotation", "m": 2, "d": 2,
      "x0": [0.0]}, "x0"),
    ({"command": "sample", "d": 5}, "d must lie in 1..4"),
    ({"command": "solve", "coefficient": "tanh", "alpha": 0.9}, "alpha=0.9"),
    ({"command": "solve", "coefficient": "tanh", "delta": -1.0}, "delta=-1.0"),
    ({"n_steps": "64"}, "n_steps must be int"),
    ({"hurst": None}, "hurst must be float"),
    ({"n_paths": 2.5}, "n_paths must be int"),
    ({"d": 1.5}, "d must be int"),
    ({"seed": "x"}, "seed must be int"),
    ({"n_paths": True}, "n_paths must be int"),
    ({"command": "solve", "x0": ["a"]}, "x0 must be list[float]"),
    ({"command": "ldp-scaling", "eps_list": "0.1",
      "event": {"kind": "terminal_exceedance", "a": 1.0}},
     "eps_list must be list[float]"),
    ({"command": "ldp-scaling", "eps_list": [0.5], "n_samples": 2000.5,
      "event": {"kind": "terminal_exceedance", "a": 1.0}},
     "n_samples must be int"),
    ({"n_workers": 1}, "unknown config keys: ['n_workers']"),
    ({"command": "ldp-scaling", "eps_list": [0.1, 0.5],
      "event": {"kind": "terminal_exceedance", "a": 1.0}},
     "strictly decreasing eps_list"),
    ({"sampler": "cholesky", "n_steps": 4097}, "n_steps <= 4096"),
    ({"command": "rate", "event": {"kind": "terminal_exceedance", "a": "x"}},
     "event['a'] must be float"),
    ({"command": "rate",
      "event": {"kind": "terminal_exceedance", "a": [1.0, 2.0]}},
     "event['a'] must be float"),
    ({"command": "rate", "event": {"kind": "terminal_exceedance", "a": True}},
     "event['a'] must be float"),
    ({"command": "rate", "coefficient": "rotation", "m": 2, "d": 2,
      "x0": [0.0, 0.0],
      "event": {"kind": "terminal_target", "y": ["a", "b"], "r": 0.1}},
     "event['y'] must be float | list[float]"),
    ({"command": "rate",
      "event": {"kind": "terminal_target", "y": None, "r": 0.1}},
     "event['y'] must be float | list[float]"),
    ({"command": "rate", "event": {"kind": 1}}, "event['kind'] must be str"),
    ({"command": "solve", "coefficient_params": {"scale": "x"}},
     "coefficient_params['scale'] must be float"),
    ({"command": "solve", "coefficient_params": {"scale": None}},
     "coefficient_params['scale'] must be float"),
    ({"command": "solve", "coefficient": "rotation", "m": 2, "d": 2,
      "x0": [0.0, 0.0], "coefficient_params": {"omega": True}},
     "coefficient_params['omega'] must be float"),
    ({"command": "laplace-check",
      "functional": {"name": "terminal_shortfall", "cap": "x"}},
     "functional['cap'] must be float"),
    ({"command": "laplace-check",
      "functional": {"name": "terminal_shortfall", "target": [1.0]}},
     "functional['target'] must be float"),
    ({"command": "laplace-check", "functional": {"name": 3}},
     "functional['name'] must be str"),
    ({"eps": 0.25}, "unknown config keys: ['eps']"),
    ({"command": "laplace-check"}, "laplace-check needs an eps_list"),
    ({"command": "solve", "x0": [math.nan]}, "x0 must be list[float]"),
    ({"command": "solve", "coefficient_params": {"scale": math.nan}},
     "coefficient_params['scale'] must be float"),
    ({"command": "rate",
      "event": {"kind": "terminal_exceedance", "a": math.nan}},
     "event['a'] must be float"),
    ({"command": "rate", "x0": [math.inf],
      "event": {"kind": "terminal_exceedance", "a": 1.0}},
     "x0 must be list[float]"),
    ({"command": "rate", "coefficient": "rotation", "m": 2, "d": 2,
      "x0": [0.0, 0.0],
      "event": {"kind": "terminal_target", "y": [1.0, math.nan], "r": 0.1}},
     "event['y'] must be float | list[float]"),
    ({"command": "ldp-scaling", "eps_list": [math.nan],
      "event": {"kind": "terminal_exceedance", "a": 1.0}},
     "eps_list must be list[float]"),
    ({"command": "laplace-check", "eps_list": [0.5],
      "functional": {"name": "terminal_shortfall", "cap": math.inf}},
     "functional['cap'] must be float"),
    ({"command": "solve", "x0": [10 ** 400]}, "x0 must be list[float]"),
    ({"command": "solve", "m": 0, "x0": []}, "m must be >= 1"),
    ({"command": "rate", "m": 0, "x0": [],
      "event": {"kind": "terminal_exceedance", "a": 1.0}}, "m must be >= 1"),
    ({"seed": 2 ** 70}, "seed must lie in 0..2^64-1"),
    ({"seed": 2 ** 64}, "seed must lie in 0..2^64-1"),
    ({"seed": -1}, "seed must lie in 0..2^64-1"),
    ({"command": "laplace-check", "eps_list": [0.5],
      "functional": {"name": "terminal_shortfall", "cap": -1.0}},
     "cap must be >= 0"),
    ({"command": "laplace-check", "eps_list": [0.5],
      "functional": {"name": "sup_norm_capped", "cap": -0.5}},
     "cap must be >= 0"),
    ({"command": "laplace-check", "eps_list": [0.5],
      "functional": {"name": "terminal_exceedance", "a": 1.0}},
     "has role 'event', not 'functional'"),
    ({"command": "rate", "event": {"kind": "terminal_shortfall"}},
     "has role 'functional', not 'event'"),
], ids=["functional_without_name", "functional_not_an_object",
        "y_wrong_length", "negative_eps", "no_paths", "unread_r",
        "unread_a", "unread_y", "negative_samples", "zero_samples",
        "laplace_eps_above_one", "laplace_eps_zero", "laplace_few_samples",
        "misspelled_coefficient_key", "unknown_functional", "tanh_m_not_d",
        "x0_wrong_length", "d_above_max", "solve_alpha_outside",
        "solve_delta_outside", "n_steps_string", "hurst_null",
        "n_paths_fraction", "d_fraction", "seed_string", "n_paths_bool",
        "x0_strings", "eps_list_string", "n_samples_fraction",
        "n_workers_unknown", "eps_list_increasing", "cholesky_over_budget",
        "event_a_string", "event_a_list", "event_a_bool", "event_y_strings",
        "event_y_null", "event_kind_number", "coefficient_scale_string",
        "coefficient_scale_null", "rotation_omega_bool",
        "functional_cap_string", "shortfall_target_list",
        "functional_name_number", "eps_unknown", "laplace_no_eps_list",
        "x0_nan", "coefficient_scale_nan", "event_a_nan", "x0_infinity",
        "event_y_nan_entry", "eps_list_nan", "functional_cap_infinity",
        "x0_huge_int", "solve_m_zero", "rate_m_zero", "seed_2_to_70",
        "seed_2_to_64", "seed_negative", "functional_cap_negative_shortfall",
        "functional_cap_negative_sup_norm", "event_kind_as_functional",
        "functional_name_as_event"])
def test_config_mistakes_exit_2_before_any_output(tmp_path, capsys,
                                                  overrides, fragment):
    defaults = {"hurst": 0.6, "n_steps": 64, "n_ctrl": 8, "n_samples": 1000}
    path, _ = write_config(tmp_path, **{**defaults, **overrides})
    assert cli.run(str(path)) == cli.EXIT_SCHEMA
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unreadable_config_exit_2(tmp_path):
    assert cli.run(str(tmp_path / "missing.json")) == cli.EXIT_SCHEMA
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.run(str(bad)) == cli.EXIT_SCHEMA


def test_content_errors_from_numeric_layer_exit_2(tmp_path):
    # x0 dimension disagrees with the rotation family's m = 2
    path, _ = write_config(tmp_path, command="solve", hurst=0.75,
                           n_steps=64, coefficient="rotation",
                           m=2, d=2, x0=[0.0])
    assert cli.run(str(path)) == cli.EXIT_SCHEMA


# ---------------------------------------------------------------------------
# workflows
# ---------------------------------------------------------------------------

def test_sample_workflow_artifacts(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.run(str(path)) == cli.EXIT_OK
    out = tmp_path / "out"
    assert (out / "paths.csv").exists()
    assert (out / "increments.npz").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 11
    assert manifest["artifacts"] == ["increments.npz", "paths.csv"]
    assert manifest["config_hash"] == \
        cli.ExperimentConfig.from_dict(cfg).config_hash()


def test_solve_workflow(tmp_path):
    path, _ = write_config(tmp_path, command="solve", hurst=0.75,
                           n_steps=128, coefficient="tanh", x0=[0.2])
    assert cli.run(str(path)) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "norm_report.json").read_text())
    assert report["sup_norm"] > 0
    assert 0.25 < report["alpha"] < 0.5


def test_solve_workflow_multidimensional(tmp_path):
    path, _ = write_config(tmp_path, command="solve", hurst=0.75,
                           n_steps=64, coefficient="rotation",
                           m=2, d=2, x0=[1.0, 0.0])
    assert cli.run(str(path)) == cli.EXIT_OK
    lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 66


def test_rate_workflow_and_infeasible_exit(tmp_path):
    path, _ = write_config(
        tmp_path, command="rate", hurst=0.6, n_steps=128, n_ctrl=16,
        coefficient="constant", x0=[0.0],
        event={"kind": "terminal_exceedance", "a": 1.0})
    assert cli.run(str(path)) == cli.EXIT_OK
    result = json.loads((tmp_path / "out" / "rate_result.json").read_text())
    assert result["feasible"] and abs(result["value"] - 0.5) < 0.03
    assert result["diagnostics"]["n_steps"] == 128

    path2, _ = write_config(
        tmp_path, name="bad_rate.json", command="rate", hurst=0.6,
        n_steps=64, n_ctrl=8, coefficient="constant", x0=[0.0],
        output_dir=str(tmp_path / "out2"),
        event={"kind": "terminal_target", "y": 1e6, "r": 1.0})
    assert cli.run(str(path2)) == cli.EXIT_INFEASIBLE
    assert (tmp_path / "out2" / "error.json").exists()
    result = json.loads((tmp_path / "out2" / "rate_result.json").read_text())
    assert result["value"] == "inf" and not result["feasible"]


def test_rate_workflow_grid_not_multiple_of_512(tmp_path):
    # 960 steps is no multiple of 512: the search still runs on all of
    # n_steps, not on a coarser grid below it
    path, _ = write_config(
        tmp_path, command="rate", hurst=0.6, n_steps=960, n_ctrl=60,
        coefficient="constant", x0=[0.0],
        event={"kind": "terminal_exceedance", "a": 1.0})
    assert cli.run(str(path)) == cli.EXIT_OK
    result = json.loads((tmp_path / "out" / "rate_result.json").read_text())
    assert result["diagnostics"]["n_steps"] == 960
    assert result["feasible"] and abs(result["value"] - 0.5) < 0.03


def test_ldp_scaling_workflow(tmp_path):
    path, _ = write_config(
        tmp_path, command="ldp-scaling", hurst=0.6, n_steps=128, n_ctrl=16,
        coefficient="constant", x0=[0.0], n_samples=1000,
        eps_list=[0.5, 0.25],
        event={"kind": "terminal_exceedance", "a": 0.5})
    assert cli.run(str(path)) == cli.EXIT_OK
    rows = json.loads((tmp_path / "out" / "scaling.json").read_text())["rows"]
    assert [r["eps"] for r in rows] == [0.5, 0.25]
    lines = (tmp_path / "out" / "scaling.csv").read_text().splitlines()
    assert lines[0].startswith("eps,p_hat")


def test_laplace_workflow(tmp_path):
    path, _ = write_config(
        tmp_path, command="laplace-check", hurst=0.6, n_steps=64,
        n_ctrl=16, coefficient="constant", x0=[0.0], n_samples=1000,
        eps_list=[0.5], functional={"name": "terminal_shortfall"})
    assert cli.run(str(path)) == cli.EXIT_OK
    rows = json.loads((tmp_path / "out" / "laplace.json").read_text())["rows"]
    assert rows[0]["h_inf"] <= rows[0]["value"] <= rows[0]["h_sup"]


def test_validate_ops_workflow(tmp_path):
    path, _ = write_config(tmp_path, command="validate-ops", hurst=0.75)
    assert cli.run(str(path)) == cli.EXIT_OK
    lines = (tmp_path / "out" / "validate.csv").read_text().splitlines()
    assert lines[0] == "check,status,detail"
    assert all(",pass," in line or line.endswith(",pass")
               or ",pass" in line for line in lines[1:])


# ---------------------------------------------------------------------------
# determinism and reproduction
# ---------------------------------------------------------------------------

def test_same_seed_byte_identical(tmp_path):
    path1, _ = write_config(tmp_path, output_dir=str(tmp_path / "a"))
    path2, _ = write_config(tmp_path, name="config2.json",
                            output_dir=str(tmp_path / "b"))
    assert cli.run(str(path1)) == cli.EXIT_OK
    assert cli.run(str(path2)) == cli.EXIT_OK
    arts_a = read_artifacts(tmp_path / "a")
    arts_b = read_artifacts(tmp_path / "b")
    assert arts_a.keys() == arts_b.keys()
    for name in arts_a:
        if name == "manifest.json":
            continue       # differs in output_dir echo only
        assert arts_a[name] == arts_b[name], name


def test_manifest_roundtrip_reproduces(tmp_path):
    path, _ = write_config(tmp_path, output_dir=str(tmp_path / "a"))
    assert cli.run(str(path)) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    cfg = dict(manifest["config"])
    cfg["output_dir"] = str(tmp_path / "b")
    redo = tmp_path / "redo.json"
    redo.write_text(json.dumps(cfg))
    assert cli.run(str(redo)) == cli.EXIT_OK
    a = read_artifacts(tmp_path / "a")
    b = read_artifacts(tmp_path / "b")
    for name in a:
        if name != "manifest.json":
            assert a[name] == b[name]


def test_seed_override_changes_results_and_is_recorded(tmp_path):
    path1, _ = write_config(tmp_path, output_dir=str(tmp_path / "a"))
    path2, _ = write_config(tmp_path, name="config2.json",
                            output_dir=str(tmp_path / "b"))
    assert cli.run(str(path1)) == cli.EXIT_OK
    assert cli.run(str(path2), seed_override=999) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 999
    assert read_artifacts(tmp_path / "a")["paths.csv"] != \
        read_artifacts(tmp_path / "b")["paths.csv"]


@pytest.mark.parametrize("seed", [2 ** 64, -1])
def test_seed_override_out_of_range_exits_2(tmp_path, capsys, seed):
    # seeds used to wrap modulo 2^64: 2^70 wrote the same paths as 0
    path, _ = write_config(tmp_path)
    assert cli.run(str(path), seed_override=seed) == cli.EXIT_SCHEMA
    assert "seed must lie in 0..2^64-1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seed_runs(tmp_path):
    path, _ = write_config(tmp_path, seed=2 ** 64 - 1)
    assert cli.run(str(path)) == cli.EXIT_OK


def test_writes_stay_inside_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path, _ = write_config(tmp_path, output_dir="out_rel")
    before = set(os.listdir(tmp_path))
    assert cli.run(str(path)) == cli.EXIT_OK
    after = set(os.listdir(tmp_path))
    assert after - before == {"out_rel"}


def test_output_root_env(tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("FBMLD_OUTPUT_ROOT", str(root))
    path, _ = write_config(tmp_path, output_dir="exp1")
    assert cli.run(str(path)) == cli.EXIT_OK
    assert (root / "exp1" / "paths.csv").exists()


def test_main_entry_point(tmp_path):
    path, _ = write_config(tmp_path)
    assert cli.main([str(path), "--seed", "5"]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_readme_config_table_has_one_row_per_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | meaning | used by |\n| --- | --- | --- |\n")[1]
    keys = []
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        keys.append(line.split("|")[1].strip().strip("`"))
    fields = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert sorted(keys) == sorted(fields)


def test_readme_names_only_module_attributes_that_exist():
    # every backticked `module.attr...` of an fbmld module resolves
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    modules = "|".join(info.name
                       for info in pkgutil.iter_modules(fbmld.__path__))
    names = re.findall(rf"`(?:fbmld\.)?({modules})\.(\w+(?:\.\w+)*)", readme)
    assert ("ldp", "_CHUNK") in names and ("fbm", "_synthesise") in names
    missing = []
    for module, attr in names:
        try:
            functools.reduce(getattr, attr.split("."),
                             importlib.import_module(f"fbmld.{module}"))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing


def test_every_module_all_name_resolves():
    # nothing runs `import *`, so a stale __all__ entry would go unnoticed
    modules = [fbmld] + [importlib.import_module(f"fbmld.{info.name}")
                         for info in pkgutil.iter_modules(fbmld.__path__)]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) == 6                    # the package and five modules
    stale = [f"{m.__name__}.{name}" for m in exported for name in m.__all__
             if not hasattr(m, name)]
    assert not stale


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_result_json_is_strict(tmp_path):
    # with one sample the eps 0.5 row has no hit: its gap, -eps log p and
    # largest weight share are not finite, and the file spells them as
    # strings, as rate_result.json spells an infeasible value
    path, _ = write_config(
        tmp_path, command="ldp-scaling", hurst=0.6, n_steps=64, n_ctrl=8,
        coefficient="constant", x0=[0.0], n_samples=1, eps_list=[0.5, 0.01],
        event={"kind": "terminal_exceedance", "a": 3.0})
    assert cli.run(str(path)) == cli.EXIT_OK
    for name in ("scaling.json", "manifest.json"):
        with open(tmp_path / "out" / name) as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    with open(tmp_path / "out" / "scaling.json") as fh:
        rows = json.load(fh, parse_constant=_reject_constant)["rows"]
    missed = rows[0]
    assert missed["p_hat"] == 0.0 and rows[1]["p_hat"] > 0.0
    assert (missed["neg_eps_log_p"], missed["gap"]) == ("inf", "inf")
    assert missed["max_weight_share"] == "nan"
    assert payload["artifacts"] == ["scaling.csv", "scaling.json"]
