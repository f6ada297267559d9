"""Experiment runner: one JSON config in, reproducible artifacts out.

Experiments are data, not shell history: the only command-line inputs are
the config path and an optional ``--seed`` override.  Every run writes its
results (CSV with 17 significant digits, JSON with sorted keys) plus a
manifest echoing the config, its hash, the seed, and the package version;
re-running a manifest's config reproduces the result files byte for byte
(the manifest's own timing fields are the only thing that varies).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import types
import typing
from pathlib import Path

import numpy as np

from . import __version__, cmspace, fbm, fracops, ldp, rng, sde
from .errors import DomainError, InfeasibleError, NumericError
from .gridfn import GridFn, write_csv

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


class SchemaError(DomainError):
    """Config file fails validation."""


@dataclasses.dataclass
class ExperimentConfig:
    """Validated experiment description; see docs/config schema in README."""

    command: str
    output_dir: str
    seed: int = 0
    hurst: float = 0.75
    n_steps: int = 256
    d: int = 1
    m: int = 1
    sampler: str = "volterra"
    n_paths: int = 100
    coefficient: str = "constant"
    coefficient_params: dict = dataclasses.field(default_factory=dict)
    x0: list[float] = dataclasses.field(default_factory=lambda: [0.0])
    event: dict = dataclasses.field(default_factory=dict)
    functional: dict = dataclasses.field(default_factory=dict)
    eps_list: list[float] = dataclasses.field(default_factory=list)
    n_samples: int = 10000
    n_ctrl: int = 32
    alpha: float | None = None
    delta: float | None = None

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise SchemaError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(raw) - known
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        missing = {"command", "output_dir"} - set(raw)
        if missing:
            raise SchemaError(f"missing required keys: {sorted(missing)}")
        hints = typing.get_type_hints(ExperimentConfig)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in raw and not _fits(raw[f.name], hints[f.name]):
                raise SchemaError(
                    f"{f.name} must be {f.type}, got {raw[f.name]!r}")
        for group in ("coefficient_params", "event", "functional"):
            for key, value in raw.get(group, {}).items():
                hint = _NESTED_HINTS.get((group, key), float)
                if not _fits(value, hint):
                    raise SchemaError(f"{group}[{key!r}] must be "
                                      f"{getattr(hint, '__name__', hint)}, "
                                      f"got {value!r}")
        cfg = ExperimentConfig(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.command not in _WORKFLOWS:
            raise SchemaError(f"command must be one of {tuple(_WORKFLOWS)}")
        if not 0.0 < self.hurst < 1.0:
            raise SchemaError("hurst must lie in (0, 1)")
        if self.command == "solve" and not 0.5 < self.hurst < 1.0:
            raise SchemaError("solve requires hurst in (1/2, 1)")
        if self.command in ("rate", "ldp-scaling", "laplace-check"):
            _rate_cfg(self)         # checks H, n_ctrl and n_ctrl | n_steps
        if not 0 <= self.seed <= rng._MASK:
            raise SchemaError("seed must lie in 0..2^64-1")
        if self.n_steps < 1:
            raise SchemaError("n_steps must be positive")
        if self.sampler not in ("volterra", "cholesky"):
            raise SchemaError("sampler must be 'volterra' or 'cholesky'")
        if self.command == "sample" and self.sampler == "cholesky" \
                and self.n_steps > fbm.MAX_CHOLESKY_STEPS:
            raise SchemaError("the cholesky sampler needs n_steps <= "
                              f"{fbm.MAX_CHOLESKY_STEPS}")
        if self.n_paths < 1:
            raise SchemaError("n_paths must be >= 1")
        if not 1 <= self.d <= fbm.MAX_DIM:
            raise SchemaError(f"d must lie in 1..{fbm.MAX_DIM}")
        if self.m < 1:
            raise SchemaError("m must be >= 1")
        if self.command == "ldp-scaling":
            eps = self.eps_list
            if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
                raise SchemaError(
                    "ldp-scaling needs a strictly decreasing eps_list")
            if eps[-1] <= 0.0:
                raise SchemaError("every eps in eps_list must be > 0")
        if self.command in ("rate", "ldp-scaling") and not self.event:
            raise SchemaError(f"{self.command} needs an event spec")
        if self.event:
            _registry_entry(self, "event")
        if self.functional or self.command == "laplace-check":
            _registry_entry(self, "functional")
        if self.command in ("solve", "rate", "ldp-scaling", "laplace-check"):
            coeffs = _coeffs_from_config(self)
            if np.shape(self.x0) != (self.m,):
                raise SchemaError(f"x0 must hold m={self.m} entries")
            if self.command == "solve":
                sde._check_admissible(coeffs, self.hurst,
                                      *_solve_exponents(self, coeffs))
        if self.command == "ldp-scaling" and self.n_samples < 1:
            raise SchemaError("ldp-scaling needs n_samples >= 1")
        if self.command == "laplace-check":
            if self.n_samples < ldp.LAPLACE_MIN_SAMPLES:
                raise SchemaError("laplace-check needs n_samples >= "
                                  f"{ldp.LAPLACE_MIN_SAMPLES}")
            if not self.eps_list or not all(0.0 < e <= 1.0
                                            for e in self.eps_list):
                raise SchemaError("laplace-check needs an eps_list in (0, 1], "
                                  f"got {self.eps_list}")

    def resolved_output_dir(self) -> Path:
        out = Path(self.output_dir)
        root = os.environ.get("FBMLD_OUTPUT_ROOT")
        if root and not out.is_absolute():
            out = Path(root) / out
        return out

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# the key that names a config group's ldp registry entry
_NAME_KEYS = {"event": "kind", "functional": "name"}
# nested config values are numbers unless named here
_NESTED_HINTS = {("event", "kind"): str, ("event", "y"): float | list[float],
                 ("functional", "name"): str}


def _fits(value, hint) -> bool:
    """True when a JSON value has the type a field annotation names.

    A bool is no number, a number for a float must be finite (an int
    counts), and a list annotation checks every entry.
    """
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(
            _fits(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return False
    if hint is float:       # a huge int compares exactly; NaN compares False
        return isinstance(value, (int, float)) \
            and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _json_safe(value):
    """``value`` with every non-finite float spelled "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON (RFC 8259): no bare NaN or Infinity token."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")


def _write_table(out: Path, written: list[str], stem: str,
                 header: list[str], rows: list[dict], **extra) -> None:
    """Result rows as ``stem.csv`` (the ``header`` columns) and ``stem.json``
    (every key, plus ``extra``), each appended to ``written``."""
    with open(out / f"{stem}.csv", "w") as fh:
        write_csv(fh, [[r[k] for k in header] for r in rows], header)
    written.append(f"{stem}.csv")
    _write_json(out / f"{stem}.json", {**extra, "rows": rows})
    written.append(f"{stem}.json")


def _write_manifest(out: Path, cfg: ExperimentConfig, t0: float,
                    artifacts: list[str]) -> None:
    _write_json(out / "manifest.json", {
        "config": dataclasses.asdict(cfg),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "version": __version__,
        "artifacts": sorted(artifacts),
        "wall_time_s": time.time() - t0,
        "created_unix": time.time(),
    })


def _registry_entry(cfg: ExperimentConfig, group: str) -> ldp.StateFunctional:
    """The ``ldp`` registry entry that the ``event`` or ``functional`` group
    names, by its ``kind`` or ``name``; an empty functional group is
    ``terminal_shortfall``.  An entry of the other role exits 2."""
    key = _NAME_KEYS[group]
    params = dict(getattr(cfg, group)) or {key: "terminal_shortfall"}
    name = params.pop(key, None)
    if name is None:
        raise SchemaError(f"{group} needs a {key!r}")
    entry = ldp.get_functional(name, role=group, **params)
    if np.shape(entry.params.get("y", 0.0)) not in ((), (cfg.m,)):
        raise SchemaError(f"event y must be a scalar or hold m={cfg.m} entries")
    return entry


def _coeffs_from_config(cfg: ExperimentConfig) -> sde.CoefficientSet:
    try:
        return sde.get_coefficients(cfg.coefficient, m=cfg.m, d=cfg.d,
                                    **cfg.coefficient_params)
    except TypeError as exc:    # a parameter named m or d
        raise SchemaError(f"bad coefficient: {exc}") from exc


def _solve_exponents(cfg: ExperimentConfig,
                     coeffs: sde.CoefficientSet) -> tuple[float, float]:
    """(alpha, delta) of the solve norm report; unset ones take the midpoints
    of their admissible intervals."""
    lo, hi = coeffs.admissible_alpha(cfg.hurst)
    alpha = cfg.alpha if cfg.alpha is not None else 0.5 * (lo + hi)
    delta = cfg.delta if cfg.delta is not None else 0.5 * (alpha - (1.0 - cfg.hurst))
    return alpha, delta


def _rate_cfg(cfg: ExperimentConfig) -> ldp.RateConfig:
    return ldp.RateConfig(cfg.hurst, cfg.n_steps, cfg.n_ctrl, cfg.seed)


# ---------------------------------------------------------------------------
# workflows: each writes its files into ``out`` and appends each name to
# ``written`` once the file is written, so the manifest of a run that fails
# part way lists what the run left behind
# ---------------------------------------------------------------------------

def _run_sample(cfg: ExperimentConfig, out: Path, written: list[str]) -> None:
    sampler = fbm.sample_volterra if cfg.sampler == "volterra" \
        else fbm.sample_cholesky
    batch = sampler(cfg.n_steps, cfg.hurst, cfg.d, cfg.n_paths, cfg.seed)
    with open(out / "paths.csv", "w") as fh:
        fbm.export_paths_csv(batch, fh)
    written.append("paths.csv")
    fbm.export_increments(batch, str(out / "increments.npz"))
    written.append("increments.npz")


def _run_solve(cfg: ExperimentConfig, out: Path, written: list[str]) -> None:
    coeffs = _coeffs_from_config(cfg)
    batch = fbm.sample_volterra(cfg.n_steps, cfg.hurst, cfg.d, 1, cfg.seed)
    driver = batch.path(0)
    sol = sde.solve_young(cfg.x0, coeffs, driver)
    alpha, delta = _solve_exponents(cfg, coeffs)
    report = sde.norm_report(sol, alpha, delta, coeffs, hurst=cfg.hurst,
                             driver=driver)
    with open(out / "solution.csv", "w") as fh:
        write_csv(fh, np.column_stack([driver.times, sol.values]),
                  ["t"] + [f"x{i}" for i in range(coeffs.m)])
    written.append("solution.csv")
    _write_json(out / "norm_report.json", {
        "alpha": alpha, "delta": delta, "hurst": cfg.hurst,
        "sup_norm": report.solution.sup_norm,
        "holder_norm": report.solution.holder_norm,
        "holder_exponent": 1.0 - alpha,
        "w_alpha_norm": report.solution.w_alpha_norm,
        "driver_holder": report.driver_holder,
        "solver_config": {"n_steps": cfg.n_steps},
    })
    written.append("norm_report.json")


def _run_rate(cfg: ExperimentConfig, out: Path, written: list[str]) -> None:
    coeffs = _coeffs_from_config(cfg)
    event = _registry_entry(cfg, "event")
    result = ldp.rate_minimize(coeffs, cfg.x0, event, _rate_cfg(cfg))
    with open(out / "control.csv", "w") as fh:
        cmspace.export_control_csv(result.control, fh)
    written.append("control.csv")
    _write_json(out / "rate_result.json", {
        "value": result.value,
        "residual": result.residual,
        "feasible": result.feasible,
        "diagnostics": result.diagnostics,
        "event": {"kind": event.name, **event.params},
    })
    written.append("rate_result.json")
    if not result.feasible:
        raise InfeasibleError("rate problem infeasible at all starts")


def _run_ldp_scaling(cfg: ExperimentConfig, out: Path,
                     written: list[str]) -> None:
    coeffs = _coeffs_from_config(cfg)
    event = _registry_entry(cfg, "event")
    rows = ldp.scaling_table(coeffs, cfg.x0, event, cfg.eps_list,
                             cfg.n_samples, cfg.seed, cfg=_rate_cfg(cfg))
    _write_table(out, written, "scaling", ["eps", "p_hat", "std_err",
                                           "neg_eps_log_p", "rate_value",
                                           "gap"], rows)


def _run_laplace(cfg: ExperimentConfig, out: Path, written: list[str]) -> None:
    coeffs = _coeffs_from_config(cfg)
    h = _registry_entry(cfg, "functional")
    variational = ldp.laplace_variational(coeffs, cfg.x0, h, _rate_cfg(cfg))
    rows = []
    for i, eps in enumerate(cfg.eps_list):
        r = ldp.laplace_mc(coeffs, cfg.x0, h, eps, cfg.n_samples,
                           rng.mix64(cfg.seed, i), variational.control)
        rows.append({"eps": eps, "value": r.value, "std_err": r.std_err,
                     "variational": variational.value, "h_inf": h.inf_h,
                     "h_sup": h.sup_h, "n_hits": r.n_hits, "ess": r.ess,
                     "max_weight_share": r.max_weight_share})
    _write_table(out, written, "laplace", ["eps", "value", "std_err",
                                           "variational", "h_inf", "h_sup"],
                 rows, functional={"name": h.name, **h.params},
                 variational_starts=variational.diagnostics["starts"])


def _validate_ops_checks(cfg: ExperimentConfig):
    """Fast cross-module invariant suite; yields (name, passed, detail)."""
    one = GridFn.from_callable(lambda t: np.ones_like(t), 128)
    ramp = GridFn.from_callable(lambda t: t, 128)

    v = fracops.gauss_2f1(1.0, 1.0, 2.0, -1.0)
    yield ("gauss_2f1 ln2", abs(v - math.log(2)) < 1e-12, f"{v!r}")
    sym = fracops.gauss_2f1(0.3, -0.2, 1.1, 0.4) == fracops.gauss_2f1(
        -0.2, 0.3, 1.1, 0.4)
    yield ("gauss_2f1 symmetry", sym, "series symmetric in (a,b)")

    ih = fracops.frac_integral(one, 0.5, "left")
    ref = one.times ** 0.5 / math.gamma(1.5)
    err = float(np.abs(ih.values[:, 0] - ref).max())
    yield ("frac_integral closed form", err < 1e-12, f"err={err:.2e}")

    dv = fracops.weyl_derivative(one, 0.3, "left")
    ref = one.times[1:] ** -0.3 / math.gamma(0.7)
    err = float(np.abs(dv.values[1:, 0] - ref).max())
    yield ("weyl constant closed form", err < 1e-10, f"err={err:.2e}")

    y = fracops.young_rs(one, ramp)
    err = float(np.abs(y.values[:, 0] - ramp.values[:, 0]).max())
    yield ("young_rs telescoping", err == 0.0, f"err={err:.2e}")

    yf = fracops.young_frac(one, ramp, 0.3)
    yield ("young_frac constant integrand", abs(yf - 1.0) < 1e-3, f"{yf!r}")

    c = fbm.covariance(0.3, 0.7, 0.5)
    yield ("covariance H=1/2 is min", abs(c - 0.3) < 1e-15, f"{c!r}")
    q = fbm.covariance_quadrature(0.5, 1.0, cfg.hurst, 256)
    err = abs(q - fbm.covariance(0.5, 1.0, cfg.hurst))
    yield ("kernel covariance reconstruction", err < 1e-3, f"err={err:.2e}")

    b1 = fbm.sample_volterra(64, cfg.hurst, 1, 8, cfg.seed)
    b2 = fbm.sample_volterra(64, cfg.hurst, 1, 8, cfg.seed)
    yield ("volterra determinism", np.array_equal(b1.values, b2.values), "")

    ctrl = cmspace.control_from_callable(lambda s: np.cos(2 * np.pi * s),
                                         128, max(cfg.hurst, 0.6))
    pa = cmspace.project(cmspace.project(ctrl, 0.7), 0.4)
    pb = cmspace.project(ctrl, 0.4)
    yield ("projection monotone",
           np.array_equal(pa.cells, pb.cells), "")
    n1 = cmspace.cm_norm(ctrl)
    rep = fracops.norms(ctrl.path, max(cfg.hurst, 0.6), 0.35)
    yield ("Holder embedding", rep.holder_norm <= 1.05 * n1,
           f"ratio={rep.holder_norm / n1:.3f}")

    co = sde.get_coefficients("constant")
    sk = sde.skeleton([0.0], co, ctrl)
    cp = sde.controlled_path([0.0], co, ctrl, 0.0,
                             GridFn.zeros(128, 1))
    yield ("eps=0 bitwise reduction", np.array_equal(sk.values, cp.values), "")

    zc = cmspace.zero_control(max(cfg.hurst, 0.6), 64)
    w, logw = ldp.girsanov_weight(zc, 1.0, np.zeros((1, 64, 1)))
    yield ("girsanov zero-control weight", w[0] == 1.0 and logw[0] == 0.0, "")


def _run_validate_ops(cfg: ExperimentConfig, out: Path,
                      written: list[str]) -> None:
    rows = [("check", "status", "detail")]
    failures = 0
    for name, passed, detail in _validate_ops_checks(cfg):
        rows.append((name, "pass" if passed else "FAIL", detail))
        failures += 0 if passed else 1
    (out / "validate.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    written.append("validate.csv")
    if failures:
        raise NumericError(f"{failures} validate-ops checks failed")


_WORKFLOWS = {
    "sample": _run_sample,
    "solve": _run_solve,
    "rate": _run_rate,
    "ldp-scaling": _run_ldp_scaling,
    "laplace-check": _run_laplace,
    "validate-ops": _run_validate_ops,
}


def run(config_path: str, seed_override: int | None = None) -> int:
    """Execute the workflow named by the config; returns the exit status.

    The one place that maps failure kinds to statuses: a ``DomainError``
    exits 2, an ``InfeasibleError`` 4 and any other ``NumericError`` 3.
    A run that exits 0, 3 or 4 writes a manifest listing every file it
    wrote.
    """
    t0 = time.time()
    try:
        cfg = ExperimentConfig.from_file(config_path)
        if seed_override is not None:
            cfg.seed = int(seed_override)
            cfg.validate()
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    out = cfg.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        _WORKFLOWS[cfg.command](cfg, out, written)
    except DomainError as exc:
        # a config-content violation surfacing from the numeric layers
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericError as exc:
        kind, status = (("infeasible", EXIT_INFEASIBLE)
                        if isinstance(exc, InfeasibleError)
                        else ("numeric", EXIT_NUMERIC))
        _write_json(out / "error.json", {"error": kind, "detail": str(exc)})
        written.append("error.json")
        _write_manifest(out, cfg, t0, written)
        print(f"{kind}: {exc}", file=sys.stderr)
        return status
    _write_manifest(out, cfg, t0, written)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbmld",
        description="fBm pathwise-calculus and large-deviation experiments",
    )
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    return run(args.config, args.seed)


if __name__ == "__main__":
    sys.exit(main())
