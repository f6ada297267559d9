"""The benchmark's workloads: fbmld configs made from a seed, and output oracles.

Each workload is one CLI workflow at a fixed size.  ``config`` builds the JSON
config the program receives; ``check`` reads the artifacts of one invocation
and returns ``(name, passed, detail)`` triples; ``paths`` is the number of
Monte Carlo paths one invocation samples and solves; ``tol_factor`` is
``max over rows of (se / tol)^2`` for workloads whose result is a Monte Carlo
estimate, so that ``wall_s * tol_factor`` is the time to the stated accuracy.

The oracles import fbmld from the checkout under test; they run in the
benchmark process, outside the timed child.  See README.md for why each
workload exists and what each is predicted to move.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    tiny: dict              # overrides of ``full`` for the smoke test
    check: Callable[[dict, Path], list]
    paths: Callable[[dict], int]
    tol_factor: Callable[[dict, Path], float] | None = None

    def config(self, seed: int, tiny: bool = False) -> dict:
        return {**self.full, **(self.tiny if tiny else {}), "seed": int(seed)}


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _phi_bar(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# rare_event_is: ldp-scaling, additive noise, terminal exceedance
# ---------------------------------------------------------------------------

def _check_rare_event(cfg: dict, out: Path) -> list:
    from fbmld import fbm

    rows = _load_json(out / "scaling.json")["rows"]
    n, hurst, a = cfg["n_steps"], cfg["hurst"], cfg["event"]["a"]
    checks = []
    rate = rows[0]["rate_value"]
    checks.append(("rate_band", 0.475 <= rate <= 0.525,
                   f"rate={rate:.6f} in [0.475, 0.525]"))
    # X_1 = sqrt(eps) * sum_j k(1, s_j) dB_j exactly on the grid, so
    # P(X_1 >= a) = Phibar(a / (sqrt(eps) sigma_n)) with
    # sigma_n^2 = sum_j k(1, s_j)^2 / n.
    sigma_n = math.sqrt(float(np.sum(fbm.kernel_table(n, hurst)[n] ** 2)) / n)
    worst = 0.0
    ok = len(rows) == len(cfg["eps_list"])
    for row in rows:
        exact = _phi_bar(a / (math.sqrt(row["eps"]) * sigma_n))
        dev = abs(row["p_hat"] - exact) / row["std_err"] if row["std_err"] > 0 \
            else math.inf
        worst = max(worst, dev)
        ok = ok and dev <= 4.0
    checks.append(("p_hat_exact_4se", ok,
                   f"sigma_n={sigma_n:.6f}, worst deviation {worst:.2f} SE"))
    return checks


def _tol_rare_event(cfg: dict, out: Path) -> float:
    rows = _load_json(out / "scaling.json")["rows"]
    return max((r["std_err"] / (0.05 * r["p_hat"])) ** 2 for r in rows)


# ---------------------------------------------------------------------------
# rate_search: rate, rotation family, terminal target
# ---------------------------------------------------------------------------

def _exact_rotation_rate(cfg: dict) -> float:
    """Exact discrete minimum for the linear rotation skeleton.

    With x0 = 0 the skeleton's terminal state is A theta for a 2 x (n_ctrl d)
    matrix A, built column by column from the unit block controls.  The
    minimum of 0.5 |theta|^2 / n_ctrl over A theta = z is
    0.5 z^T (A A^T)^{-1} z / n_ctrl; the target ball's minimiser lies on its
    boundary, searched over the angle.
    """
    import scipy.optimize
    from fbmld import cmspace, ldp, sde

    m, d, n_ctrl = cfg["m"], cfg["d"], cfg["n_ctrl"]
    rate_cfg = ldp.RateConfig(hurst=cfg["hurst"], n_steps=cfg["n_steps"],
                              n_ctrl=n_ctrl)
    coeffs = sde.get_coefficients(cfg["coefficient"], m=m, d=d)
    k = n_ctrl * d
    inc = np.stack([
        cmspace.materialize_from_derivative(
            ldp.control_from_blocks(np.eye(k)[i], rate_cfg, d)).increments()
        for i in range(k)
    ])
    a_map = sde.solve_increments(np.zeros(m), coeffs, inc)[:, -1, :].T
    gram_inv = np.linalg.inv(a_map @ a_map.T)
    y, r = np.asarray(cfg["event"]["y"], dtype=float), cfg["event"]["r"]

    def value(phi: float) -> float:
        z = y + r * np.array([math.cos(phi), math.sin(phi)])
        return 0.5 * float(z @ gram_inv @ z) / n_ctrl

    grid = np.linspace(0.0, 2.0 * math.pi, 4097)
    i = int(np.argmin([value(p) for p in grid]))
    res = scipy.optimize.minimize_scalar(
        value, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded", options={"xatol": 1e-12})
    return float(res.fun)


def _check_rate_search(cfg: dict, out: Path) -> list:
    got = _load_json(out / "rate_result.json")
    exact = _exact_rotation_rate(cfg)
    value = got["value"]
    rel = abs(value - exact) / exact if isinstance(value, float) else math.inf
    return [
        ("feasible", bool(got["feasible"]), f"residual={got['residual']!r}"),
        ("rate_exact_1e-6", rel <= 1e-6,
         f"value={value!r} exact={exact!r} rel={rel:.2e}"),
    ]


# ---------------------------------------------------------------------------
# laplace_tanh: laplace-check, nonlinear tanh family
# ---------------------------------------------------------------------------

def _check_laplace(cfg: dict, out: Path) -> list:
    rows = _load_json(out / "laplace.json")["rows"]
    inside = all(r["h_inf"] <= r["value"] <= r["h_sup"] for r in rows)
    gaps = [abs(r["value"] - r["variational"]) for r in rows]
    shrinking = len(rows) == len(cfg["eps_list"]) and all(
        b < a for a, b in zip(gaps, gaps[1:]))
    return [
        ("values_within_h_bounds", inside,
         "values " + ", ".join(f"{r['value']:.4f}" for r in rows)),
        ("gaps_strictly_decrease", shrinking,
         "gaps " + ", ".join(f"{g:.4f}" for g in gaps)),
    ]


def _tol_laplace(cfg: dict, out: Path) -> float:
    rows = _load_json(out / "laplace.json")["rows"]
    return max((r["std_err"] / 0.005) ** 2 for r in rows)


# ---------------------------------------------------------------------------
# sample_export: Cholesky sampler plus both export formats
# ---------------------------------------------------------------------------

def _check_sample(cfg: dict, out: Path) -> list:
    from fbmld import fbm

    n, p, d = cfg["n_steps"], cfg["n_paths"], cfg["d"]
    with open(out / "paths.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    values = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    shape_ok = values.shape == (n + 1, 1 + p * d)
    checks = [("paths_csv_shape", shape_ok,
               f"{values.shape[0]} rows x {values.shape[1] - 1} path columns")]

    meta, inc = fbm.load_increments(str(out / "increments.npz"))
    want = {"sampler": cfg["sampler"], "hurst": cfg["hurst"], "n_steps": n,
            "dim": d, "n_paths": p, "seed": cfg["seed"]}
    meta_ok = all(meta.get(k) == v for k, v in want.items()) \
        and inc.shape == (p, n, d)
    checks.append(("increments_roundtrip", meta_ok, f"shape {inc.shape}"))

    if not shape_ok:
        checks.append(("terminal_variance_4se", False, "no terminal row"))
        return checks
    var = float(np.var(values[-1, 1:], ddof=1))
    se = math.sqrt(2.0 / (p * d - 1))      # SE of a Gaussian sample variance
    checks.append(("terminal_variance_4se", abs(var - 1.0) <= 4.0 * se,
                   f"var={var:.4f}, 4 SE={4.0 * se:.4f}"))
    return checks


WORKLOADS = {w.name: w for w in [
    Workload(
        name="rare_event_is",
        full={"command": "ldp-scaling", "coefficient": "constant",
              "hurst": 0.6, "n_steps": 1024, "n_ctrl": 32, "x0": [0.0],
              "event": {"kind": "terminal_exceedance", "a": 1.0},
              "eps_list": [0.25, 0.1, 0.04], "n_samples": 10000},
        tiny={"n_steps": 64, "n_ctrl": 8, "n_samples": 2000},
        check=_check_rare_event,
        paths=lambda cfg: cfg["n_samples"] * len(cfg["eps_list"]),
        tol_factor=_tol_rare_event,
    ),
    Workload(
        name="rate_search",
        full={"command": "rate", "coefficient": "rotation", "m": 2, "d": 2,
              "hurst": 0.7, "n_steps": 512, "n_ctrl": 64, "x0": [0.0, 0.0],
              "event": {"kind": "terminal_target", "y": [1.0, 0.5],
                        "r": 0.05}},
        tiny={"n_steps": 64, "n_ctrl": 8},
        check=_check_rate_search,
        # no Monte Carlo: the workflow delivers one path, the optimal skeleton
        paths=lambda cfg: 1,
    ),
    Workload(
        name="laplace_tanh",
        full={"command": "laplace-check", "coefficient": "tanh", "m": 1,
              "d": 1, "hurst": 0.75, "n_steps": 256, "n_ctrl": 32,
              "x0": [0.0],
              "functional": {"name": "terminal_shortfall", "target": 1.0},
              "eps_list": [0.5, 0.2, 0.1], "n_samples": 20000},
        tiny={"n_steps": 64, "n_ctrl": 8, "n_samples": 2000},
        check=_check_laplace,
        paths=lambda cfg: cfg["n_samples"] * len(cfg["eps_list"]),
        tol_factor=_tol_laplace,
    ),
    Workload(
        name="sample_export",
        full={"command": "sample", "sampler": "cholesky", "hurst": 0.75,
              "n_steps": 2048, "d": 1, "n_paths": 256},
        tiny={"n_steps": 128, "n_paths": 64},
        check=_check_sample,
        paths=lambda cfg: cfg["n_paths"],
    ),
]}
