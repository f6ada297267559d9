"""fbmld benchmark: one workload as a closed loop of fresh CLI processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one workflow at a time.  Each invocation is a new Python
process (``child.py``) that imports fbmld from ``src/``, validates the config
made from ``--seed`` and calls ``fbmld.cli.run``; so every invocation pays the
cold cost of building ``kernel_table`` and the block-increment map.  The loop
starts invocations until the next one would end after ``--seconds``; there
is always at least one.  Every invocation's artifacts are checked against
the workload's oracles before they are deleted.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over the run's invocations.  With ``--trace 1`` it alternates untraced and
traced invocations and reports the per-layer metrics of the traced ones
plus ``trace.overhead_s``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"      # metric names and units

SETUP_PROBES = 4        # extra set-up-only launches per run
RUN_LIMIT_S = 170.0     # a run must end within 180 s

class ChildError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _l3_size() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if (_read(f"{index}/level") or "").strip() == "3":
            return (_read(f"{index}/size") or "").strip() or None
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

def launch(cfg_path: Path, result_path: Path, flags: list[str],
           timeout: float) -> dict:
    """One child process; returns its result record with ``setup_s`` added."""
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(cfg_path),
             str(result_path), *flags],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    if not Path(result["fbmld_file"]).resolve().is_relative_to(SRC):
        raise ChildError(f"fbmld imported from {result['fbmld_file']}")
    result["setup_s"] = result["ready"] - t_launch
    return result


def invoke(workload, cfg: dict, work: Path, traced: bool,
           timeout: float) -> tuple[dict | None, list]:
    """Run, check and clean up one invocation; returns (record, checks)."""
    artifacts = Path(cfg["output_dir"])
    shutil.rmtree(artifacts, ignore_errors=True)
    try:
        rec = launch(work / "config.json", work / "result.json",
                     ["--trace"] if traced else [], timeout)
        if rec["exit"] != 0:
            return None, [("exit_status", False, f"fbmld exited {rec['exit']}")]
        checks = [tuple(c) for c in rec.get("checks", [])]
        checks += workload.check(cfg, artifacts)
        rec["tol_factor"] = workload.tol_factor(cfg, artifacts) \
            if workload.tol_factor else 1.0
    except Exception as exc:   # a broken invocation is counted, not fatal
        return None, [("invocation", False, f"{type(exc).__name__}: {exc}")]
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)
    return rec, checks


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload, cfg, plain, setups, attempted, failed) -> dict:
    paths = workload.paths(cfg)
    return {
        "wall_s": _median(r["wall_s"] for r in plain),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["maxrss_kb"] / 1024.0 for r in plain),
        "paths_per_s": _median(paths / r["wall_s"] for r in plain),
        "time_to_tol_s": _median(r["wall_s"] * r["tol_factor"] for r in plain),
        "success_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain, traced) -> dict:
    metrics = {k: _median(r["layers"][k] for r in traced)
               for k in traced[0]["layers"]}
    metrics["trace.overhead_s"] = _median(r["wall_s"] for r in traced) \
        - _median(r["wall_s"] for r in plain)
    return metrics


def run(workload, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = SCRATCH / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = dict(workload.config(seed, tiny), output_dir=str(work / "out"))
    try:
        return _measure(workload, cfg, work, seed, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, cfg, work, seed, seconds, trace, deadline) -> int:
    with open(work / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2)

    print("env " + json.dumps(environment(), sort_keys=True))
    setups = [launch(work / "config.json", work / "result.json",
                     ["--setup-only"], 60.0)["setup_s"]
              for _ in range(SETUP_PROBES)]

    kinds = [False, True] if trace else [False]
    records = {False: [], True: []}
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    while True:
        traced = kinds[attempted % len(kinds)]
        t0 = time.monotonic()
        rec, checks = invoke(workload, cfg, work, traced,
                             max(deadline - t0, 1.0))
        durations.append(time.monotonic() - t0)
        attempted += 1
        ok = rec is not None and all(passed for _, passed, _ in checks)
        failed += 0 if ok else 1
        if rec is not None:
            records[traced].append(rec)
            setups.append(rec["setup_s"])
        for name, passed, detail in checks:
            print(f"check {workload.name}.{name} "
                  f"{'pass' if passed else 'FAIL'} {detail}")
        now = time.monotonic()
        if attempted >= len(kinds) and (
                now - start + _median(durations) > seconds
                or now + max(durations) > deadline):
            break

    if not all(records[k] for k in kinds):
        print(f"no successful invocation of every kind in {attempted}",
              file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(records[False], records[True])
    else:
        metrics = end_to_end(workload, cfg, records[False], setups,
                             attempted, failed)
    with open(SPEC) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(units):
        print(f"metrics differ from {SPEC.name}: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{attempted} invocations ({len(records[True])} traced), "
          f"{len(setups)} set-up samples, fail_ratio {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "fbmld" / "__init__.py").is_file():
        print(f"fbmld sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace), args.tiny)
    except ChildError as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
