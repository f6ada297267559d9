#!/usr/bin/env python3
"""Sample fBm with both samplers and report their law statistics.

Draws matching batches from the exact Cholesky sampler and the Volterra
synthesis, prints empirical terminal variances against the fBm covariance,
and leaves CSV/npz artifacts under --outdir.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from fbmld import cli, fbm


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="sampler_demo")
    ap.add_argument("--hurst", type=float, default=0.75)
    ap.add_argument("--n-steps", type=int, default=128)
    ap.add_argument("--n-paths", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for sampler in ("cholesky", "volterra"):
        cfg = {
            "command": "sample", "sampler": sampler, "hurst": args.hurst,
            "n_steps": min(args.n_steps, 4096 if sampler == "cholesky"
                           else args.n_steps),
            "d": 1, "n_paths": min(args.n_paths, 200), "seed": args.seed,
            "output_dir": str(out / sampler),
        }
        cfg_path = out / f"{sampler}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        status = cli.run(str(cfg_path))
        if status != cli.EXIT_OK:
            return status

    se = math.sqrt(2.0 / args.n_paths)
    chol = fbm.sample_cholesky(min(args.n_steps, 4096), args.hurst, 1,
                               args.n_paths, args.seed)
    volt = fbm.sample_volterra(args.n_steps, args.hurst, 1,
                               args.n_paths, args.seed)
    bias = fbm.volterra_variance_bias(args.n_steps, args.hurst)
    print(f"H={args.hurst}, {args.n_paths} paths, var SE ~ {se:.4f}")
    print(f"cholesky Var[B^H_1] = {chol.values[:, -1, 0].var():.4f} "
          f"(exact law; target 1)")
    print(f"volterra Var[B^H_1] = {volt.values[:, -1, 0].var():.4f} "
          f"(midpoint quadrature bias {bias:.4f})")
    mid = args.n_steps // 2
    print(f"volterra Cov(B_0.5, B_1) = "
          f"{np.cov(volt.values[:, mid, 0], volt.values[:, -1, 0])[0, 1]:.4f} "
          f"vs R_H = {fbm.covariance(0.5, 1.0, args.hurst):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
