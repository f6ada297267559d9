#!/usr/bin/env python3
"""Additive-case large-deviation study.

Runs the three canonical experiments for dX = sqrt(eps) dB^H, X_0 = 0:
the rate minimization for the terminal exceedance {X_1 >= 1} (analytic
value 1/2), the small-noise scaling table -eps log p over decreasing eps,
and the Laplace-functional trend toward its variational value.  All
artifacts (including the generated configs) land under --outdir.
"""

import argparse
import json
import sys
from pathlib import Path

from fbmld import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="additive_study")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--hurst", type=float, default=0.6)
    ap.add_argument("--n-samples", type=int, default=10_000)
    args = ap.parse_args(argv)

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    common = {
        "hurst": args.hurst, "coefficient": "constant", "x0": [0.0],
        "n_ctrl": 32, "seed": args.seed,
    }
    configs = {
        "rate": {
            **common, "command": "rate", "n_steps": 256,
            "event": {"kind": "terminal_exceedance", "a": 1.0},
            "output_dir": str(out / "rate"),
        },
        "scaling": {
            **common, "command": "ldp-scaling", "n_steps": 1024,
            "event": {"kind": "terminal_exceedance", "a": 1.0},
            "eps_list": [0.25, 0.1, 0.04], "n_samples": args.n_samples,
            "output_dir": str(out / "scaling"),
        },
        "laplace": {
            **common, "command": "laplace-check", "n_steps": 256,
            "functional": {"name": "terminal_shortfall", "target": 1.0},
            "eps_list": [0.5, 0.2, 0.1], "n_samples": 2 * args.n_samples,
            "output_dir": str(out / "laplace"),
        },
    }
    for name, cfg in configs.items():
        cfg_path = out / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        print(f"== {name}: fbmld {cfg_path}")
        status = cli.run(str(cfg_path))
        if status != cli.EXIT_OK:
            print(f"{name} failed with exit status {status}", file=sys.stderr)
            return status

    rate = json.loads((out / "rate" / "rate_result.json").read_text())
    print(f"\nrate value: {rate['value']:.4f} (analytic 0.5), "
          f"residual {rate['residual']:.2e}")
    rows = json.loads((out / "scaling" / "scaling.json").read_text())["rows"]
    print("eps      p_hat        -eps log p   gap")
    for r in rows:
        print(f"{r['eps']:<8g} {r['p_hat']:<12.4e} "
              f"{r['neg_eps_log_p']:<12.4f} {r['gap']:.4f}")
    lap = json.loads((out / "laplace" / "laplace.json").read_text())["rows"]
    print("eps      laplace_mc   std_err      ess          variational")
    for r in lap:
        print(f"{r['eps']:<8g} {r['value']:<12.4f} {r['std_err']:<12.3e} "
              f"{r['ess']:<12.1f} {r['variational']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
