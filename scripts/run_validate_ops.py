#!/usr/bin/env python3
"""Run the validate-ops self-test workflow and print its table."""

import argparse
import json
import sys
from pathlib import Path

from fbmld import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="validate_ops")
    ap.add_argument("--hurst", type=float, default=0.75)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "validate.json"
    cfg_path.write_text(json.dumps({
        "command": "validate-ops", "hurst": args.hurst, "seed": args.seed,
        "output_dir": str(out / "result"),
    }, indent=2, sort_keys=True))
    status = cli.run(str(cfg_path))
    table = out / "result" / "validate.csv"
    if table.exists():
        print(table.read_text())
    return status


if __name__ == "__main__":
    sys.exit(main())
