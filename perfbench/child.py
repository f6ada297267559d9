"""One fbmld CLI invocation in a fresh process, timed from the inside.

Usage: python child.py CONFIG RESULT [--setup-only] [--trace]

Imports fbmld (which imports numpy and scipy), validates the config and
stamps ``ready`` on the system-wide monotonic clock, so the parent can take
set-up time from its own launch stamp.  Unless ``--setup-only`` is given it
then times ``fbmld.cli.run`` and writes wall time, exit status, peak RSS and,
with ``--trace``, the per-layer metrics and trace consistency checks to the
RESULT JSON file.
"""

import json
import resource
import sys
import time

from fbmld import cli


def main(argv):
    config_path, result_path = argv[1], argv[2]
    flags = set(argv[3:])
    cli.ExperimentConfig.from_file(config_path)
    result = {"ready": time.monotonic(), "fbmld_file": cli.__file__}

    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            import tracing
            tracer = tracing.Tracer().install()
        t0 = time.perf_counter()
        status = cli.run(config_path)
        result["wall_s"] = time.perf_counter() - t0
        result["exit"] = status
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            metrics, checks = tracing.layer_metrics(tracer)
            result["layers"] = metrics
            result["checks"] = checks

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
