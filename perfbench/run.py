"""Benchmark of robustroc: Monte Carlo replication time and in-process CLI
analysis time, with a traced run that splits the time by layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc_linear_shift --seed 1 --seconds 20 --trace 0

Workloads: mc_linear_shift, mc_nonlinear_shift, mc_classical_clean, cli_study.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones; the spans of a traced run are written to
``perfbench/out/``. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""
import os

# One process, no helper threads: BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "robustroc" / "__init__.py").is_file():
        print(f"error: robustroc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), HERE / "out")
    for name, metric in out["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
