"""Reference figures for perfbench/README.md: the machine facts, then one
untraced and one traced run of every workload, as Markdown tables.

Run from the repository root:

    python3 perfbench/reference.py --seed 1 --seconds 20
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def table(results: dict, key: str, bench: dict) -> None:
    print("| metric | unit | " + " | ".join(results) + " |")
    print("| --- | --- |" + " ---: |" * len(results))
    for metric in bench[key]:
        name = metric["name"]
        cells = [f"{r['metrics'][name]['value']:.4g}" for r in results.values()]
        print(f"| `{name}` | {metric['unit']} | " + " | ".join(cells) + " |")
    print("| operations attempted / failed | | " + " | ".join(
        f"{r['attempted']} / {r['failed']}" for r in results.values()) + " |")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy
    import scipy
    print(f"- nproc: {os.cpu_count()}")
    print(f"- CPU: {cpu_model()}")
    print(f"- Python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}")
    print("- BLAS threads: OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = "
          "MKL_NUM_THREADS = 1, set by run.py")
    print(f"- seed {args.seed}, --seconds {args.seconds}\n")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        results = {w["name"]: run(w["name"], args.seed, args.seconds, trace)
                   for w in bench["workloads"]}
        print(f"{'Traced' if trace else 'Untraced'} run (--trace {trace}):\n")
        table(results, key, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
