"""Self-test of the benchmark: every workload, untraced and traced, for one
second each. It checks that each run's last line is the result object, that
every metric printed is declared in BENCHMARK.json with the same unit (and
every declared metric is printed), and that each run reports whole numbers of
operations attempted and failed.

Run from the repository root:

    python3 perfbench/selftest.py
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def declared(bench: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in bench[key]}


def problems_of(workload: str, trace: int, bench: dict) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    out = json.loads(lines[-1])
    found = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(out)}")
    for key in ("attempted", "failed"):
        if not isinstance(out.get(key), int) or isinstance(out.get(key), bool):
            found.append(f"{key} is not a whole number: {out.get(key)!r}")
    if isinstance(out.get("attempted"), int) and out["attempted"] < 1:
        found.append("no operation attempted")
    want = declared(bench, "per_layer" if trace else "end_to_end")
    got = {name: m.get("unit") for name, m in out.get("metrics", {}).items()}
    for name in sorted(set(got) - set(want)):
        found.append(f"metric {name} is not declared")
    for name in sorted(set(want) - set(got)):
        found.append(f"declared metric {name} is not printed")
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            found.append(f"metric {name} has unit {got[name]!r}, declared {want[name]!r}")
    return found


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = problems_of(workload, trace, bench)
            failures += bool(found)
            status = "ok" if not found else "FAIL"
            print(f"{status:4s} {workload} --trace {trace}")
            for line in found:
                print(f"     {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
