"""Fast self-test of the benchmark, at a toy size.

    python3 hvbench/selftest.py

Run it from the repository root.  It checks that `BENCHMARK.json` mirrors
`metrics.py`; that each workload prints every metric it owes, with its
unit, and no failed operation; that the exact counts of two traced runs
with the same seed are identical; and that the benchmark refuses to run
without the package sources.  Each run is a child process; each is waited
for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = {
    "build": ("compute_d2", "compute_d3"),
    "verify": ("check_stored", "check_points", "pipeline"),
    "exact": ("compute_exact",),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hvbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def printed_metrics(stdout: str) -> dict:
    """{name: unit} of every `metric <name> = <value> <unit> (...)` line."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, value, unit = line.split()[:5]
            float(value)
            out[name] = unit
    return out


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        manifest["end_to_end"]
        == [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in metrics.END_TO_END],
        "BENCHMARK.json end_to_end differs from metrics.END_TO_END",
    )
    expect(
        manifest["per_layer"]
        == [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER],
        "BENCHMARK.json per_layer differs from metrics.PER_LAYER",
    )
    expect(
        sorted(w["name"] for w in manifest["workloads"]) == sorted(KINDS) == sorted(workloads.CYCLE),
        "workload names differ",
    )


def check_workload(workload: str) -> None:
    proc = bench(ROOT, workload, 0)
    expect(proc.returncode == 0, f"{workload} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: {proc.stdout}")
    owed = {m.name: m.unit for m in metrics.END_TO_END + metrics.PRINTED}
    for kind in KINDS[workload]:
        owed.update({f"{kind}_s": "s", f"{kind}_ref": "ref"})
    owed[metrics.FAILED_RATIO.name] = metrics.FAILED_RATIO.unit
    printed = printed_metrics(proc.stdout)
    for name, unit in owed.items():
        expect(printed.get(name) == unit, f"{workload}: {name} not printed in {unit}")
    expect("metric failed_ratio = 0.0 " in proc.stdout, f"{workload}: failed_ratio is not 0")
    expect(
        {k: v["unit"] for k, v in result["metrics"].items()}
        == {m.name: m.unit for m in metrics.END_TO_END},
        f"{workload}: JSON metrics differ from the end-to-end set",
    )

    counts = []
    for _ in range(2):
        proc = bench(ROOT, workload, 1)
        expect(proc.returncode == 0, f"{workload} traced exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(result["correct"], f"{workload} traced: {proc.stdout}")
        expect(
            {k: v["unit"] for k, v in result["metrics"].items()}
            == {m.name: m.unit for m in metrics.PER_LAYER},
            f"{workload}: traced metrics differ from the per-layer set",
        )
        counts.append({name: result["metrics"][name]["value"] for name in metrics.EXACT_COUNTS})
    expect(counts[0] == counts[1], f"{workload}: counts differ: {counts}")
    if workload == "build":
        expect(counts[0]["sampling.ball_points.calls"] == 0, "build draws samples")


def check_bare_directory() -> None:
    """Without the package sources the benchmark exits non-zero, silently."""
    bare = HERE / "out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(HERE, bare / "hvbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "build", 0)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "ran without the package sources")
    expect('"correct"' not in proc.stdout, "printed a result without the package sources")


def main() -> int:
    check_manifest()
    for workload in KINDS:
        check_workload(workload)
    check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
