"""Benchmark of hypervoronoi: end-to-end timings, or per-layer spans.

    python3 hvbench/run.py --workload build|verify|exact --seed N \
        --seconds S --trace 0|1 [--size full|toy]

Run it from the repository root; it imports the package from `src/`.
The workloads and the check of every output are in `workloads.py`, the
metric definitions in `metrics.py`.  The run sets the workload up five
times and reports the median set-up time, then runs rounds of operations,
one at a time, until S seconds have passed.  Between operations it times a
fixed reference task, and reports operations both in seconds and in units
of that task (`round_ref`, gated), which cancels the shared host's changes
of speed.

With `--trace 0` it reports the end-to-end metrics, with tracing off.
With `--trace 1` it runs one untraced cycle, then traced cycles on the same
inputs, and reports the per-layer metrics; the difference between the two
is the tracing overhead.  Either way it prints one `metric` line per
metric and, as its last line, a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  It writes only under `hvbench/out/`:
the full result, and the spans of a traced run.

`python3 hvbench/selftest.py` checks the benchmark itself at a toy size.
"""

import os

# Pin BLAS threads before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
REFERENCE_LOOPS = 250_000
REFERENCE_POINTS = 30_000


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python task: the host's speed right now.

    The task is arithmetic, then building, hashing and sorting tuples, the
    kinds of work the package does.  The shared host's speed changes by up
    to 1.5x over minutes, and every operation's wall time with it.  The task
    runs between operations, and each operation is also reported over the
    median of the six reference times nearest to it, which cancels most of
    that change.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        acc += (i % 7) * 0.5
    points = [(i * 0.37 % 1.0, i * 0.61 % 1.0) for i in range(REFERENCE_POINTS)]
    index = {p: k for k, p in enumerate(points)}
    points.sort()
    acc += index[points[0]]
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / workloads.PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Runs rounds of operations, checks each outcome, records the times."""

    def __init__(self, rounds, check):
        self.rounds = rounds
        self.check = check
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, check, *args) -> None:
        """Count one attempt; `check(*args)` returns None or why it failed."""
        self.attempted += 1
        try:
            reason = check(*args)
        except Exception as e:  # an unreadable output fails the operation
            reason = f"output check raised {type(e).__name__}: {e}"
        if reason is not None:
            self.failures.append(f"{what}: {reason}")

    def run(self, seconds: float, whole_cycles: bool, tracer=None) -> list:
        """Run rounds until `seconds` have passed (and, if asked, the cycle
        is complete).  Returns, per round, one (kind, seconds, reference
        seconds) per operation."""
        cycle = len(self.rounds)
        rounds = []
        refs = [reference_seconds()]
        start = time.perf_counter()
        while True:
            ops = []
            for op in self.rounds[len(rounds) % cycle]:
                ops.append(self._op(op, tracer))
                refs.append(reference_seconds())
            rounds.append(ops)
            if time.perf_counter() - start >= seconds and (
                not whole_cycles or len(rounds) % cycle == 0
            ):
                break
        # operation k ran between reference times k and k + 1
        k = 0
        timed = []
        for ops in rounds:
            timed.append([])
            for kind, elapsed in ops:
                timed[-1].append((kind, elapsed, statistics.median(refs[max(0, k - 2):k + 4])))
                k += 1
        return timed

    def _op(self, op, tracer):
        scope = tracer.operation(op.kind) if tracer else contextlib.nullcontext()
        crash = None
        with scope:
            start = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as e:  # a crash is a failed operation, not a failed run
                crash = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
        if crash is not None:
            self.record(f"{op.kind} {op.key}", lambda: crash)
        else:
            self.record(f"{op.kind} {op.key}", self.check, op, outcome)
            if tracer is not None and outcome.document is not None:
                tracer.counts["documents.bytes_out"] += outcome.document.stat().st_size
        return op.kind, elapsed


def tail(values: list) -> str:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]!r}"
    return ""


def end_to_end(rounds: list, setup_times: list) -> tuple[dict, list]:
    ops = [op for r in rounds for op in r]
    round_s = statistics.median(sum(t for _, t, _ in r) for r in rounds)
    per_round = f"median of {len(rounds)} rounds"
    values = {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)}"),
        "round_ref": (statistics.median(sum(t / ref for _, t, ref in r) for r in rounds), per_round),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "whole run"),
        "round_s": (round_s, per_round),
        "ops_per_s": (len(rounds[0]) / round_s, f"one round of {len(rounds[0])} at round_s"),
        "reference_s": (statistics.median(ref for _, _, ref in ops), f"median of {len(ops)}"),
    }
    lines = [(m.name, *values[m.name], m.unit) for m in metrics.END_TO_END + metrics.PRINTED]
    for kind in metrics.OPERATION_KINDS:
        times = [(t, ref) for k, t, ref in ops if k == kind]
        if times:
            seconds = [t for t, _ in times]
            detail = f"median of {len(times)}"
            lines.append((f"{kind}_s", statistics.median(seconds), detail + tail(seconds), "s"))
            lines.append((f"{kind}_ref", statistics.median(t / ref for t, ref in times), detail, "ref"))
    result = {m.name: {"value": values[m.name][0], "unit": m.unit} for m in metrics.END_TO_END}
    return result, lines


def per_layer(tracer, baseline: list, traced: list) -> tuple[dict, list]:
    totals = tracer.span_totals()
    ops = tracer.ops
    values = {}
    for group in metrics.SPAN_GROUPS:
        calls, seconds = totals.get(group, (0, 0.0))
        values[f"{group}.calls"] = calls / ops
        values[f"{group}.self_s"] = seconds / ops
    for name, count in tracer.counts.items():
        values[name] = count / ops
    clips, pairs = totals.get("clipping.clip", (0, 0.0))[0], tracer.counts["hvd.adjacency_pairs"]
    values["clipping.useful_ratio"] = 2 * pairs / clips if clips else 0.0
    values["hvd.in_ball_edge_ratio"] = tracer.counts["hvd.delaunay_edges"] / pairs if pairs else 0.0
    base = statistics.fmean(t for r in baseline for _, t, _ in r)
    values["trace.overhead_s"] = statistics.fmean(t for r in traced for _, t, _ in r) - base
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / base
    result = {m.name: {"value": values.get(m.name, 0.0), "unit": m.unit} for m in metrics.PER_LAYER}
    per_op = f"mean per operation, {ops} traced"
    lines = [
        (m.name, result[m.name]["value"], per_op if "/op" in m.unit else "ratio of totals", m.unit)
        for m in metrics.PER_LAYER
    ]
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no {workloads.PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}"

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = workloads.prepare(args.workload, args.seed, args.size, work)
        setup_times.append(time.perf_counter() - start)
    package_file = Path(sys.modules[workloads.PACKAGE].__file__).resolve()
    if SRC.resolve() not in package_file.parents:
        print(f"error: imported {package_file}, not the sources under {SRC}", file=sys.stderr)
        return 2

    check = workloads.OutputCheck(args.seed, workloads.SIZES[args.size]["samples"])
    runner = Runner(prepared.rounds, check)
    if prepared.stored is not None:
        runner.record("set-up stored diagram", check.document, prepared.stored)
    tag = f"{args.workload}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "environment": environment(),
        "setup_s": setup_times,
    }
    if args.trace:
        baseline = runner.run(0.0, whole_cycles=True)
        tracer = spans.Tracer(workloads.PACKAGE, metrics.SPAN_GROUPS)
        with tracer.installed():
            left = args.seconds - sum(t for r in baseline for _, t, _ in r)
            traced = runner.run(max(0.0, left), True, tracer)
        result, lines = per_layer(tracer, baseline, traced)
        spans_path = OUT / f"{args.workload}-spans.npz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["absent"] = tracer.absent
    else:
        rounds = runner.run(args.seconds, whole_cycles=False)
        result, lines = end_to_end(rounds, setup_times)
        record["operations"] = rounds
    failed = len(runner.failures)
    ratio = metrics.FAILED_RATIO
    lines.append((ratio.name, failed / runner.attempted, f"{failed} of {runner.attempted}", ratio.unit))
    record.update(
        metrics=result,
        failures=runner.failures,
        exact_sha256=check.digests,
    )
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)

    env = record["environment"]
    print(f"# hvbench {tag} seed={args.seed} seconds={args.seconds} size={args.size}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, detail, unit in lines:
        print(f"metric {name} = {value!r} {unit} ({detail})")
    for key, digest in sorted(check.digests.items()):
        print(f"exact_sha256 {key} {digest}")
    for reason in runner.failures[:10]:
        print(f"failure {reason}")
    if args.trace and tracer.absent:
        print("absent " + " ".join(tracer.absent))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
