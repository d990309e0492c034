#!/usr/bin/env python3
"""Run one ctcfuse benchmark workload for one seed and print its metrics.

    python3 benchmarks/run.py --workload train_aligned --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the same work untraced and then traced, checks that
both give bit-identical outputs, and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the environment, sample counts and check results. The
exit code is 0 when every check passed, 1 when one failed and 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run in this checkout or with these arguments."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> int:
    """Pin the thread pools, then put this checkout's ``src`` first on the import path.

    Must run before numpy is imported. The pool size is ``CTCFUSE_THREADS``
    capped at the usable CPUs, or 1 when unset, so reduction order and
    timings do not depend on the machine's core count.
    """
    requested = os.environ.get("CTCFUSE_THREADS")
    try:
        threads = max(1, min(int(requested), usable_cpus())) if requested else 1
    except ValueError:
        raise BenchError(f"CTCFUSE_THREADS must be an integer, got {requested!r}") from None
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "ctcfuse" / "__init__.py").is_file():
        raise BenchError(f"no ctcfuse sources under {src}")
    sys.path.insert(0, str(src))
    import ctcfuse

    if Path(ctcfuse.__file__).resolve().parent != src / "ctcfuse":
        raise BenchError(f"imported ctcfuse from {ctcfuse.__file__}, not from {src}")
    return threads


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
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
    return None


def environment(threads: int) -> dict:
    import numpy
    import workloads

    return {
        "cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "CTCFUSE_THREADS": os.environ.get("CTCFUSE_THREADS"),
        "git_commit": git_commit(ROOT),
        "src_sha256": workloads.digest(workloads.program_sources()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from None


def with_units(values: dict, declared: list) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics BENCHMARK.json declares."""
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def op_times(outcome, rescaled: bool) -> list[list[tuple]]:
    """Every op part's time, ``[pass][op][part]``; ``rescaled`` puts it at the reference speed."""
    import speed
    import stats

    if not rescaled:
        return outcome.latencies
    return stats.rescale(outcome.latencies, outcome.kernel_s, speed.REF_KERNEL_S)


def total_s(times) -> float:
    return sum(t for pass_times in times for op in pass_times for t in op)


def timings(outcome, parts: tuple, rescaled: bool) -> dict:
    """Set-up time, throughput and p50 op latency; ``rescaled`` puts them at the reference speed."""
    import speed
    import stats

    times, setups = op_times(outcome, rescaled), outcome.setup_s
    if rescaled:
        setups = [s * speed.REF_KERNEL_S / k for s, k in zip(setups, outcome.setup_kernel_s)]
    medians = stats.op_medians(times)  # per op and part, over the passes
    return {
        "setup_s": stats.median(setups),
        "utt_per_s": stats.ratio(outcome.utterances * outcome.passes, total_s(times)),
        "op_ms_p50": stats.percentile([1000.0 * sum(m) for m in medians], 50),
        "part_ms_p50": {
            part: stats.percentile([1000.0 * m[i] for m in medians], 50)
            for i, part in enumerate(parts)
        },
    }


def run_plain(workload, seed: int, seconds: float, expected: dict):
    import stats

    outcome = workload.measure(seed, seconds=seconds)
    check = workload.check(expected)
    problems = outcome.problems + check.problems
    try:
        values = timings(outcome, workload.parts, rescaled=True)
        measured = timings(outcome, workload.parts, rescaled=False)
    except ValueError as err:  # no complete pass, or too few ops in one
        problems.append(str(err))
        values = {"setup_s": 0.0, "utt_per_s": 0.0, "op_ms_p50": 0.0, "part_ms_p50": {}}
        measured = {}
    part_ms_p50 = values.pop("part_ms_p50")
    values["peak_rss_mb"] = peak_rss_mb()
    kernel_s = [k for pass_k in outcome.kernel_s for op in pass_k for k in op]
    report = {
        "passes": outcome.passes,
        "ops_per_pass": len(outcome.latencies[0]) if outcome.latencies else 0,
        "part_ms_p50": part_ms_p50,
        "measured": measured,
        "kernel_ms_p50": 1000.0 * stats.median(kernel_s) if kernel_s else None,
        "measured_s": outcome.elapsed_s,
        "outputs": outcome.notes,
    }
    attempted = len(outcome.outputs) + check.attempted
    failed = outcome.failed + check.failed
    return values, attempted, failed, problems, report


def run_traced(workload, seed: int, seconds: float, expected: dict):
    import spans

    plain = workload.measure(seed, seconds=seconds)
    check = workload.check(expected)

    tracer = spans.Tracer()
    patches = spans.Patches()
    spans.install(tracer, patches)
    try:
        traced = workload.measure(seed, passes=plain.passes)
    finally:
        patches.restore()

    mismatched = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
    mismatched += abs(len(plain.outputs) - len(traced.outputs))
    problems = plain.problems + traced.problems + check.problems
    if mismatched:
        problems.append(f"{mismatched} traced outputs differ from the untraced run")
    silent = [s for s in workload.expect if not tracer.calls.get(s)]
    if silent:
        problems.append(f"expected spans never fired: {silent}")
    bypassed = [s for s in workload.bypass if tracer.calls.get(s)]
    if bypassed:
        problems.append(f"spans that this workload bypasses fired: {bypassed}")

    values = tracer.metrics()
    # op time at the reference speed: spans run inside the ops, speed samples outside
    untraced_s = total_s(op_times(plain, rescaled=True))
    values["trace.overhead_s"] = total_s(op_times(traced, rescaled=True)) - untraced_s
    values["trace.untraced_s"] = untraced_s
    report = {
        "passes": plain.passes,
        "span_calls": dict(sorted(tracer.calls.items())),
        "outputs": plain.notes,
    }
    attempted = len(plain.outputs) + len(traced.outputs) + check.attempted
    failed = plain.failed + traced.failed + mismatched + check.failed
    return values, attempted, failed, problems, report


def main(argv=None) -> int:
    try:
        spec = load_spec()
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True,
                            choices=[w["name"] for w in spec["workloads"]])
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        threads = prepare()

        import workloads

        workload = workloads.WORKLOADS[args.workload]
        workload.build()
        expected = json.loads(EXPECTED.read_text()).get(args.workload)
        if expected is None:
            raise BenchError(f"{EXPECTED.name} records nothing for {args.workload}")
    except (BenchError, OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.trace:
        values, attempted, failed, problems, report = run_traced(
            workload, args.seed, args.seconds, expected)
        metrics = with_units(values, spec["per_layer"])
    else:
        values, attempted, failed, problems, report = run_plain(
            workload, args.seed, args.seconds, expected)
        metrics = with_units(values, spec["end_to_end"])
    correct = failed == 0 and not problems
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=environment(threads), problems=problems)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
