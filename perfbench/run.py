"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload isaplanner-decided --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is used from ``src/`` as it
stands; nothing is installed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Everything above it is a human-readable report:
an environment stamp, every metric with its unit and sample count, the
operations that failed the oracle, and the goals whose verdict moved from
``perfbench/pinned.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Working space for stores, sockets and logs (removed at exit) and traces (kept).
WORK = ".perfbench"


def _commit() -> str:
    """The checked-out commit when ``.git`` is present, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): identifies the code measured."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import load_spec
    from perfbench.oracle import Oracle
    from perfbench.stats import MIN_TAIL
    from perfbench.tracing import Tracer, installed
    from perfbench.workloads import WORKLOADS, nproc

    spec = load_spec()
    names = {entry["name"] for entry in spec["workloads"]}
    if args.workload not in names or args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: {sorted(names)})", file=sys.stderr)
        return 2
    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={nproc()} python={platform.python_version()} "
        f"commit={_commit()} src={_source_digest()}"
    )

    from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    tracer = Tracer() if args.trace else None
    trace_out = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    oracle = Oracle(SUITE_PROGRAM_SOURCES)
    try:
        workload.open(workdir, os.path.join(workdir, "daemon-trace.jsonl") if tracer else None)
        if tracer is None:
            outcome = workload.measure(args.seconds, None)
            ops = outcome.ops
        else:
            # Half the time untraced, half traced: their goals_per_s ratio is
            # the tracing overhead.
            base = workload.measure(args.seconds / 2, None, minimums=False)
            with installed(tracer):
                outcome = workload.measure(args.seconds / 2, tracer, minimums=False)
            ops = base.ops + outcome.ops
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        tally = oracle.check(ops)
        metrics = outcome.e2e
    else:
        before, _ = tracer.snapshot()
        with installed(tracer):
            tally = oracle.check(ops)
        after, _ = tracer.snapshot()
        metrics = outcome.layers
        _set(metrics, "proofs.check_s", after["proofs"] - before["proofs"], oracle.certificates_checked)
        _set(metrics, "proofs.check_rejects", oracle.check_rejects, oracle.certificates_checked)
        traced, untraced = outcome.e2e["goals_per_s"].value, base.e2e["goals_per_s"].value
        _set(metrics, "trace.overhead_ratio", traced / untraced if untraced else 0.0, len(outcome.ops))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        tracer.write(trace_out, {"workload": args.workload, "seed": args.seed})

    expected = [entry["name"] for entry in spec["per_layer" if tracer else "end_to_end"]]
    missing = [name for name in expected if name not in metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    print(f"{'metric':34s} {'value':>14s} {'unit':8s} samples")
    for name in expected:
        metric = metrics[name]
        print(f"{name:34s} {metric.value:14.6g} {metric.unit:8s} {metric.samples}")
    print(f"{'error_share':34s} {tally.error_share:14.6g} {'ratio':8s} {tally.attempted}")
    print(f"# percentiles: nearest rank, reported only with >= {MIN_TAIL} samples beyond them")
    for line in outcome.notes:
        print(f"# {line}")
    for reason in tally.errors[:50]:
        print(f"# ERROR {reason}")
    if tracer is not None:
        print(f"# spans written to {trace_out}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name].value, "unit": metrics[name].unit} for name in expected},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _set(metrics, name: str, value: float, samples: int) -> None:
    from perfbench.stats import Metric

    metrics[name] = Metric(float(value), metrics[name].unit, samples)


if __name__ == "__main__":
    sys.exit(main())
