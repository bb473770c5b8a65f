"""Re-pin ``perfbench/pinned.json``: every IsaPlanner goal's verdict and time.

    python3 perfbench/pin.py [--repeats 3] [--suites 3]

Run from the root of a checkout, on the commit whose verdicts should become
the reference.  Two settings are measured:

* ``decided`` — serial ``Prover.prove`` with the default configuration plus
  ``emit_proofs`` (5 s budget).  Goals that time out are run once; the rest
  ``--repeats`` times.  The time is the median, the status the most common.
* ``suite`` — ``run_suite_parallel`` on ``nproc`` workers at the suite
  workload's budget, ``--suites`` times; per-goal median time and most common
  status.

A goal joins ``isaplanner-decided`` when it is unconditional and decided
(proved or failed) in under half the 5 s budget; the reason is recorded per
goal.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Decided verdicts slower than this share of the budget stay out of the
#: decided workload: load could push them over the budget.
DECIDED_MARGIN = 0.5


def _modal(statuses):
    return Counter(statuses).most_common(1)[0][0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--suites", type=int, default=3)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.workloads import SUITE_BUDGET_S, nproc
    from repro.benchmarks_data.registry import isaplanner_problems
    from repro.harness.runner import run_suite_parallel
    from repro.search.config import ProverConfig
    from repro.search.prover import Prover

    problems = isaplanner_problems()
    config = ProverConfig(emit_proofs=True)
    budget = config.timeout
    decided = {p.name: ([], []) for p in problems if not p.goal.is_conditional}
    for repeat in range(args.repeats):
        prover = Prover(problems[0].program, config)
        for problem in problems:
            if problem.goal.is_conditional:
                continue
            statuses, times = decided[problem.name]
            if repeat and "timeout" in statuses:
                continue
            started = time.perf_counter()
            result = prover.prove(problem.goal.equation, goal_name=problem.name)
            times.append((time.perf_counter() - started) * 1000.0)
            statuses.append(
                "proved" if result.proved
                else "timeout" if result.statistics.timed_out else "failed"
            )
        print(f"decided pass {repeat + 1}/{args.repeats} done", file=sys.stderr)

    suite = {p.name: ([], []) for p in problems}
    suite_config = ProverConfig(timeout=SUITE_BUDGET_S, emit_proofs=True)
    for repeat in range(args.suites):
        result = run_suite_parallel(problems, config=suite_config, jobs=nproc())
        for record in result.records:
            suite[record.name][0].append(record.status)
            suite[record.name][1].append(record.milliseconds)
        print(f"suite {repeat + 1}/{args.suites} done", file=sys.stderr)

    goals = {}
    for problem in problems:
        name = problem.name
        s_statuses, s_times = suite[name]
        row = {
            "suite": {
                "status": _modal(s_statuses),
                "ms": round(statistics.median(s_times), 1),
                "why": "every IsaPlanner goal is in the suite (Fig. 7)"
                + ("; budget-bound" if _modal(s_statuses) == "timeout" else ""),
            }
        }
        if problem.goal.is_conditional:
            row["decided"] = {"status": "out-of-scope", "ms": 0.0}
            row["in_decided"] = False
            row["why"] = "conditional goal: out of scope for the proof system, so suite only"
        else:
            statuses, times = decided[name]
            status, ms = _modal(statuses), round(statistics.median(times), 1)
            row["decided"] = {"status": status, "ms": ms}
            if status == "timeout":
                row["in_decided"] = False
                row["why"] = f"times out at the {budget:g} s default budget, so suite only"
            elif ms > DECIDED_MARGIN * budget * 1000.0:
                row["in_decided"] = False
                row["why"] = f"{status} in {ms:g} ms, too close to the {budget:g} s budget, so suite only"
            else:
                row["in_decided"] = True
                row["why"] = f"{status} in {ms:g} ms, well inside the {budget:g} s budget"
        goals[name] = row
    payload = {
        "about": (
            "Per-goal verdicts and median times at the commit that pinned them. "
            "decided: serial Prover.prove, default config + emit_proofs, 5 s budget. "
            f"suite: run_suite_parallel on {nproc()} workers at {SUITE_BUDGET_S:g} s. "
            "Regenerate with python3 perfbench/pin.py."
        ),
        "goals": goals,
    }
    with open(os.path.join(ROOT, "perfbench", "pinned.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(
        f"in decided: {sum(r['in_decided'] for r in goals.values())} goals; "
        f"suite proved: {sum(r['suite']['status'] == 'proved' for r in goals.values())}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
