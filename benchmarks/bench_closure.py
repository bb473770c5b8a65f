"""Experiment E-closure — the antichain size-change closure, layer by layer.

The size-change closure is the profile's first layer: proof search adds one
graph per uncovered edge and undoes them on backtracking, and the closure
composes every new graph with what it already holds.
:class:`repro.sizechange.closure.IncrementalClosure` keeps only the
subsumption-minimal graphs of the closure (``docs/proofs.md`` has the
soundness argument).  This benchmark isolates that layer from the rest of
the prover:

* each workload is the ``add``/``remove`` trace one proof attempt sends to
  its closure, recorded by running the prover once with a recording closure
  patched in — prop_49 and prop_61 as decided with the wall clock off, and
  prop_54 at a 2,000-node budget (it is never decided);
* each trace is replayed through the shipped closure and through
  :class:`FullClosure`, a bench-local copy of the closure before pruning:
  the same composition memo and the same raw-key deduplication, so the two
  sides differ only in pruning.

Claims, all asserted:

* **parity** — on every trace both closures report the same per-``add``
  verdict sequence (violation or not); the prover's choices depend on
  nothing else.
* **speedup** — on the prop_49 trace the paired, interleaved 95% CI lower
  bound of the full/antichain replay-time ratio is at least 1.5x.

The report also lists compositions and the peak number of kept graphs for
all three traces.  Run directly (``PYTHONPATH=src python
benchmarks/bench_closure.py``) for the report, or through pytest for the
gates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import pytest
from conftest import print_report  # shared benchmark helpers
from stats import format_sample, measure_paired

from repro.benchmarks_data.registry import isaplanner_problems
from repro.harness import format_table
from repro.search import prover as prover_module
from repro.search.config import ProverConfig
from repro.sizechange.closure import AdditionResult, IncrementalClosure
from repro.sizechange.graph import SizeChangeGraph, compose_edges

REPEATS = 5
WARMUP = 1

#: Asserted paired-ratio CI lower bound on the prop_49 trace.
REQUIRED_CI_LOWER = 1.5

#: (goal, configuration) per recorded trace.  The wall clock is off, so each
#: trace is the same on every machine.
TRACE_GOALS: Tuple[Tuple[str, ProverConfig], ...] = (
    ("prop_49", ProverConfig(timeout=None)),
    ("prop_61", ProverConfig(timeout=None)),
    ("prop_54", ProverConfig(timeout=None, max_nodes=2000)),
)

#: The gated trace.
SPEEDUP_TRACE = "prop_49"

#: A trace step: a graph to add, or ``None`` to undo the latest live add.
Trace = List[Optional[SizeChangeGraph]]


class FullClosure:
    """The closure before pruning: every graph of the closure is kept.

    A copy of the incremental closure as it stood before the antichain —
    the composition memo, raw-key deduplication before graph construction,
    and the LIFO worklist are all kept, so a ratio against it measures
    pruning and nothing else.
    """

    def __init__(self) -> None:
        self._graphs: Set[SizeChangeGraph] = set()
        self._keys: Set[Tuple[int, int, frozenset]] = set()
        self._by_source: Dict[int, Set[SizeChangeGraph]] = {}
        self._by_target: Dict[int, Set[SizeChangeGraph]] = {}
        self._compose_memo: Dict[Tuple[frozenset, frozenset], frozenset] = {}
        self.compositions_performed = 0

    def __len__(self) -> int:
        return len(self._graphs)

    def add(self, edge_graph: SizeChangeGraph) -> AdditionResult:
        added: List[SizeChangeGraph] = []
        violation: Optional[SizeChangeGraph] = None
        keys = self._keys
        by_source = self._by_source
        by_target = self._by_target
        memo = self._compose_memo
        compositions = 0
        worklist: List[SizeChangeGraph] = [edge_graph]
        while worklist:
            graph = worklist.pop()
            source = graph.source
            target = graph.target
            edges = graph.edges
            key = (source, target, edges)
            if key in keys:
                continue
            keys.add(key)
            self._graphs.add(graph)
            bucket = by_source.get(source)
            if bucket is None:
                bucket = by_source[source] = set()
            bucket.add(graph)
            bucket = by_target.get(target)
            if bucket is None:
                bucket = by_target[target] = set()
            bucket.add(graph)
            added.append(graph)
            if violation is None and source == target:
                if not any(x == y and dec for x, y, dec in edges):
                    mkey = (edges, edges)
                    squared = memo.get(mkey)
                    if squared is None:
                        squared = memo[mkey] = compose_edges(edges, graph.succ_index())
                    if squared == edges:
                        violation = graph
            for successor in by_source.get(target, ()):
                compositions += 1
                mkey = (edges, successor.edges)
                composed = memo.get(mkey)
                if composed is None:
                    composed = memo[mkey] = compose_edges(edges, successor.succ_index())
                candidate_target = successor.target
                if (source, candidate_target, composed) not in keys:
                    worklist.append(SizeChangeGraph(source, candidate_target, composed))
            for predecessor in by_target.get(source, ()):
                if predecessor is graph:
                    continue
                compositions += 1
                mkey = (predecessor.edges, edges)
                composed = memo.get(mkey)
                if composed is None:
                    composed = memo[mkey] = compose_edges(
                        predecessor.edges, graph.succ_index()
                    )
                candidate_source = predecessor.source
                if (candidate_source, target, composed) not in keys:
                    worklist.append(SizeChangeGraph(candidate_source, target, composed))
        self.compositions_performed += compositions
        return AdditionResult(added=tuple(added), violation=violation)

    def remove(self, graphs: Iterable[SizeChangeGraph]) -> None:
        for graph in graphs:
            if graph in self._graphs:
                self._graphs.discard(graph)
                self._keys.discard((graph.source, graph.target, graph.edges))
                self._by_source.get(graph.source, set()).discard(graph)
                self._by_target.get(graph.target, set()).discard(graph)


# ---------------------------------------------------------------------------
# Recording and replaying traces
# ---------------------------------------------------------------------------


def record_trace(goal: str, config: ProverConfig) -> Trace:
    """The ``add``/``remove`` calls one proof attempt of ``goal`` makes."""
    problem = next(p for p in isaplanner_problems() if p.name == goal)
    trace: Trace = []

    class RecordingClosure(IncrementalClosure):
        def add(self, edge_graph):
            trace.append(edge_graph)
            return super().add(edge_graph)

        def remove(self, graphs):
            trace.append(None)
            super().remove(graphs)

    saved = prover_module.IncrementalClosure
    prover_module.IncrementalClosure = RecordingClosure
    try:
        prover_module.Prover(problem.program, config).prove(
            problem.goal.equation, goal_name=goal
        )
    finally:
        prover_module.IncrementalClosure = saved
    return trace


def replay(closure_class, trace: Sequence[Optional[SizeChangeGraph]]):
    """Run ``trace`` through a fresh closure; returns ``(closure, verdicts, peak)``.

    ``verdicts`` holds one flag per ``add``: did it report a violation?
    ``peak`` is the most graphs the closure held at once.
    """
    closure = closure_class()
    undo: List[Tuple[SizeChangeGraph, ...]] = []
    verdicts: List[bool] = []
    peak = 0
    for step in trace:
        if step is None:
            closure.remove(undo.pop())
        else:
            result = closure.add(step)
            undo.append(result.added)
            verdicts.append(result.violation is not None)
            peak = max(peak, len(closure))
    return closure, verdicts, peak


def _timed_replay(closure_class, trace):
    def run() -> None:
        closure = closure_class()
        undo = []
        for step in trace:
            if step is None:
                closure.remove(undo.pop())
            else:
                undo.append(closure.add(step).added)

    return run


def recorded_traces() -> Dict[str, Trace]:
    return {goal: record_trace(goal, config) for goal, config in TRACE_GOALS}


def run_parity_and_size(traces: Dict[str, Trace]):
    """Verdict sequences, compositions and peak sizes per trace and closure."""
    rows = []
    mismatches: List[str] = []
    for goal, trace in traces.items():
        full, full_verdicts, full_peak = replay(FullClosure, trace)
        kept, kept_verdicts, kept_peak = replay(IncrementalClosure, trace)
        if full_verdicts != kept_verdicts:
            first = next(
                i for i, (a, b) in enumerate(zip(full_verdicts, kept_verdicts)) if a != b
            )
            mismatches.append(f"{goal}: verdicts diverge at add #{first}")
        rows.append(
            (
                goal,
                sum(1 for step in trace if step is not None),
                sum(full_verdicts),
                f"{full.compositions_performed:,} -> {kept.compositions_performed:,}",
                f"{full_peak:,} -> {kept_peak:,}",
                "yes" if full_verdicts == kept_verdicts else "NO",
            )
        )
    table = format_table(
        ("trace", "adds", "violations", "compositions", "peak graphs", "parity"), rows
    )
    return table, mismatches


def run_speedup_benchmark(
    traces: Dict[str, Trace], repeats: int = REPEATS, warmup: int = WARMUP
):
    """Paired, interleaved full-vs-antichain replay time per trace."""
    rows = []
    gated_ci_lower = 0.0
    for goal, trace in traces.items():
        full_sample, kept_sample, ratio_sample = measure_paired(
            _timed_replay(FullClosure, trace),
            _timed_replay(IncrementalClosure, trace),
            repeats=repeats,
            warmup=warmup,
        )
        if goal == SPEEDUP_TRACE:
            gated_ci_lower = ratio_sample.ci_low
        rows.append(
            (
                goal,
                format_sample(full_sample),
                format_sample(kept_sample),
                f"{ratio_sample.mean:.2f}x"
                f" [{ratio_sample.ci_low:.2f}x, {ratio_sample.ci_high:.2f}x]",
            )
        )
    table = format_table(("trace", "full closure", "antichain", "ratio (95% CI)"), rows)
    table += f"\nasserted: {SPEEDUP_TRACE} CI lower >= {REQUIRED_CI_LOWER:.2f}x"
    return table, gated_ci_lower


@pytest.fixture(scope="module")
def traces() -> Dict[str, Trace]:
    return recorded_traces()


def test_closure_verdict_parity(traces):
    """Both closures report the same verdict for every add of every trace."""
    table, mismatches = run_parity_and_size(traces)
    print_report("closure traces: verdict parity, compositions, peak size", table)
    assert not mismatches, "verdicts diverged:\n" + "\n".join(mismatches)


def test_closure_speedup_ci_lower_bound(traces):
    """The antichain replays the prop_49 trace >= 1.5x faster (95% CI lower bound)."""
    table, ci_lower = run_speedup_benchmark(traces)
    print_report("closure replay time: full closure vs antichain", table)
    assert ci_lower >= REQUIRED_CI_LOWER, (
        f"{SPEEDUP_TRACE} paired ratio CI lower bound {ci_lower:.2f}x "
        f"below required {REQUIRED_CI_LOWER:.2f}x"
    )


if __name__ == "__main__":
    recorded = recorded_traces()
    parity_table, mismatches = run_parity_and_size(recorded)
    print_report("closure traces: verdict parity, compositions, peak size", parity_table)
    if mismatches:
        raise SystemExit("parity FAILED:\n" + "\n".join(mismatches))
    speed_table, ci_lower = run_speedup_benchmark(recorded)
    print_report("closure replay time: full closure vs antichain", speed_table)
    if ci_lower < REQUIRED_CI_LOWER:
        raise SystemExit(f"speedup CI lower bound {ci_lower:.2f}x < {REQUIRED_CI_LOWER}x")
