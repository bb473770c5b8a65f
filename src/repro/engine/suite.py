"""Suite orchestration: problems × portfolio → worker pool → :class:`SuiteResult`.

This is the layer behind :func:`repro.harness.runner.run_suite_parallel` and
the ``python -m repro bench`` CLI.  It expands every (unconditional) goal into
one task per portfolio variant, replays anything the persistent store already
knows, races the rest on a :class:`~repro.engine.scheduler.WorkerPool`, and
reassembles a :class:`~repro.harness.runner.SuiteResult` whose records sit in
*input order* with the same statuses the serial runner would produce.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..benchmarks_data.registry import BenchmarkProblem
from ..harness.runner import SolveRecord, SuiteResult
from ..search.config import ProverConfig
from .portfolio import PortfolioVariant, select_winner, single_variant
from .scheduler import DEFAULT_RESOLVER, STATUS_CANCELLED, PoolSession, Spec, Task, WorkerPool
from .store import ResultStore, config_fingerprint

__all__ = ["solve_suite", "goal_store_equation"]

#: Reasons that describe the run environment rather than the goal; outcomes
#: carrying them are never persisted (a crash must not poison a warm store).
_UNSTORABLE_MARKERS = (
    "worker crashed",
    "worker initialisation failed",
    "worker error",
    "unknown problem",
    "no attempt produced an outcome",
    "service shutting down",
    "worker pool closed",
)


def goal_store_equation(goal, hints: Sequence[str] = ()) -> str:
    """The store-identity rendering of a goal's equation.

    Lemma hints change what is provable, so they are part of the store
    identity of an attempt: a hintless outcome must never be replayed for a
    hinted run (or vice versa).  Conditional goals carry their premises for
    the same reason — two goals sharing an equation but differing in
    hypotheses must never alias one store entry.  The proof service computes
    keys with this exact function before dispatching, so its pre-checks and
    this module's replay phase can never disagree.
    """
    equation = str(goal.equation)
    if goal.conditions:
        premises = ", ".join(str(c) for c in goal.conditions)
        equation = premises + " ==> " + equation
    if hints:
        equation = " ; ".join(hints) + " ⊢ " + equation
    return equation


def _storable(outcome: dict) -> bool:
    if outcome.get("status") not in ("proved", "disproved", "failed", "timeout", "out-of-scope"):
        return False
    reason = str(outcome.get("reason", ""))
    return not any(marker in reason for marker in _UNSTORABLE_MARKERS)


class _GoalState:
    """Mutable race state of one goal."""

    __slots__ = (
        "index", "problem", "key", "equation", "hints",
        "outcomes", "arrival", "cached_variants", "uid_to_variant", "decided",
    )

    def __init__(self, index: int, problem: BenchmarkProblem, hints: Tuple[str, ...]):
        self.index = index
        self.problem = problem
        self.key = f"{problem.suite}/{problem.name}"
        self.equation = goal_store_equation(problem.goal, hints)
        self.hints = hints
        self.outcomes: Dict[str, dict] = {}
        self.arrival: List[str] = []
        self.cached_variants: set = set()
        self.uid_to_variant: Dict[int, str] = {}
        self.decided = False


def solve_suite(
    problems: Sequence[BenchmarkProblem],
    config: Optional[ProverConfig] = None,
    suite_name: Optional[str] = None,
    hypotheses: Optional[Dict[str, Sequence[object]]] = None,
    progress: Optional[Callable[[SolveRecord], None]] = None,
    *,
    jobs: Optional[int] = None,
    variants: Optional[Sequence[PortfolioVariant]] = None,
    store: Union[ResultStore, str, None] = None,
    resolver: Optional[Spec] = None,
    worker_hook: Optional[Spec] = None,
    hard_kill_grace: float = 5.0,
    session: Optional[PoolSession] = None,
    trace: str = "",
    trace_parent: str = "",
) -> SuiteResult:
    """Solve a suite on the parallel engine; see :func:`run_suite_parallel`.

    ``hypotheses`` maps problem names to lemma hints given as
    :class:`~repro.core.equations.Equation` objects *or* equation source
    strings — either way they cross the process boundary as source text and
    are re-parsed inside the worker.

    Conditional goals never reach a worker: they are recorded as
    ``out-of-scope`` exactly as in the serial runner.

    ``session`` belongs to a caller-owned pool (the proof service's resident
    one); its own resolver then applies, not ``resolver``.  Without
    one, the batch runs as the single session of a :class:`WorkerPool` of
    ``min(jobs, tasks)`` workers, closed before this function returns or
    raises.  Either way the session is returned on the result as
    ``result.engine`` (worker utilisation and wall time for the report layer).

    ``trace``/``trace_parent`` stamp every dispatched task with the service
    request's trace id and request-span id, so queue, dispatch and worker
    spans land in one correlated trace (empty means untraced — the default
    for direct library use).
    """
    config = config or ProverConfig()
    variant_list: Tuple[PortfolioVariant, ...] = tuple(variants) if variants else single_variant(config)
    variant_order = [v.name for v in variant_list]
    if len(set(variant_order)) != len(variant_order):
        raise ValueError(f"duplicate portfolio variant names: {variant_order}")
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store)

    name = suite_name or (problems[0].suite if problems else "suite")
    result = SuiteResult(suite=name)
    records: List[Optional[SolveRecord]] = [None] * len(problems)

    # Wall-clock spent talking to the result store on behalf of each goal
    # (replay probes + persistence), folded into the record's ``store`` phase.
    store_seconds: Dict[int, float] = {}

    def decide(state: _GoalState, variant: str, outcome: dict) -> None:
        state.decided = True
        record = SolveRecord.from_wire(
            state.problem.name,
            state.problem.suite,
            outcome,
            variant=variant,
            cached=variant in state.cached_variants,
        )
        spent_on_store = store_seconds.get(state.index)
        if spent_on_store:
            record.phase_seconds["store"] = round(spent_on_store, 6)
        records[state.index] = record
        if progress is not None:
            progress(record)

    # -- phase 1: conditional goals and store replay ---------------------------

    program_fps: Dict[int, str] = {}
    config_fps = {v.name: config_fingerprint(v.config) for v in variant_list}
    states: List[_GoalState] = []
    tasks: List[Task] = []
    uid_to_state: Dict[int, _GoalState] = {}
    uid = 0

    # Conditional goals are settled parent-side unless some variant runs the
    # falsifier — refutation is the one verdict the proof system cannot give,
    # and it applies to premised goals too.
    falsify_enabled = any(v.config.falsify_first for v in variant_list)

    for index, problem in enumerate(problems):
        if problem.goal.is_conditional and not falsify_enabled:
            record = SolveRecord.out_of_scope(problem)
            records[index] = record
            if progress is not None:
                progress(record)
            continue
        raw_hints = (hypotheses or {}).get(problem.name, ())
        hints = tuple(h if isinstance(h, str) else str(h) for h in raw_hints)
        state = _GoalState(index, problem, hints)
        states.append(state)
        program_fp = program_fps.setdefault(id(problem.program), problem.program.fingerprint())

        if store is not None:
            probe_started = time.perf_counter()
            for variant in variant_list:
                key = ResultStore.make_key(program_fp, state.key, state.equation, config_fps[variant.name])
                stored = store.get(key)
                if stored is not None:
                    state.outcomes[variant.name] = stored
                    state.cached_variants.add(variant.name)
            store_seconds[index] = store_seconds.get(index, 0.0) + (
                time.perf_counter() - probe_started
            )
            solved_from_store = any(
                o.get("status") in ("proved", "disproved") for o in state.outcomes.values()
            )
            if solved_from_store or len(state.outcomes) == len(variant_list):
                winner, outcome = select_winner(state.outcomes, variant_order)
                decide(state, winner, outcome)
                continue

        for variant in variant_list:
            if variant.name in state.outcomes:
                continue  # replayed from the store; only race what is missing
            task = Task(
                uid=uid,
                index=index,
                suite=problem.suite,
                name=problem.name,
                variant=variant.name,
                config=asdict(variant.config),
                hints=hints,
                program=program_fp,
                trace=trace,
                span=trace_parent,
            )
            tasks.append(task)
            state.uid_to_variant[uid] = variant.name
            uid_to_state[uid] = state
            uid += 1

    # -- phase 2: race the remaining tasks --------------------------------------

    def on_result(task: dict, outcome: dict, cancel: Callable) -> None:
        state = uid_to_state[task["uid"]]
        variant = state.uid_to_variant[task["uid"]]
        state.outcomes[variant] = outcome
        if outcome.get("status") != STATUS_CANCELLED:
            state.arrival.append(variant)
            if store is not None and _storable(outcome):
                put_started = time.perf_counter()
                program_fp = program_fps[id(state.problem.program)]
                key = ResultStore.make_key(
                    program_fp, state.key, state.equation, config_fps[variant]
                )
                payload = dict(outcome)
                payload["variant"] = variant
                store.put(key, payload)
                store_seconds[state.index] = store_seconds.get(state.index, 0.0) + (
                    time.perf_counter() - put_started
                )
        # Both verdicts are decisive: a proof *or* a refutation settles the
        # goal and cancels its portfolio siblings.
        if not state.decided and outcome.get("status") in ("proved", "disproved"):
            decide(state, variant, outcome)
            siblings = [u for u in state.uid_to_variant if u != task["uid"]]
            if siblings:
                cancel(siblings)

    pool = None
    if session is None:
        pool = WorkerPool(
            jobs=max(1, min(jobs or os.cpu_count() or 1, len(tasks))),
            worker_hook=worker_hook,
            hard_kill_grace=hard_kill_grace,
        )
    engine = session if pool is None else pool.session(resolver or DEFAULT_RESOLVER)
    try:
        if tasks:
            engine.run(tasks, on_result=on_result)
    finally:
        if pool is not None:
            pool.close()

    # -- phase 3: settle goals no variant proved --------------------------------

    for state in states:
        if not state.decided:
            winner, outcome = select_winner(state.outcomes, variant_order, state.arrival)
            decide(state, winner, outcome)

    result.records.extend(r for r in records if r is not None)
    result.engine = engine  # worker utilisation / wall time, for the report layer
    result.store = store
    return result
