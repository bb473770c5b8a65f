"""The benchmark harness: run problem suites and collect timing data.

The harness mirrors the paper's evaluation protocol: each problem is attempted
with a fixed configuration and wall-clock budget, conditional problems are
recorded as out of scope, and the results are aggregated into the statistics
reported in Section 6 (number solved, number solved within 100 ms, average time
over solved problems) and into the cumulative solved-vs-time series plotted in
Fig. 7.
"""

from __future__ import annotations

import time
from copy import copy
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..benchmarks_data.registry import BenchmarkProblem
from ..core.equations import Equation
from ..search.config import ProverConfig
from ..search.prover import Prover
from ..search.result import ProofResult

__all__ = [
    "SolveRecord", "SuiteResult", "OUTCOME_FIELDS", "solve_problem",
    "run_suite", "run_suite_parallel", "cumulative_curve",
]


# Field metadata keys.  ``stat`` names the SearchStatistics attribute a field
# copies; ``run`` marks a field that describes one run rather than the outcome,
# so it is never stored (a replay reports its own worker, queue wait, cached).
_STAT = "stat"
_RUN = "run"


def _stat(source: str, default=0):
    """A record field copied from ``SearchStatistics.<source>`` by
    :meth:`SolveRecord.from_attempt`; ``default=dict`` for dict-valued fields."""
    if default is dict:
        return field(default_factory=dict, metadata={_STAT: source})
    return field(default=default, metadata={_STAT: source})


def _run(default):
    return field(default=default, metadata={_RUN: True})


@dataclass
class SolveRecord:
    """The outcome of one benchmark problem — the one outcome schema.

    Records are built from a prover attempt (:meth:`from_attempt`), cross the
    worker boundary and persist in the result store as :meth:`to_wire`
    payloads, and come back through :meth:`from_wire`.  A new counter is one
    field here, tagged with its :class:`SearchStatistics` source via
    ``_stat``; every path picks it up.
    """

    name: str
    suite: str
    status: str
    """``proved``, ``disproved`` (ground counterexample found), ``failed``,
    ``timeout``, or ``out-of-scope`` (conditional goal)."""

    seconds: float = 0.0
    nodes: int = _stat("nodes_created")
    subst_attempts: int = _stat("subst_attempts")
    soundness_violations: int = _stat("soundness_violations")
    normalizer_hits: int = _stat("normalizer_hits")
    normalizer_misses: int = _stat("normalizer_misses")
    reason: str = ""

    strategy: str = _stat("strategy", "")
    """The search strategy that drove the attempt ("" for out-of-scope goals)."""

    max_agenda_size: int = _stat("max_agenda_size")
    """High-water mark of the prover's frame agenda (old call-stack depth)."""

    choice_points: int = _stat("choice_points_expanded")
    """Choice points expanded by the agenda core during the attempt."""

    worker: int = _run(-1)
    """The parallel-engine worker slot that produced the record (-1: serial)."""

    variant: str = ""
    """The portfolio variant that produced the record ("" for the serial path)."""

    cached: bool = _run(False)
    """Was the outcome replayed from a persistent result store?"""

    certificate: Optional[dict] = None
    """Portable proof certificate in primitive-dict form, when the run was
    configured with ``emit_proofs`` and the goal was proved.  Decode with
    :func:`repro.proofs.certificate.decode`; independently re-check with
    :func:`repro.proofs.checker.check_certificate` or ``python -m repro check``."""

    certificate_seconds: float = _stat("certificate_seconds", 0.0)
    """Wall-clock cost of encoding the certificate (0 when none was emitted)."""

    counterexample: Optional[dict] = None
    """Replayable refutation in primitive-dict form, when the goal was
    ``disproved``.  Decode with
    :meth:`repro.semantics.falsify.Counterexample.from_dict`; re-check
    independently with :meth:`~repro.semantics.falsify.Counterexample.replay`."""

    falsify_seconds: float = _stat("falsification_seconds", 0.0)
    """Wall-clock cost of ground testing (0 when ``falsify_first`` was off)."""

    compile_seconds: float = _stat("compile_seconds", 0.0)
    """Wall-clock cost of compiling per-symbol match trees observed by the
    attempt's normaliser (0 when ``compile_rules`` was off or everything was
    already compiled)."""

    compiled_steps: int = _stat("compiled_steps")
    """Root rewrite steps dispatched through compiled match trees."""

    fallback_steps: int = _stat("fallback_steps")
    """Root rewrite steps that fell back to generic matching (declined heads)."""

    hot_symbols: Dict[str, int] = _stat("rewrite_head_counts", dict)
    """Rewrite steps per head symbol under compiled dispatch — the attempt's
    hottest functions (trimmed to the top few when crossing the wire)."""

    hints_offered: int = _stat("hints_offered")
    """Lemma hypotheses supplied to the attempt (library lemmas, human hints)."""

    hint_steps: int = _stat("hint_steps")
    """(Subst) steps of the final proof that instantiated a supplied hint
    (0 for failures and for proofs that never touched their hints)."""

    queued_seconds: float = _run(0.0)
    """Wall-clock the goal waited between entering the engine's queue and
    dispatch to a worker — the scheduling share of client-observed latency
    (0 for store replays, the serial runner, and records predating the field).
    """

    phase_seconds: Dict[str, float] = _stat("phase_seconds", dict)
    """Exclusive wall-clock seconds per pipeline phase (``soundness`` /
    ``normalise`` / ``match`` / … — see :mod:`repro.search.phases`), feeding
    ``phase_profile_table`` and ``python -m repro profile``.  Empty on records
    replayed from store lines that predate the field."""

    phase_counts: Dict[str, int] = _stat("phase_counts", dict)
    """Hot-callsite counters: entries per phase, alongside
    :attr:`phase_seconds`."""

    closure_compositions: int = _stat("closure_compositions")
    """Size-change graph compositions the attempt's closure performed (0 for
    records replayed from store lines that predate the field)."""

    @classmethod
    def out_of_scope(cls, problem: BenchmarkProblem) -> "SolveRecord":
        """A conditional goal the prover does not attempt."""
        return cls(problem.name, problem.suite, "out-of-scope", reason="conditional goal")

    @classmethod
    def from_attempt(
        cls, problem: BenchmarkProblem, outcome: ProofResult, seconds: float
    ) -> "SolveRecord":
        """The record of one prover attempt taking ``seconds`` of wall clock."""
        stats = outcome.statistics
        if outcome.proved:
            status = "proved"
        elif outcome.disproved:
            status = "disproved"
        elif problem.goal.is_conditional:
            # Attempted only for the falsifier, which found no counterexample.
            status = "out-of-scope"
        elif stats.timed_out:
            status = "timeout"
        else:
            status = "failed"
        counters = {f.name: copy(getattr(stats, f.metadata[_STAT])) for f in _STAT_FIELDS}
        return cls(
            problem.name,
            problem.suite,
            status,
            seconds=seconds,
            reason=outcome.reason,
            # Primitive data by construction: safe to cross process boundaries.
            certificate=None if outcome.certificate is None else outcome.certificate.to_dict(),
            counterexample=(
                None if outcome.counterexample is None else outcome.counterexample.to_dict()
            ),
            **counters,
        )

    def to_wire(self) -> dict:
        """The record as a primitive payload (worker outcome, store line).

        The goal identity travels beside the payload, and fields holding their
        default are left out.  Only the hottest rewrite heads are kept (the
        report ranks a handful of symbols, not the signature), and phase totals
        are rounded to microseconds to keep store lines compact.
        """
        wire = {}
        for f in _WIRE_FIELDS:
            value = getattr(self, f.name)
            if value != _DEFAULTS[f.name]:
                wire[f.name] = value
        if self.hot_symbols:
            hottest = sorted(self.hot_symbols.items(), key=lambda item: -item[1])[:8]
            wire["hot_symbols"] = dict(hottest)
        if self.phase_seconds:
            wire["phase_seconds"] = {
                phase: round(total, 6) for phase, total in self.phase_seconds.items()
            }
        return wire

    @classmethod
    def from_wire(cls, name: str, suite: str, wire: dict, **provenance) -> "SolveRecord":
        """Rebuild a record from a :meth:`to_wire` payload or a store line.

        Absent (or null) fields take their defaults, present ones are coerced
        to their field's type, and ``provenance`` (``variant``, ``cached``)
        overrides the payload.
        """
        values = {}
        for f in _WIRE_FIELDS:
            value = wire.get(f.name)
            if value is not None:
                values[f.name] = _COERCE[f.name](value)
        values.setdefault("status", "failed")
        values.update(provenance)
        return cls(name, suite, **values)

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    @property
    def disproved(self) -> bool:
        return self.status == "disproved"

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


_WIRE_FIELDS = tuple(f for f in fields(SolveRecord) if f.name not in ("name", "suite"))
_STAT_FIELDS = tuple(f for f in _WIRE_FIELDS if _STAT in f.metadata)
_DEFAULTS = {
    f.name: f.default_factory() if f.default_factory is not MISSING else f.default
    for f in _WIRE_FIELDS
}


def _coercion(default):
    if default is None:  # certificate / counterexample: JSON payloads, kept as they are
        return lambda value: value
    return str if default is MISSING else type(default)  # ``status`` has no default


_COERCE = {name: _coercion(default) for name, default in _DEFAULTS.items()}

OUTCOME_FIELDS: Tuple[str, ...] = tuple(f.name for f in _WIRE_FIELDS if _RUN not in f.metadata)
"""The fields a result-store line persists per entry."""


@dataclass
class SuiteResult:
    """Aggregated results of a suite run."""

    suite: str
    records: List[SolveRecord] = field(default_factory=list)

    # -- aggregate views ----------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def solved(self) -> List[SolveRecord]:
        return [r for r in self.records if r.proved]

    @property
    def disproved(self) -> List[SolveRecord]:
        return [r for r in self.records if r.disproved]

    @property
    def out_of_scope(self) -> List[SolveRecord]:
        return [r for r in self.records if r.status == "out-of-scope"]

    @property
    def failed(self) -> List[SolveRecord]:
        return [r for r in self.records if r.status in ("failed", "timeout")]

    @property
    def timed_out(self) -> List[SolveRecord]:
        return [r for r in self.records if r.status == "timeout"]

    def solved_within(self, milliseconds: float) -> List[SolveRecord]:
        """Solved problems whose solve time is within the given bound."""
        return [r for r in self.solved if r.milliseconds <= milliseconds]

    def average_solved_ms(self) -> float:
        """Average solve time over the solved problems (ms), 0 when none solved."""
        solved = self.solved
        if not solved:
            return 0.0
        return sum(r.milliseconds for r in solved) / len(solved)

    def record(self, name: str) -> SolveRecord:
        """Look up the record of one problem (amortised O(1))."""
        index = getattr(self, "_record_index", None)
        if index is None or getattr(self, "_record_index_size", -1) != len(self.records):
            index = {r.name: r for r in self.records}
            object.__setattr__(self, "_record_index", index)
            object.__setattr__(self, "_record_index_size", len(self.records))
        try:
            return index[name]
        except KeyError:
            raise KeyError(name) from None

    def summary(self) -> Dict[str, object]:
        """The headline numbers of the suite run."""
        return {
            "suite": self.suite,
            "total": self.total,
            "solved": len(self.solved),
            "disproved": len(self.disproved),
            "out_of_scope": len(self.out_of_scope),
            "failed": len(self.failed),
            "timeout": len(self.timed_out),
            "solved_under_100ms": len(self.solved_within(100.0)),
            "average_solved_ms": round(self.average_solved_ms(), 2),
        }


def solve_problem(
    prover: Prover, problem: BenchmarkProblem, hints: Sequence[Equation] = ()
) -> SolveRecord:
    """Attempt one problem: the single attempt path of the serial runner and
    of every engine worker."""
    if problem.goal.is_conditional and not prover.config.falsify_first:
        return SolveRecord.out_of_scope(problem)
    started = time.perf_counter()
    if problem.goal.is_conditional:
        # Conditional goals reach the prover only for the falsifier:
        # ``prove_goal`` tests the premised goal and otherwise reports it out
        # of scope.
        outcome = prover.prove_goal(problem.goal)
    else:
        outcome = prover.prove(
            problem.goal.equation, goal_name=problem.name, hypotheses=tuple(hints)
        )
    return SolveRecord.from_attempt(problem, outcome, time.perf_counter() - started)


def run_suite(
    problems: Sequence[BenchmarkProblem],
    config: Optional[ProverConfig] = None,
    suite_name: Optional[str] = None,
    hypotheses: Optional[Dict[str, Sequence[Equation]]] = None,
    progress: Optional[Callable[[SolveRecord], None]] = None,
) -> SuiteResult:
    """Run the prover over a sequence of benchmark problems.

    ``hypotheses`` optionally maps problem names to hint lemmas (used by the
    hinted-properties experiment).  ``progress`` is an optional callback
    invoked after each problem (used by the example scripts to print progress).
    """
    config = config or ProverConfig()
    name = suite_name or (problems[0].suite if problems else "suite")
    result = SuiteResult(suite=name)
    # The prover cache is keyed by the program's *stable* fingerprint, not by
    # ``id()``: two structurally identical programs (e.g. rebuilt by different
    # callers, or resurrected by a different process) share one prover.
    provers: Dict[str, Prover] = {}
    for problem in problems:
        fingerprint = problem.program.fingerprint()
        prover = provers.get(fingerprint)
        if prover is None:
            prover = provers[fingerprint] = Prover(problem.program, config)
        hints = hypotheses.get(problem.name, ()) if hypotheses else ()
        record = solve_problem(prover, problem, hints)
        result.records.append(record)
        if progress is not None:
            progress(record)
    return result


def run_suite_parallel(
    problems: Sequence[BenchmarkProblem],
    config: Optional[ProverConfig] = None,
    suite_name: Optional[str] = None,
    hypotheses: Optional[Dict[str, Sequence[Equation]]] = None,
    progress: Optional[Callable[[SolveRecord], None]] = None,
    *,
    jobs: Optional[int] = None,
    variants=None,
    store=None,
    resolver=None,
    worker_hook=None,
    hard_kill_grace: float = 5.0,
) -> SuiteResult:
    """Run a suite on the multiprocess proof engine (see :mod:`repro.engine`).

    The returned :class:`SuiteResult` carries records in *input order* and the
    per-problem statuses of the serial :func:`run_suite` — only timing (and the
    ``worker``/``variant``/``cached`` provenance fields) differ.

    ``jobs`` is the worker-pool size (default: the CPU count).  ``variants`` is
    an optional sequence of :class:`repro.engine.PortfolioVariant` raced per
    goal (first proof wins).  ``store`` is a path or
    :class:`repro.engine.ResultStore` memoising outcomes across runs.
    ``resolver`` and ``worker_hook`` are advanced hooks documented on
    :func:`repro.engine.suite.solve_suite`.
    """
    from ..engine.suite import solve_suite  # local import: engine builds on the harness

    return solve_suite(
        problems,
        config=config,
        suite_name=suite_name,
        hypotheses=hypotheses,
        progress=progress,
        jobs=jobs,
        variants=variants,
        store=store,
        resolver=resolver,
        worker_hook=worker_hook,
        hard_kill_grace=hard_kill_grace,
    )


def cumulative_curve(result: SuiteResult) -> List[Tuple[float, int]]:
    """The Fig. 7 series: (time in ms, number of problems solved within that time).

    The series contains one point per solved problem, sorted by solve time, so
    plotting it directly reproduces the cumulative staircase of the paper.
    """
    times = sorted(r.milliseconds for r in result.solved)
    return [(t, i + 1) for i, t in enumerate(times)]
