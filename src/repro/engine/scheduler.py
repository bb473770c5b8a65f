"""Multiprocess job scheduler: shard proof attempts across a worker pool.

The paper's evaluation is embarrassingly parallel — every goal is attempted
independently under a wall-clock budget — so the scheduler's job is purely
throughput and robustness:

* **Sharding.**  ``jobs`` worker processes each hold one task at a time; the
  parent dispatches demand-driven (a task leaves the pending deque only when a
  worker is idle), so cancellation and deadlines stay entirely in the parent.
* **Crash isolation.**  A worker dying on one goal (segfault, ``os._exit``,
  OOM kill) is detected by liveness polling; the goal in flight is recorded as
  failed with the exit code in the reason, the worker is respawned, and the
  rest of the batch proceeds.
* **Per-goal deadlines.**  The prover enforces its own monotonic deadline
  in-process (``ProverConfig.timeout``); the parent backs it with a *hard*
  deadline (timeout + grace) after which a hung worker is killed and the goal
  recorded as a timeout.

Tasks carry only primitives (strings, numbers, dicts) across process
boundaries: a worker never unpickles a term.  Problems are re-resolved inside
each worker by a *resolver* — by default the benchmark registry
(:data:`DEFAULT_RESOLVER`) — so hash-consed terms stay within the bank of the
process that built them.  Lemma hints travel as equation *source text* and are
re-parsed against the worker's own program.
"""

from __future__ import annotations

import importlib
import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs.trace import event_record, get_tracer, mint_span_id, span_record
from ..search.config import ProverConfig
from ..search.phases import phase_intervals

__all__ = [
    "Task",
    "Scheduler",
    "WorkerPool",
    "PoolSession",
    "DEFAULT_RESOLVER",
    "load_spec",
    "solve_task",
    "STATUS_CANCELLED",
    "STATUS_REJECTED",
]

DEFAULT_RESOLVER = "repro.benchmarks_data.registry:all_problems"
"""The default problem resolver: every problem of every built-in suite."""

STATUS_CANCELLED = "cancelled"
"""Internal status of a task skipped because a portfolio sibling already won."""

STATUS_REJECTED = "rejected"
"""Status of a goal refused before dispatch (e.g. a per-client budget)."""

Spec = Union[str, Callable]
"""A callable, or a ``"module:attribute"`` string importable in a worker."""


def load_spec(spec: Optional[Spec]):
    """Resolve a :data:`Spec` to a callable (``None`` passes through)."""
    if spec is None or callable(spec):
        return spec
    module_name, _, attribute = str(spec).partition(":")
    if not module_name or not attribute:
        raise ValueError(f"spec must look like 'module:attribute', got {spec!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


@dataclass(frozen=True)
class Task:
    """One unit of work: attempt one goal under one configuration."""

    uid: int
    """Unique id of the task within one scheduler run."""

    index: int
    """Position of the goal in the input problem sequence."""

    suite: str
    name: str

    variant: str
    """Name of the portfolio variant this attempt belongs to."""

    config: Dict[str, object]
    """``dataclasses.asdict`` of the :class:`ProverConfig` to run under."""

    hints: Tuple[str, ...] = ()
    """Lemma hints as equation source text, parsed inside the worker."""

    program: str = ""
    """Fingerprint of the program the caller expects the resolver to rebuild.

    Empty disables the check (direct scheduler users without a program in
    hand); when set, a worker whose resolver produced a *different* program
    for ``suite/name`` fails the task instead of silently solving — and
    persisting — an outcome for the wrong program.
    """

    trace: str = ""
    """Trace id of the service request this task belongs to ("" untraced).

    Travels across the worker boundary as a plain string so the worker's own
    spans (``worker-solve`` and its phase children) join the request's trace.
    """

    span: str = ""
    """Parent span id (the request span) for spans derived from this task."""

    @property
    def key(self) -> str:
        """The goal identity ``suite/name``."""
        return f"{self.suite}/{self.name}"

    def to_wire(self) -> dict:
        """The primitive payload sent over the task queue."""
        return {
            "uid": self.uid,
            "index": self.index,
            "suite": self.suite,
            "name": self.name,
            "key": self.key,
            "variant": self.variant,
            "config": dict(self.config),
            "hints": tuple(self.hints),
            "program": self.program,
            "trace": self.trace,
            "span": self.span,
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def solve_task(problem, task: dict, hook: Optional[Callable] = None) -> dict:
    """Attempt one task in the current process; returns a primitive outcome.

    Used by the worker loop, and directly by the serial fallback paths (it is
    deliberately free of any multiprocessing machinery).
    """
    from ..search.prover import Prover  # deferred: keep worker import cost low

    if problem is None:
        return {
            "status": "failed",
            "reason": f"unknown problem {task['key']}: not produced by the resolver",
        }
    expected_program = task.get("program", "")
    if expected_program and problem.program.fingerprint() != expected_program:
        return {
            "status": "failed",
            "reason": (
                f"resolver produced a different program for {task['key']} "
                "(fingerprint mismatch); pass a resolver matching the input problems"
            ),
        }
    if hook is not None:
        hook(task)  # test seam: may raise, hang, or kill the process
    config = ProverConfig(**task["config"])
    if problem.goal.is_conditional and not config.falsify_first:
        return {"status": "out-of-scope", "reason": "conditional goal"}
    hints = []
    for source in task.get("hints", ()):
        try:
            hints.append(problem.program.parse_equation(source))
        except Exception as error:
            return {"status": "failed", "reason": f"unparsable hint {source!r}: {error}"}
    prover = Prover(problem.program, config)
    started = time.perf_counter()
    if problem.goal.is_conditional:
        # Reaches the worker only under falsify_first: the goal can be
        # disproved (premises included) even though it cannot be proved.
        outcome = prover.prove_goal(problem.goal)
    else:
        outcome = prover.prove(
            problem.goal.equation, goal_name=problem.name, hypotheses=tuple(hints)
        )
    elapsed = time.perf_counter() - started
    stats = outcome.statistics
    if outcome.proved:
        status = "proved"
    elif outcome.disproved:
        status = "disproved"
    elif problem.goal.is_conditional:
        status = "out-of-scope"
    elif stats.timed_out:
        status = "timeout"
    else:
        status = "failed"
    wire = {
        "status": status,
        "seconds": elapsed,
        "nodes": stats.nodes_created,
        "subst_attempts": stats.subst_attempts,
        "soundness_violations": stats.soundness_violations,
        "normalizer_hits": stats.normalizer_hits,
        "normalizer_misses": stats.normalizer_misses,
        "reason": outcome.reason,
        "strategy": stats.strategy,
        "max_agenda_size": stats.max_agenda_size,
        "choice_points": stats.choice_points_expanded,
    }
    if outcome.certificate is not None:
        # Certificates are primitive data by construction, so they are the one
        # representation of a proof that may cross the process boundary — the
        # terms themselves stay in the worker's bank.
        wire["certificate"] = outcome.certificate.to_dict()
        wire["certificate_seconds"] = stats.certificate_seconds
    if outcome.counterexample is not None:
        # Counterexamples are primitive data too — the refutation analogue of
        # a certificate, replayable in any process holding the program.
        wire["counterexample"] = outcome.counterexample.to_dict()
    if stats.falsification_seconds:
        wire["falsify_seconds"] = stats.falsification_seconds
    if stats.hints_offered:
        wire["hints_offered"] = stats.hints_offered
        wire["hint_steps"] = stats.hint_steps
    if stats.compiled_steps or stats.fallback_steps:
        wire["compiled_steps"] = stats.compiled_steps
        wire["fallback_steps"] = stats.fallback_steps
        if stats.compile_seconds:
            wire["compile_seconds"] = stats.compile_seconds
        if stats.rewrite_head_counts:
            # Only the hottest heads cross the wire: the table consumer ranks
            # a handful of symbols, not the whole signature.
            hottest = sorted(
                stats.rewrite_head_counts.items(), key=lambda item: -item[1]
            )[:8]
            wire["hot_symbols"] = dict(hottest)
    if stats.phase_seconds:
        # Phase totals are microsecond-resolution floats; rounding keeps the
        # JSONL store lines compact without losing anything a profile reads.
        wire["phase_seconds"] = {
            phase: round(total, 6) for phase, total in stats.phase_seconds.items()
        }
        wire["phase_counts"] = dict(stats.phase_counts)
    if stats.closure_compositions:
        wire["closure_compositions"] = stats.closure_compositions
    trace_id = str(task.get("trace") or "")
    if trace_id:
        # Spans cross the process boundary the same way everything else does:
        # as primitive dicts inside the outcome wire.  The parent side pops
        # ``spans`` and forwards them to its tracer; ``store.put`` copies only
        # ``OUTCOME_FIELDS``, so spans can never leak into the result store.
        wall_end = time.time()
        wall_start = wall_end - elapsed
        solve_span = mint_span_id()
        spans = [
            span_record(
                "worker-solve",
                trace_id,
                span=solve_span,
                parent=str(task.get("dispatch_span") or task.get("span") or ""),
                start=wall_start,
                end=wall_end,
                attrs={
                    "goal": task["key"],
                    "variant": task.get("variant", ""),
                    "status": status,
                },
            )
        ]
        for phase, phase_start, phase_end in phase_intervals(
            stats.phase_seconds, wall_start
        ):
            spans.append(
                span_record(
                    f"phase:{phase}",
                    trace_id,
                    parent=solve_span,
                    start=phase_start,
                    end=phase_end,
                    attrs={"aggregate": True},
                )
            )
        wire["spans"] = spans
    return wire


def _worker_main(slot: int, resolver_spec: Spec, hook_spec: Optional[Spec], task_queue, result_queue) -> None:
    """The worker process loop: resolve problems once, then solve until sentinel."""
    problems: Dict[str, object] = {}
    hook: Optional[Callable] = None
    init_error = ""
    try:
        resolver = load_spec(resolver_spec)
        problems = {f"{p.suite}/{p.name}": p for p in resolver()}
        hook = load_spec(hook_spec)
    except Exception as error:  # noqa: BLE001 - reported per task below
        init_error = f"worker initialisation failed: {error!r}"
    while True:
        task = task_queue.get()
        if task is None:
            break
        if init_error:
            outcome = {"status": "failed", "reason": init_error}
        else:
            try:
                outcome = solve_task(problems.get(task["key"]), task, hook)
            except Exception as error:  # noqa: BLE001 - a bad goal must not kill the worker
                outcome = {"status": "failed", "reason": f"worker error: {error!r}"}
        result_queue.put((slot, task["uid"], outcome))


_POOL_THEORY_CAPACITY = 8
"""How many elaborated theories a pool worker keeps warm (LRU beyond that)."""


class _WorkerTheories:
    """Worker-side LRU of elaborated theories, one :class:`TermBank` each.

    A pool worker outlives any single request, so it cannot bake one resolver
    in at spawn the way :func:`_worker_main` does.  Instead each task carries
    its resolver spec and the worker elaborates on first use, caching the
    resulting bank + program + problems under the spec's *base key* (theory
    identity without per-request conjectures).  Keeping each theory in a
    private bank means eviction actually frees its terms, and solving under
    ``use_bank(entry bank)`` preserves the invariant that all terms of one
    attempt come from one bank.
    """

    def __init__(self, capacity: int = _POOL_THEORY_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def entry_for(self, spec) -> dict:
        from ..core.interning import TermBank, use_bank  # deferred: worker import cost

        key = getattr(spec, "base_key", None)
        if key is None:
            key = spec if isinstance(spec, str) else repr(spec)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        bank = TermBank(f"pool:{key[:16]}")
        elaborate = getattr(spec, "elaborate", None)
        with use_bank(bank):
            if elaborate is not None:
                program, problems = elaborate()
            else:
                resolver = load_spec(spec)
                problems = {f"{p.suite}/{p.name}": p for p in resolver()}
                program = None
        entry = {"bank": bank, "program": program, "problems": dict(problems), "extra": {}}
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def problem_for(self, spec, entry: dict, task: dict):
        """The problem for ``task``, with per-request conjectures parsed on demand.

        Conjectures are *not* part of the cached theory (their equations vary
        per request), so a resolver that carries ``extra_goals`` gets them
        parsed against the cached program here — re-parsed only when the
        equation source for that name actually changed.  A conjecture shadows
        a declared goal of the same name, matching the resolver's own
        precedence.
        """
        from ..core.interning import use_bank

        for name, equation_source in getattr(spec, "extra_goals", ()) or ():
            if name != task["name"]:
                continue
            cached = entry["extra"].get(name)
            if cached is not None and cached[0] == equation_source:
                return cached[1]
            with use_bank(entry["bank"]):
                problem = spec.problem_for(entry["program"], name, equation_source)
            entry["extra"][name] = (equation_source, problem)
            return problem
        return entry["problems"].get(task["key"])


def _pool_worker_main(slot: int, resolver_spec: Spec, hook_spec: Optional[Spec], task_queue, result_queue) -> None:
    """The shared-pool worker loop: resolve theories on demand, reuse across tasks.

    Same wire protocol as :func:`_worker_main`, but the theory is not fixed at
    spawn: each task names its resolver (``task["resolver"]``, falling back to
    ``resolver_spec``), and elaborated theories persist in a
    :class:`_WorkerTheories` cache across tasks — and across *requests*, which
    is where the warm pool's latency win comes from.
    """
    theories = _WorkerTheories()
    hook: Optional[Callable] = None
    init_error = ""
    try:
        hook = load_spec(hook_spec)
    except Exception as error:  # noqa: BLE001 - reported per task below
        init_error = f"worker initialisation failed: {error!r}"
    from ..core.interning import use_bank

    while True:
        task = task_queue.get()
        if task is None:
            break
        if init_error:
            outcome = {"status": "failed", "reason": init_error}
        else:
            try:
                spec = task.get("resolver") or resolver_spec or DEFAULT_RESOLVER
                entry = theories.entry_for(spec)
                problem = theories.problem_for(spec, entry, task)
                with use_bank(entry["bank"]):
                    outcome = solve_task(problem, task, hook)
            except Exception as error:  # noqa: BLE001 - a bad goal must not kill the worker
                outcome = {"status": "failed", "reason": f"worker error: {error!r}"}
        result_queue.put((slot, task["uid"], outcome))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _WorkerSlot:
    """One slot of the pool: a live process, its queues, and bookkeeping.

    Each slot owns a *private* pair of queues.  Sharing one result queue
    across the pool would let a crashing worker corrupt it for everyone: a
    process that dies while its queue feeder thread holds the shared write
    lock leaves that lock held forever, silently blocking every other
    worker's results.  With per-slot queues a dying worker can only break its
    own channel, which is thrown away when the slot respawns.
    """

    def __init__(
        self,
        slot: int,
        context,
        resolver_spec: Spec,
        hook_spec: Optional[Spec],
        main: Callable = None,
    ):
        self.slot = slot
        self.context = context
        self.resolver_spec = resolver_spec
        self.hook_spec = hook_spec
        self.main = main or _worker_main
        self.current: Optional[dict] = None
        self.started_at = 0.0
        self.tasks_done = 0
        self.respawns = 0
        self.process = None
        self.task_queue = None
        self.result_queue = None
        self._start()

    def _start(self) -> None:
        self.task_queue = self.context.Queue()
        self.result_queue = self.context.Queue()
        self.process = self.context.Process(
            target=self.main,
            args=(self.slot, self.resolver_spec, self.hook_spec, self.task_queue, self.result_queue),
            daemon=True,
            name=f"repro-engine-worker-{self.slot}",
        )
        self.process.start()

    def poll(self) -> Optional[Tuple[int, int, dict]]:
        """A pending result of this slot, or ``None`` (never blocks)."""
        try:
            return self.result_queue.get_nowait()
        except queue_module.Empty:
            return None
        except (OSError, ValueError):  # pragma: no cover - queue torn down
            return None

    @property
    def idle(self) -> bool:
        return self.current is None

    def submit(self, task: dict) -> None:
        assert self.current is None
        self.current = task
        self.started_at = time.monotonic()
        self.task_queue.put(task)

    def finish(self) -> None:
        self.current = None
        self.tasks_done += 1

    def respawn(self) -> None:
        """Replace a dead or killed process with a fresh one (fresh queues too)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=5.0)
        self._discard_queues()
        self.current = None
        self.respawns += 1
        self._start()

    def _discard_queues(self) -> None:
        # The old queues may be corrupt (that is why we are respawning); never
        # block on their feeder threads.
        for q in (self.task_queue, self.result_queue):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - already broken
                pass

    def kill(self) -> None:
        """Terminate the process *without* a replacement (the shutdown path)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=2.0)
        self._discard_queues()
        self.current = None

    def stop(self) -> None:
        try:
            self.task_queue.put(None)
        except Exception:  # pragma: no cover - queue already broken
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self._discard_queues()


class Scheduler:
    """Shard tasks over a pool of worker processes.

    ``jobs``
        Pool size; defaults to the CPU count.
    ``resolver``
        How workers obtain their problems (:data:`Spec` returning an iterable
        of :class:`~repro.benchmarks_data.registry.BenchmarkProblem`).
    ``worker_hook``
        Optional :data:`Spec` invoked on every task inside the worker before
        solving — the crash-injection seam used by the tests.
    ``hard_kill_grace``
        Extra seconds past a task's in-process timeout before the parent
        terminates a (presumably hung) worker.
    ``start_method``
        ``multiprocessing`` start method; defaults to ``fork`` when available
        (cheap on Linux — workers inherit already-imported modules) and the
        platform default otherwise.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        resolver: Spec = DEFAULT_RESOLVER,
        worker_hook: Optional[Spec] = None,
        hard_kill_grace: float = 5.0,
        start_method: Optional[str] = None,
        tracer=None,
    ):
        self.jobs = max(1, int(jobs) if jobs else (os.cpu_count() or 1))
        self.resolver = resolver
        self.worker_hook = worker_hook
        self.hard_kill_grace = max(0.5, float(hard_kill_grace))
        #: Where queue/dispatch spans of traced tasks go; the proof service
        #: injects its own per-daemon tracer, everyone else gets the ring.
        self.tracer = tracer if tracer is not None else get_tracer()
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.context = multiprocessing.get_context(start_method)
        #: per-slot utilisation of the last run: {slot: {"tasks", "busy_seconds", "respawns"}}
        self.worker_stats: Dict[int, Dict[str, float]] = {}
        #: wall-clock duration of the last run
        self.wall_seconds = 0.0
        self._shutdown = False
        self._shutdown_at = 0.0
        self._shutdown_grace = 0.0

    # -- graceful shutdown ---------------------------------------------------------

    def request_shutdown(self, grace: Optional[float] = None) -> None:
        """Ask the run loop to drain: finish what is in flight, start nothing new.

        Safe to call from another thread (the daemon's signal handler) while
        :meth:`run` executes.  Pending tasks are failed immediately with a
        "shutting down" reason (which :mod:`repro.engine.suite` treats as
        unstorable); goals already on a worker get ``grace`` extra seconds
        (default: ``hard_kill_grace``) to finish normally before the worker is
        killed — killed, not respawned, so shutdown never spawns a process.
        The flag is sticky: every later :meth:`run` on this scheduler drains
        too, which is what a tearing-down daemon wants.
        """
        self._shutdown_grace = self.hard_kill_grace if grace is None else max(0.0, float(grace))
        self._shutdown_at = time.monotonic()
        self._shutdown = True

    @property
    def shutting_down(self) -> bool:
        return self._shutdown

    # -- deadline policy ---------------------------------------------------------

    def _hard_deadline(self, task: dict, started_at: float) -> Optional[float]:
        timeout = task.get("config", {}).get("timeout")
        if timeout is None:
            return None
        return started_at + float(timeout) + self.hard_kill_grace

    # -- the run loop --------------------------------------------------------------

    def run(
        self,
        tasks: Iterable[Union[Task, dict]],
        on_result: Optional[Callable[[dict, dict, Callable[[Iterable[int]], None]], None]] = None,
    ) -> Dict[int, dict]:
        """Execute every task; returns ``{uid: outcome dict}``.

        Outcomes gain a ``"worker"`` key (the slot that solved them, ``-1``
        for tasks cancelled before dispatch).  ``on_result(task, outcome,
        cancel)`` is invoked in completion order; calling ``cancel(uids)``
        marks still-pending tasks as :data:`STATUS_CANCELLED` without
        dispatching them (in-flight tasks run to completion — their outcome is
        still reported, the caller decides whether to use it).
        """
        started_run = time.monotonic()
        wire: List[dict] = [t.to_wire() if isinstance(t, Task) else dict(t) for t in tasks]
        results: Dict[int, dict] = {}
        cancelled: set = set()
        # Queue-wait attribution: every task is enqueued right here, so one
        # anchor pair serves the whole batch; dispatch moments are recorded
        # per uid as (monotonic, wall) when a worker accepts the task.
        enqueued_mono = time.monotonic()
        enqueued_wall = time.time()
        dispatched_at: Dict[int, Tuple[float, float]] = {}

        def cancel(uids: Iterable[int]) -> None:
            cancelled.update(uids)

        def finish(task: dict, outcome: dict, worker: int) -> None:
            outcome = dict(outcome)
            outcome["worker"] = worker
            spans = outcome.pop("spans", None)
            dispatch = dispatched_at.get(task["uid"])
            outcome.setdefault(
                "queued_seconds",
                round((dispatch[0] if dispatch else time.monotonic()) - enqueued_mono, 6),
            )
            trace_id = str(task.get("trace") or "")
            if trace_id:
                now_wall = time.time()
                queue_span = mint_span_id()
                self.tracer.emit(
                    span_record(
                        "queue",
                        trace_id,
                        span=queue_span,
                        parent=str(task.get("span") or ""),
                        start=enqueued_wall,
                        end=dispatch[1] if dispatch else now_wall,
                        attrs={"goal": task["key"], "dispatched": dispatch is not None},
                    )
                )
                if dispatch is not None:
                    self.tracer.emit(
                        span_record(
                            "pool-dispatch",
                            trace_id,
                            span=str(task.get("dispatch_span") or ""),
                            parent=queue_span,
                            start=dispatch[1],
                            end=now_wall,
                            attrs={
                                "goal": task["key"],
                                "worker": worker,
                                "status": str(outcome.get("status") or ""),
                            },
                        )
                    )
                if spans:
                    self.tracer.emit_all(spans)
            results[task["uid"]] = outcome
            if on_result is not None:
                on_result(task, outcome, cancel)

        if not wire:
            self.worker_stats = {}
            self.wall_seconds = time.monotonic() - started_run
            return results

        pending = deque(wire)
        pool = [
            _WorkerSlot(slot, self.context, self.resolver, self.worker_hook)
            for slot in range(min(self.jobs, len(wire)))
        ]
        busy_seconds = {worker.slot: 0.0 for worker in pool}
        try:
            while pending or any(not worker.idle for worker in pool):
                # 0. Shutdown drain: everything not yet dispatched fails fast.
                if self._shutdown:
                    while pending:
                        task = pending.popleft()
                        finish(
                            task,
                            {
                                "status": "failed",
                                "reason": "service shutting down: task abandoned before dispatch",
                            },
                            worker=-1,
                        )

                # 1. Keep every idle worker fed (skipping cancelled tasks).
                for worker in pool:
                    if not worker.idle:
                        continue
                    while pending:
                        task = pending.popleft()
                        if task["uid"] in cancelled:
                            finish(
                                task,
                                {
                                    "status": STATUS_CANCELLED,
                                    "reason": "a portfolio sibling already proved the goal",
                                },
                                worker=-1,
                            )
                            continue
                        if task.get("trace") and not task.get("dispatch_span"):
                            # Minted before pickling so the worker-solve span
                            # can parent onto it without a round-trip.
                            task["dispatch_span"] = mint_span_id()
                        worker.submit(task)
                        dispatched_at[task["uid"]] = (time.monotonic(), time.time())
                        break

                # 2. Collect finished results from every slot's own queue.
                got_any = False
                for worker in pool:
                    message = worker.poll()
                    if message is None:
                        continue
                    slot, uid, outcome = message
                    got_any = True
                    if uid in results:
                        continue  # late echo of a task we already settled
                    if worker.current is not None and worker.current["uid"] == uid:
                        busy_seconds[worker.slot] += time.monotonic() - worker.started_at
                        finish(worker.current, outcome, worker=worker.slot)
                        worker.finish()
                if got_any:
                    continue  # drain eagerly before liveness checks

                # 3. Crash isolation: a dead worker loses its own goal only.
                now = time.monotonic()
                checked_any = False
                for worker in pool:
                    if worker.idle:
                        continue
                    task = worker.current
                    if not worker.process.is_alive():
                        # One last drain: the result may have been flushed
                        # just before the process died.
                        message = worker.poll()
                        if message is not None and message[1] == task["uid"]:
                            busy_seconds[worker.slot] += now - worker.started_at
                            finish(task, message[2], worker=worker.slot)
                            worker.finish()
                            if self._shutdown:
                                worker.kill()
                            else:
                                worker.respawn()
                            checked_any = True
                            continue
                        exit_code = worker.process.exitcode
                        busy_seconds[worker.slot] += now - worker.started_at
                        if task.get("trace"):
                            self.tracer.emit(
                                event_record(
                                    "worker-crash",
                                    str(task["trace"]),
                                    parent=str(task.get("dispatch_span") or ""),
                                    attrs={
                                        "goal": task["key"],
                                        "slot": worker.slot,
                                        "exit_code": exit_code,
                                    },
                                )
                            )
                        finish(
                            task,
                            {
                                "status": "failed",
                                "reason": f"worker crashed (exit code {exit_code}) while solving",
                            },
                            worker=worker.slot,
                        )
                        if self._shutdown:
                            worker.kill()
                        else:
                            worker.respawn()
                        checked_any = True
                        continue
                    # 3b. Shutdown grace: in-flight goals may finish normally
                    # until the grace expires; stragglers are killed without a
                    # replacement (shutdown must never spawn a process).
                    if self._shutdown and now > self._shutdown_at + self._shutdown_grace:
                        busy_seconds[worker.slot] += now - worker.started_at
                        finish(
                            task,
                            {
                                "status": "failed",
                                "reason": (
                                    "service shutting down: worker killed "
                                    f"{now - worker.started_at:.1f}s into the goal"
                                ),
                            },
                            worker=worker.slot,
                        )
                        worker.kill()
                        checked_any = True
                        continue
                    # 4. Hard deadline: kill a hung worker past timeout+grace.
                    deadline = self._hard_deadline(task, worker.started_at)
                    if deadline is not None and now > deadline:
                        busy_seconds[worker.slot] += now - worker.started_at
                        finish(
                            task,
                            {
                                "status": "timeout",
                                "reason": (
                                    f"hard deadline: worker killed "
                                    f"{now - worker.started_at:.1f}s into a "
                                    f"{task['config'].get('timeout')}s budget"
                                ),
                            },
                            worker=worker.slot,
                        )
                        if self._shutdown:
                            worker.kill()
                        else:
                            worker.respawn()
                        checked_any = True
                if not checked_any:
                    time.sleep(0.01)  # idle poll: nothing finished, nobody died
        finally:
            for worker in pool:
                worker.stop()
            self.worker_stats = {
                worker.slot: {
                    "tasks": worker.tasks_done,
                    "busy_seconds": round(busy_seconds[worker.slot], 6),
                    "respawns": worker.respawns,
                }
                for worker in pool
            }
            self.wall_seconds = time.monotonic() - started_run
        return results


# ---------------------------------------------------------------------------
# The shared resident pool
# ---------------------------------------------------------------------------


class _PoolTask:
    """One goal task of one session, with its pool-global identity.

    ``wire`` is the caller's task dict (session-local uid, as ``solve_suite``
    assigned it); ``worker_wire`` is what actually crosses the process
    boundary — the same payload under the pool-global uid, plus the session's
    resolver so the worker knows which theory to (re)use.
    """

    __slots__ = (
        "uid",
        "session",
        "wire",
        "worker_wire",
        "enqueued_mono",
        "enqueued_wall",
        "dispatched_mono",
        "dispatched_wall",
    )

    def __init__(self, uid: int, session: "PoolSession", wire: dict):
        self.uid = uid
        self.session = session
        self.wire = wire
        worker_wire = dict(wire)
        worker_wire["uid"] = uid
        worker_wire["resolver"] = session.resolver
        if wire.get("trace"):
            # Minted up front so the worker-solve span can parent onto the
            # pool-dispatch span without waiting for the parent to see it.
            worker_wire["dispatch_span"] = mint_span_id()
        self.worker_wire = worker_wire
        # Queue-wait attribution: enqueue is construction time; dispatch is
        # stamped by the dispatcher when a slot accepts the task.
        self.enqueued_mono = time.monotonic()
        self.enqueued_wall = time.time()
        self.dispatched_mono: Optional[float] = None
        self.dispatched_wall = 0.0


class PoolSession:
    """One request's window onto a shared :class:`WorkerPool`.

    Presents the same run interface as :class:`Scheduler` (``run``,
    ``worker_stats``, ``wall_seconds``), so :func:`repro.engine.suite.solve_suite`
    drives a shared pool unchanged.  Everything is scoped to the session:
    ``cancel`` from this session's ``on_result`` withholds only this session's
    tasks, ``worker_stats`` reports only work done for this session, and
    ``worker_spawns`` counts only processes whose creation this session
    triggered (pool start or a respawn after one of *its* tasks crashed) — a
    warm pool serves a session with ``worker_spawns == 0``.
    """

    def __init__(self, pool: "WorkerPool", resolver: Spec, client: str = "default"):
        self.pool = pool
        self.resolver = resolver
        self.client = client
        self.sid = next(pool._session_ids)
        self.worker_spawns = 0
        self.worker_stats: Dict[int, Dict[str, float]] = {}
        self.wall_seconds = 0.0
        # Guarded by pool._lock (mutated by the dispatcher and by cancel()):
        self._pending: deque = deque()
        self._cancelled: set = set()
        self._deficit = 0.0
        self._inflight = 0
        self._busy: Dict[int, float] = {}
        self._tasks: Dict[int, int] = {}
        self._respawns: Dict[int, int] = {}
        # Dispatcher-thread only:
        self._outstanding = 0
        self._results: Dict[int, dict] = {}
        self._on_result: Optional[Callable] = None
        self._callback_error: Optional[BaseException] = None
        self._done = threading.Event()

    @property
    def busy_seconds(self) -> float:
        """CPU-attributable worker seconds this session consumed so far."""
        with self.pool._lock:
            return sum(self._busy.values())

    def cancel(self, uids: Iterable[int]) -> None:
        """Withhold this session's still-pending tasks (portfolio siblings)."""
        with self.pool._lock:
            self._cancelled.update(uids)

    def run(
        self,
        tasks: Iterable[Union[Task, dict]],
        on_result: Optional[Callable[[dict, dict, Callable[[Iterable[int]], None]], None]] = None,
    ) -> Dict[int, dict]:
        """Execute every task through the shared pool; returns ``{uid: outcome}``."""
        started_run = time.monotonic()
        wire: List[dict] = [t.to_wire() if isinstance(t, Task) else dict(t) for t in tasks]
        self._results = {}
        if wire:
            self._on_result = on_result
            self.pool._run_session(self, wire)
        self.wall_seconds = time.monotonic() - started_run
        with self.pool._lock:
            slots = sorted(set(self._tasks) | set(self._busy) | set(self._respawns))
            self.worker_stats = {
                slot: {
                    "tasks": self._tasks.get(slot, 0),
                    "busy_seconds": round(self._busy.get(slot, 0.0), 6),
                    "respawns": self._respawns.get(slot, 0),
                }
                for slot in slots
            }
        if self._callback_error is not None:
            raise self._callback_error
        return self._results

    def _finish(self, ptask: _PoolTask, outcome: dict, worker: int) -> None:
        """Settle one task (dispatcher thread; runs outside the pool lock)."""
        outcome = dict(outcome)
        outcome["worker"] = worker
        spans = outcome.pop("spans", None)
        dispatched = ptask.dispatched_mono is not None
        outcome.setdefault(
            "queued_seconds",
            round(
                (ptask.dispatched_mono if dispatched else time.monotonic())
                - ptask.enqueued_mono,
                6,
            ),
        )
        trace_id = str(ptask.wire.get("trace") or "")
        if trace_id:
            tracer = self.pool.tracer
            now_wall = time.time()
            queue_span = mint_span_id()
            tracer.emit(
                span_record(
                    "queue",
                    trace_id,
                    span=queue_span,
                    parent=str(ptask.wire.get("span") or ""),
                    start=ptask.enqueued_wall,
                    end=ptask.dispatched_wall if dispatched else now_wall,
                    attrs={
                        "goal": ptask.wire["key"],
                        "session": self.sid,
                        "client": self.client,
                        "dispatched": dispatched,
                    },
                )
            )
            if dispatched:
                tracer.emit(
                    span_record(
                        "pool-dispatch",
                        trace_id,
                        span=str(ptask.worker_wire.get("dispatch_span") or ""),
                        parent=queue_span,
                        start=ptask.dispatched_wall,
                        end=now_wall,
                        attrs={
                            "goal": ptask.wire["key"],
                            "worker": worker,
                            "status": str(outcome.get("status") or ""),
                        },
                    )
                )
            if spans:
                tracer.emit_all(spans)
        self._results[ptask.wire["uid"]] = outcome
        if worker >= 0:
            with self.pool._lock:
                self._tasks[worker] = self._tasks.get(worker, 0) + 1
        if self._on_result is not None and self._callback_error is None:
            try:
                self._on_result(ptask.wire, outcome, self.cancel)
            except BaseException as error:  # noqa: BLE001 - re-raised in run()
                # A raising callback must not kill the dispatcher (it serves
                # other sessions too); the session re-raises after its run.
                self._callback_error = error
        self._outstanding -= 1
        if self._outstanding <= 0:
            self._done.set()


class WorkerPool:
    """A persistent pool of solver processes, shared fairly across sessions.

    Where :class:`Scheduler` builds and tears down its workers around one
    batch, the pool keeps them resident: requests join as
    :class:`PoolSession`\\ s, their goal tasks interleave deficit-round-robin
    across sessions (quantum: one goal per visit, so a 100-goal batch cannot
    starve a 1-goal request), and a single dispatcher thread owns all slot
    state — feeding idle workers, polling results, respawning crashes and
    enforcing hard deadlines — so :class:`Scheduler`'s crash-isolation and
    deadline policy carries over intact.  Workers cache elaborated theories
    across tasks (:func:`_pool_worker_main`), which is the latency win: a
    known theory is served with zero spawns and zero re-elaboration.

    Concurrency contract: ``_lock`` guards session registration, per-session
    queues/counters and the fairness ring; worker slots are touched by the
    dispatcher thread only; ``on_result`` callbacks run on the dispatcher
    thread *outside* the lock (they may call ``cancel``, which re-acquires it).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        worker_hook: Optional[Spec] = None,
        hard_kill_grace: float = 5.0,
        start_method: Optional[str] = None,
        tracer=None,
    ):
        self.jobs = max(1, int(jobs) if jobs else (os.cpu_count() or 1))
        self.worker_hook = worker_hook
        self.hard_kill_grace = max(0.5, float(hard_kill_grace))
        #: Where queue/dispatch spans and crash events of traced tasks go; the
        #: proof service injects its per-daemon tracer.
        self.tracer = tracer if tracer is not None else get_tracer()
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.context = multiprocessing.get_context(start_method)
        self._lock = threading.RLock()
        self._slots: List[_WorkerSlot] = []
        self._thread: Optional[threading.Thread] = None
        self._session_ids = itertools.count(1)
        self._uids = itertools.count(1)
        self._sessions: "OrderedDict[int, PoolSession]" = OrderedDict()
        self._ring: deque = deque()
        self._inflight: Dict[int, Tuple[_PoolTask, _WorkerSlot]] = {}
        self._spawns = 0
        self._dispatched = 0
        self._interleaves = 0
        self._last_sid: Optional[int] = None
        self._max_sessions = 0
        self._shutdown = False
        self._shutdown_at = 0.0
        self._shutdown_grace = 0.0
        self._closing = False
        self._broken: Optional[str] = None

    # -- session API -----------------------------------------------------------

    def session(self, resolver: Spec, client: str = "default") -> PoolSession:
        """A fresh session bound to ``resolver`` on behalf of ``client``."""
        return PoolSession(self, resolver, client=client)

    def ensure_started(self) -> int:
        """Bring the pool up to ``jobs`` workers; returns how many spawned now."""
        with self._lock:
            if self._closing or self._broken:
                raise RuntimeError(self._broken or "worker pool is closed")
            started = 0
            while len(self._slots) < self.jobs and not self._shutdown:
                self._slots.append(
                    _WorkerSlot(
                        len(self._slots),
                        self.context,
                        None,
                        self.worker_hook,
                        main=_pool_worker_main,
                    )
                )
                self._spawns += 1
                started += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._dispatch_forever, name="repro-pool-dispatch", daemon=True
                )
                self._thread.start()
            return started

    def _run_session(self, session: PoolSession, wire: List[dict]) -> None:
        session.worker_spawns += self.ensure_started()
        with self._lock:
            session._outstanding = len(wire)
            session._done.clear()
            self._sessions[session.sid] = session
            self._ring.append(session.sid)
            self._max_sessions = max(self._max_sessions, len(self._sessions))
            for task in wire:
                session._pending.append(_PoolTask(next(self._uids), session, task))
        session._done.wait()
        with self._lock:
            self._sessions.pop(session.sid, None)
            try:
                self._ring.remove(session.sid)
            except ValueError:  # pragma: no cover - already gone
                pass

    # -- graceful shutdown -----------------------------------------------------

    def request_shutdown(self, grace: Optional[float] = None) -> None:
        """Drain: finish what is in flight (within ``grace``), start nothing new.

        Same sticky semantics as :meth:`Scheduler.request_shutdown`: pending
        tasks of every session fail fast with a "shutting down" reason, goals
        already on a worker get ``grace`` seconds before the worker is killed
        (killed, not respawned), and later sessions drain immediately too.
        """
        self._shutdown_grace = self.hard_kill_grace if grace is None else max(0.0, float(grace))
        self._shutdown_at = time.monotonic()
        self._shutdown = True

    @property
    def shutting_down(self) -> bool:
        return self._shutdown

    def wait_idle(self, timeout: float) -> bool:
        """Block until no session is registered; ``False`` on timeout."""
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._lock:
                if not self._sessions:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def close(self, timeout: float = 10.0) -> None:
        """Terminate the dispatcher and every worker (idempotent).

        Active sessions are drained first via :meth:`request_shutdown`; if the
        dispatcher cannot settle them within ``timeout`` their remaining tasks
        are failed here so no caller is left blocked on a dead pool.
        """
        if not self._shutdown:
            self.request_shutdown(grace=0.0)
        self.wait_idle(timeout)
        with self._lock:
            self._closing = True
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        for slot in self._slots:
            slot.stop()
        self._slots = []
        failure = {"status": "failed", "reason": "worker pool closed"}
        leftovers: List[Tuple[_PoolTask, dict, int]] = []
        with self._lock:
            for ptask, slot in self._inflight.values():
                leftovers.append((ptask, failure, slot.slot))
            self._inflight.clear()
            sessions = list(self._sessions.values())
            for session in sessions:
                while session._pending:
                    leftovers.append((session._pending.popleft(), failure, -1))
        for ptask, outcome, worker in leftovers:
            ptask.session._finish(ptask, outcome, worker)
        for session in sessions:
            session._done.set()

    # -- observability ----------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time pool state for the ``metrics`` op."""
        with self._lock:
            return {
                "pool_size": sum(
                    1 for slot in self._slots if slot.process is not None and slot.process.is_alive()
                ),
                "queue_depth": sum(len(s._pending) for s in self._sessions.values()),
                "inflight": sum(s._inflight for s in self._sessions.values()),
                "active_sessions": len(self._sessions),
                "max_concurrent_sessions": self._max_sessions,
                "dispatched": self._dispatched,
                "interleaves": self._interleaves,
                "spawns": self._spawns,
            }

    def client_load(self, client: str) -> int:
        """Goals of ``client`` currently queued or on a worker (budget input)."""
        with self._lock:
            return sum(
                len(s._pending) + s._inflight
                for s in self._sessions.values()
                if s.client == client
            )

    # -- the dispatcher thread ---------------------------------------------------

    def _next_task(self, finishes: List[Tuple[_PoolTask, dict, int]]) -> Optional[_PoolTask]:
        """Pick the next dispatchable task, deficit-round-robin over sessions.

        Called under ``_lock``.  Each visit credits a session one quantum (one
        goal) and debits it on dispatch, so sessions with work alternate
        strictly regardless of batch size.  Cancelled tasks settle here for
        free (appended to ``finishes``) without consuming the quantum.
        """
        ring = self._ring
        for _ in range(len(ring)):
            session = self._sessions[ring[0]]
            if not session._pending:
                session._deficit = 0.0
                ring.rotate(-1)
                continue
            session._deficit += 1.0
            while session._pending and session._deficit >= 1.0:
                ptask = session._pending.popleft()
                if ptask.wire["uid"] in session._cancelled:
                    finishes.append(
                        (
                            ptask,
                            {
                                "status": STATUS_CANCELLED,
                                "reason": "a portfolio sibling already proved the goal",
                            },
                            -1,
                        )
                    )
                    continue
                session._deficit -= 1.0
                ring.rotate(-1)
                return ptask
            ring.rotate(-1)
        return None

    def _account(self, ptask: _PoolTask, slot: _WorkerSlot) -> None:
        """Attribute a finished (or killed) dispatch to its session's counters."""
        session = ptask.session
        with self._lock:
            session._busy[slot.slot] = session._busy.get(slot.slot, 0.0) + (
                time.monotonic() - slot.started_at
            )
            session._inflight = max(0, session._inflight - 1)

    def _replace(self, slot: _WorkerSlot, ptask: Optional[_PoolTask]) -> None:
        """Respawn a dead or hung worker — or just kill it during shutdown."""
        if self._shutdown or self._closing:
            slot.kill()
            return
        slot.respawn()
        with self._lock:
            self._spawns += 1
            if ptask is not None:
                session = ptask.session
                session.worker_spawns += 1
                session._respawns[slot.slot] = session._respawns.get(slot.slot, 0) + 1

    def _dispatch_once(self) -> bool:
        finishes: List[Tuple[_PoolTask, dict, int]] = []
        with self._lock:
            slots = list(self._slots)
            if self._shutdown:
                # Drain: everything not yet dispatched fails fast, all sessions.
                for session in self._sessions.values():
                    while session._pending:
                        ptask = session._pending.popleft()
                        finishes.append(
                            (
                                ptask,
                                {
                                    "status": "failed",
                                    "reason": "service shutting down: task abandoned before dispatch",
                                },
                                -1,
                            )
                        )
            else:
                for slot in slots:
                    if not slot.idle:
                        continue
                    ptask = self._next_task(finishes)
                    if ptask is None:
                        break
                    slot.submit(ptask.worker_wire)
                    ptask.dispatched_mono = time.monotonic()
                    ptask.dispatched_wall = time.time()
                    self._inflight[ptask.uid] = (ptask, slot)
                    ptask.session._inflight += 1
                    self._dispatched += 1
                    sid = ptask.session.sid
                    if (
                        self._last_sid is not None
                        and self._last_sid != sid
                        and self._last_sid in self._sessions
                    ):
                        # A dispatch alternating between two *live* sessions:
                        # the observable trace of fair interleaving.
                        self._interleaves += 1
                    self._last_sid = sid
        advanced = bool(finishes)

        # Collect finished results (slot state is dispatcher-owned: no lock).
        for slot in slots:
            message = slot.poll()
            if message is None:
                continue
            _, uid, outcome = message
            entry = self._inflight.pop(uid, None)
            if entry is None:
                continue  # late echo of a task already settled by a kill
            ptask, _ = entry
            self._account(ptask, slot)
            finishes.append((ptask, outcome, slot.slot))
            slot.finish()
            advanced = True

        # Liveness, shutdown grace and hard deadlines.
        now = time.monotonic()
        for slot in slots:
            if slot.idle:
                continue
            task = slot.current
            entry = self._inflight.get(task["uid"])
            ptask = entry[0] if entry else None
            if not slot.process.is_alive():
                message = slot.poll()
                if message is not None and message[1] == task["uid"] and ptask is not None:
                    # The result was flushed just before the process died.
                    self._inflight.pop(task["uid"], None)
                    self._account(ptask, slot)
                    finishes.append((ptask, message[2], slot.slot))
                    slot.finish()
                else:
                    exit_code = slot.process.exitcode
                    if ptask is not None:
                        self._inflight.pop(task["uid"], None)
                        self._account(ptask, slot)
                        if ptask.wire.get("trace"):
                            self.tracer.emit(
                                event_record(
                                    "worker-crash",
                                    str(ptask.wire["trace"]),
                                    parent=str(
                                        ptask.worker_wire.get("dispatch_span") or ""
                                    ),
                                    attrs={
                                        "goal": ptask.wire["key"],
                                        "slot": slot.slot,
                                        "exit_code": exit_code,
                                    },
                                )
                            )
                        finishes.append(
                            (
                                ptask,
                                {
                                    "status": "failed",
                                    "reason": f"worker crashed (exit code {exit_code}) while solving",
                                },
                                slot.slot,
                            )
                        )
                self._replace(slot, ptask)
                advanced = True
                continue
            if self._shutdown and now > self._shutdown_at + self._shutdown_grace:
                if ptask is not None:
                    self._inflight.pop(task["uid"], None)
                    self._account(ptask, slot)
                    finishes.append(
                        (
                            ptask,
                            {
                                "status": "failed",
                                "reason": (
                                    "service shutting down: worker killed "
                                    f"{now - slot.started_at:.1f}s into the goal"
                                ),
                            },
                            slot.slot,
                        )
                    )
                slot.kill()
                advanced = True
                continue
            timeout = task.get("config", {}).get("timeout")
            if timeout is not None and now > slot.started_at + float(timeout) + self.hard_kill_grace:
                if ptask is not None:
                    self._inflight.pop(task["uid"], None)
                    self._account(ptask, slot)
                    finishes.append(
                        (
                            ptask,
                            {
                                "status": "timeout",
                                "reason": (
                                    f"hard deadline: worker killed "
                                    f"{now - slot.started_at:.1f}s into a "
                                    f"{task['config'].get('timeout')}s budget"
                                ),
                            },
                            slot.slot,
                        )
                    )
                self._replace(slot, ptask)
                advanced = True

        # Deliver outside the lock: callbacks may store results or cancel.
        for ptask, outcome, worker in finishes:
            ptask.session._finish(ptask, outcome, worker)
        return advanced

    def _dispatch_forever(self) -> None:
        try:
            while not self._closing:
                if not self._dispatch_once():
                    time.sleep(0.005)
        except Exception as error:  # pragma: no cover - defensive backstop
            # A dispatcher that dies silently would strand every waiting
            # session forever; fail all outstanding work and mark the pool.
            failure = {"status": "failed", "reason": f"pool dispatcher crashed: {error!r}"}
            leftovers: List[Tuple[_PoolTask, dict, int]] = []
            with self._lock:
                self._broken = f"pool dispatcher crashed: {error!r}"
                for ptask, slot in self._inflight.values():
                    leftovers.append((ptask, failure, slot.slot))
                self._inflight.clear()
                sessions = list(self._sessions.values())
                for session in sessions:
                    while session._pending:
                        leftovers.append((session._pending.popleft(), failure, -1))
            for ptask, outcome, worker in leftovers:
                ptask.session._finish(ptask, outcome, worker)
            for session in sessions:
                session._done.set()
