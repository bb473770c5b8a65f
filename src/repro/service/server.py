"""The proof service: warm-state daemon, JSON-lines protocol, lemma reuse.

Two layers.  :class:`ProofService` is the synchronous core — it owns the
:class:`~repro.service.state.WarmStateCache`, the persistent
:class:`~repro.engine.store.ResultStore`, and the
:class:`~repro.service.library.LemmaLibrary`, and turns one ``submit``
request into a stream of per-goal verdicts plus a summary.  :func:`serve`
wraps it in an asyncio unix-socket front-end speaking newline-delimited JSON.

Protocol (one JSON object per line, ``id`` echoed back when present)::

    -> {"op": "ping"}
    <- {"op": "pong", "protocol": 1, ...}

    -> {"op": "submit", "suite": "isaplanner", "goals": ["prop_01"], ...}
    <- {"op": "verdict", "goal": "prop_01", "status": "proved",
        "certificate": {...}, "cached": true, ...}        (one per goal)
    <- {"op": "done", "proved": 1, "worker_spawns": 0, ...}

    -> {"op": "metrics"}      <- {"op": "metrics", "metrics": {...}}
    -> {"op": "shutdown"}     <- {"op": "bye"}

A ``submit`` carries either a built-in suite name or arbitrary program
``source`` text, optionally a ``goals`` name filter and extra ``conjectures``
(``{"name": ..., "equation": ...}``).  Everything on the wire is primitive
data — programs travel as source text, hints as equation source, proofs as
certificate dicts, refutations as counterexample dicts; terms never cross the
socket (nor, inside the daemon, a process or request boundary).

Per goal the service tries, in order: a decisive *hintless* store entry
(replayed parent-side, spawning no worker); certificate-verified library
lemmas offered as hints (the hinted attempt has its own store identity, so a
hinted replay is equally worker-free); a fresh dispatch to the resident
worker pool.  Hint-free proofs that come back with certificates are fed to the
library, so each theory's lemma pool grows as it is exercised.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.scheduler import STATUS_REJECTED, WorkerPool
from ..engine.store import ResultStore, StoreLockError, config_fingerprint
from ..engine.suite import goal_store_equation, solve_suite
from ..harness.runner import SolveRecord
from ..obs.histogram import OP_CLASSES, LatencyHistogram
from ..obs.trace import DEFAULT_TRACE_MAX_BYTES, Tracer, mint_span_id, mint_trace_id, span_record
from ..search.config import ProverConfig
from .library import LemmaLibrary, enrich_library
from .resolver import SourceResolver
from .state import WarmStateCache

__all__ = [
    "PROTOCOL_VERSION",
    "ProofService",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "serve",
]

PROTOCOL_VERSION = 1
"""Version of the JSON-lines protocol (bumped when messages change meaning)."""

REPLAY_SINK_SAMPLE = 16
"""Persist every Nth *pure store-replay* request's spans to the trace sink
(the first always).  Replayed requests are sub-millisecond and identical, so
their spans add nothing the exact in-memory latency histograms don't already
capture — but serializing even one JSONL record per request would bust the
2% overhead envelope on the replay hot path.  Requests that solve, reject or
crash anything are never sampled: they always persist in full."""


class ServiceError(RuntimeError):
    """A request the service cannot honour (bad program, unknown goal, ...).

    Reported to the client as an ``{"op": "error"}`` line; never tears down
    the daemon.
    """


@dataclass
class ServiceConfig:
    """Knobs of one daemon instance (CLI flags map 1:1 onto these)."""

    socket_path: str = "repro-serve.sock"
    """Unix socket the asyncio front-end listens on."""

    store_path: Optional[str] = None
    """Persistent result store; ``None`` runs memoryless (every goal re-solved)."""

    library_path: Optional[str] = None
    """Lemma library; ``None`` disables lemma learning and hint offers."""

    warm_cache_size: int = 8
    """How many theories' warm state stays resident (LRU beyond that)."""

    jobs: Optional[int] = None
    """Size of the resident worker pool (default: CPU count)."""

    timeout: Optional[float] = None
    """Default per-goal budget in seconds (requests may override)."""

    hint_limit: int = 8
    """Most library lemmas offered to one goal (earliest proved win)."""

    explore: bool = False
    """Enrich the library in a background thread when a new theory arrives."""

    shutdown_grace: float = 2.0
    """Seconds an in-flight goal may keep its worker once shutdown starts."""

    worker_hook: Optional[str] = None
    """``"module:function"`` invoked per task inside workers (test seam only)."""

    prewarm: bool = False
    """Rebuild warm state at startup for every theory the store/library knows."""

    client_max_inflight: int = 0
    """Most un-replayable goals one client may have queued/solving (0 = no cap)."""

    client_cpu_budget: float = 0.0
    """Cap on one client's cumulative worker-busy seconds (0 = no cap)."""

    trace_path: Optional[str] = None
    """JSONL trace sink (``serve --trace``); ``None`` keeps spans in the
    daemon's in-memory ring only — tracing itself is always on."""

    trace_max_bytes: int = DEFAULT_TRACE_MAX_BYTES
    """Rotation threshold of the trace sink (live file plus one ``.1``)."""


class _Latency:
    """Streaming count/total/max of one latency population."""

    __slots__ = ("count", "total", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def snapshot(self) -> Dict[str, float]:
        return {"count": self.count, "total": self.total, "max": self.max}


class ServiceMetrics:
    """Counters of one daemon lifetime; snapshots are primitive dicts.

    The snapshot's keys are the contract with
    :func:`repro.harness.report.service_summary_table` — metrics cross the
    socket as JSON, so the table consumes plain data, never this object.
    Counter updates from concurrent request threads go through :attr:`lock`
    (callers hold it around their increment batches; the snapshot takes it
    too, so a metrics reply never shows a half-applied request).
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.started_at = time.monotonic()
        self.requests = 0
        self.goals = 0
        self.store_hits = 0
        self.store_misses = 0
        self.library_hints_offered = 0
        self.library_hints_used = 0
        self.library_assisted_goals = 0
        self.lemmas_learned = 0
        self.dispatched_goals = 0
        self.worker_spawns = 0
        self.rejected_goals = 0
        self.prewarmed_theories = 0
        self.errors = 0
        self.replay_latency = _Latency()
        self.solve_latency = _Latency()
        #: Client-observed latency per *goal*, one histogram per op class
        #: (store replay / warm solve / cold solve / rejected): time from
        #: request arrival to that goal's verdict emission.
        self.op_latency: Dict[str, LatencyHistogram] = {
            cls: LatencyHistogram() for cls in OP_CLASSES
        }
        #: Per-client counters: {client: {"requests", "served_goals", "rejected_goals"}}.
        self.clients: Dict[str, Dict[str, int]] = {}

    def client_counters(self, client: str) -> Dict[str, int]:
        """The (mutable) counter dict of one client; call under :attr:`lock`."""
        return self.clients.setdefault(
            client, {"requests": 0, "served_goals": 0, "rejected_goals": 0}
        )

    def snapshot(
        self,
        warm: Optional[dict] = None,
        library: Optional[dict] = None,
        pool: Optional[dict] = None,
    ) -> dict:
        warm = warm or {}
        library = library or {}
        pool = pool or {}
        with self.lock:
            return {
                "requests": self.requests,
                "goals": self.goals,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "warm_hits": int(warm.get("hits") or 0),
                "warm_misses": int(warm.get("misses") or 0),
                "warm_evictions": int(warm.get("evictions") or 0),
                "warm_entries": int(warm.get("entries") or 0),
                "library_lemmas": int(library.get("lemmas") or 0),
                "library_rejected": int(library.get("rejected") or 0),
                "library_hints_offered": self.library_hints_offered,
                "library_hints_used": self.library_hints_used,
                "library_assisted_goals": self.library_assisted_goals,
                "lemmas_learned": self.lemmas_learned,
                "dispatched_goals": self.dispatched_goals,
                "worker_spawns": self.worker_spawns,
                "rejected_goals": self.rejected_goals,
                "prewarmed_theories": self.prewarmed_theories,
                "errors": self.errors,
                "replay_latency": self.replay_latency.snapshot(),
                "solve_latency": self.solve_latency.snapshot(),
                "op_latency": {
                    cls: histogram.snapshot()
                    for cls, histogram in self.op_latency.items()
                },
                "queue_depth": int(pool.get("queue_depth") or 0),
                "inflight_goals": int(pool.get("inflight") or 0),
                "pool_size": int(pool.get("pool_size") or 0),
                "active_sessions": int(pool.get("active_sessions") or 0),
                "max_concurrent_sessions": int(pool.get("max_concurrent_sessions") or 0),
                "interleaved_dispatches": int(pool.get("interleaves") or 0),
                "clients": {name: dict(counters) for name, counters in self.clients.items()},
                "uptime_seconds": time.monotonic() - self.started_at,
            }


def _equation_symbols(equation) -> frozenset:
    """The function symbols of a parsed equation (heads of all subterms).

    The goal-side input to the library's relevance ranking: built from real
    ``Sym`` heads, so intersecting lemma token sets against it never counts a
    variable name as shared vocabulary.
    """
    symbols = set()
    stack = [equation.lhs, equation.rhs]
    while stack:
        term = stack.pop()
        head = getattr(term, "_head", None)
        if head:
            symbols.add(head)
        fun = getattr(term, "fun", None)
        if fun is not None:
            stack.append(fun)
            stack.append(term.arg)
    return frozenset(symbols)


def _suite_source(suite: str) -> str:
    from ..benchmarks_data.registry import SUITE_PROGRAM_SOURCES

    try:
        return SUITE_PROGRAM_SOURCES[suite]
    except KeyError:
        known = ", ".join(sorted(SUITE_PROGRAM_SOURCES))
        raise ServiceError(f"unknown suite {suite!r} (known: {known})") from None


class ProofService:
    """The synchronous service core (the socket layer is optional dressing).

    Concurrent submits: each request joins the shared resident
    :class:`~repro.engine.scheduler.WorkerPool` as its own session, so two
    clients' goals interleave fairly (deficit-round-robin) instead of the
    second client waiting out the first client's whole batch — and a warm
    pool serves cold solves without spawning a process per request.
    ``ping`` and ``metrics`` never wait on a submit.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.cache = WarmStateCache(self.config.warm_cache_size)
        self.store = ResultStore(self.config.store_path) if self.config.store_path else None
        self.library = (
            LemmaLibrary(self.config.library_path) if self.config.library_path else None
        )
        #: Per-daemon tracer: the ring is always on; a JSONL sink exists only
        #: under ``--trace``.  Owned here (not the module singleton) so two
        #: co-resident services never share a sink.
        self.tracer = Tracer()
        if self.config.trace_path:
            self.tracer.configure_sink(self.config.trace_path, self.config.trace_max_bytes)
        #: Pure-replay requests seen, for REPLAY_SINK_SAMPLE head-sampling.
        self._pure_replays = 0
        self._sample_lock = threading.Lock()
        #: The shared resident pool (no processes until the first dispatch).
        self.pool = WorkerPool(
            jobs=self.config.jobs,
            worker_hook=self.config.worker_hook,
            tracer=self.tracer,
        )
        self._closing = False
        self._closed = False
        self._enriched: set = set()
        self._enrich_threads: List[threading.Thread] = []
        #: Cumulative worker-busy seconds per client (the CPU budget's meter).
        self._client_cpu: Dict[str, float] = {}
        self._lifecycle = threading.Condition()
        self._active_submits = 0
        if self.config.prewarm:
            self.prewarm()

    # -- request dispatch --------------------------------------------------------

    def handle_request(self, request: dict, emit: Callable[[dict], None]) -> None:
        """Handle one request, emitting every reply line through ``emit``.

        Never raises on bad requests — protocol errors become ``error`` lines
        (the daemon must survive any client).  The terminal line per request
        is one of ``pong``/``metrics``/``bye``/``done``/``error``.
        """
        ident = request.get("id")

        def reply(payload: dict) -> None:
            if ident is not None:
                payload = dict(payload, id=ident)
            emit(payload)

        op = request.get("op")
        # Minted before any work so even a failing submit's error line can be
        # correlated with the daemon-side spans it left behind.
        trace = mint_trace_id() if op == "submit" else ""
        try:
            if op == "ping":
                reply({"op": "pong", "protocol": PROTOCOL_VERSION, "pid": os.getpid()})
            elif op == "metrics":
                reply({"op": "metrics", "metrics": self.metrics_snapshot()})
            elif op == "shutdown":
                self.begin_shutdown()
                reply({"op": "bye"})
            elif op == "submit":
                reply(self.submit(request, reply, trace=trace))
            else:
                raise ServiceError(f"unknown op {op!r}")
        except ServiceError as error:
            with self.metrics.lock:
                self.metrics.errors += 1
            payload = {"op": "error", "error": str(error)}
            if trace:
                payload["trace"] = trace
            reply(payload)
        except Exception as error:  # noqa: BLE001 - daemon must survive any request
            with self.metrics.lock:
                self.metrics.errors += 1
            payload = {"op": "error", "error": f"internal error: {error!r}"}
            if trace:
                payload["trace"] = trace
            reply(payload)

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(
            warm=self.cache.snapshot(),
            library=self.library.snapshot() if self.library else None,
            pool=self.pool.snapshot(),
        )

    # -- prewarming ---------------------------------------------------------------

    def prewarm(self) -> int:
        """Rebuild warm state for every theory the store and library remember.

        Startup latency work behind ``--prewarm``: built-in suite names are
        recovered from the store's goal keys, and submitted theories from the
        library's recorded program sources (paired with suite labels mined
        from store entries carrying the same fingerprint).  Best-effort — a
        theory that no longer elaborates is skipped — and bounded by the warm
        cache's own LRU capacity.  Returns how many theories were built.
        """
        sources: Dict[str, str] = {}
        if self.store is not None:
            from ..benchmarks_data.registry import SUITE_PROGRAM_SOURCES

            suite_of_fingerprint: Dict[str, str] = {}
            for entry in self.store.entries():
                goal_key = str(entry.get("goal", ""))
                suite = goal_key.split("/", 1)[0] if "/" in goal_key else ""
                if not suite:
                    continue
                suite_of_fingerprint.setdefault(str(entry.get("program", "")), suite)
                if suite in SUITE_PROGRAM_SOURCES:
                    sources.setdefault(suite, SUITE_PROGRAM_SOURCES[suite])
        else:
            suite_of_fingerprint = {}
        if self.library is not None:
            for fingerprint in self.library.fingerprints():
                source = self.library.source_for(fingerprint)
                if not source:
                    continue
                digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
                suite = suite_of_fingerprint.get(fingerprint) or f"submitted-{digest[:12]}"
                sources.setdefault(suite, source)
        warmed = 0
        for suite, source in sources.items():
            if self._closing:
                break
            try:
                _, was_warm = self.cache.get(source, suite)
            except Exception:  # noqa: BLE001 - prewarm is best-effort
                continue
            if not was_warm:
                warmed += 1
        with self.metrics.lock:
            self.metrics.prewarmed_theories += warmed
        return warmed

    # -- the submit pipeline ------------------------------------------------------

    def submit(
        self, request: dict, emit: Callable[[dict], None], trace: str = ""
    ) -> dict:
        """Solve one submission; emits ``verdict`` lines, returns the ``done`` line."""
        with self._lifecycle:
            if self._closing:
                raise ServiceError("service is shutting down")
            self._active_submits += 1
        try:
            return self._submit(request, emit, trace=trace)
        finally:
            with self._lifecycle:
                self._active_submits -= 1
                self._lifecycle.notify_all()

    def _submit(
        self, request: dict, emit: Callable[[dict], None], trace: str = ""
    ) -> dict:
        if self._closing:
            raise ServiceError("service is shutting down")
        trace = trace or mint_trace_id()
        started = time.monotonic()
        client = str(request.get("client") or "default")
        with self.metrics.lock:
            self.metrics.requests += 1
            self.metrics.client_counters(client)["requests"] += 1
        # The root span of the whole request.  Emitted manually rather than
        # via the tracer's context manager because whether it *persists* to
        # the sink is only known at the end: pure store-replay requests are
        # head-sampled (REPLAY_SINK_SAMPLE), while a request that raised or
        # did real work always leaves its span behind.
        request_span = mint_span_id()
        request_record = span_record(
            "request", trace, span=request_span, attrs={"client": client}
        )
        sink_decision = {"persist": True}  # exceptions always persist
        try:
            return self._submit_traced(
                request, emit, trace, request_span, request_record,
                started, client, sink_decision,
            )
        finally:
            request_record["end"] = time.time()
            self.tracer.emit_all(
                sink_decision.pop("deferred", None),
                persist=sink_decision["persist"],
            )
            self.tracer.emit(request_record, persist=sink_decision["persist"])

    def _submit_traced(
        self,
        request: dict,
        emit: Callable[[dict], None],
        trace: str,
        request_span: str,
        request_record: dict,
        started: float,
        client: str,
        sink_decision: dict,
    ) -> dict:

        source, suite = self._resolve_source(request)
        state, was_warm = self._warm_state(source, suite)
        request_record["attrs"].update({"suite": suite, "warm": was_warm})
        conjectures = self._conjectures(request)
        with state.guard:
            problems = self._select_problems(state, request, conjectures)
        prover_config = self._prover_config(request)

        # Verdict spans for *cached* goals are deferred: whether they persist
        # to the sink depends on whether this request turns out to be a pure
        # store replay (then it is head-sampled) or did real work (then
        # everything persists).  The ring and the histograms see all of them
        # either way — only sink I/O is sampled, because on the sub-millisecond
        # replay path serializing even one JSONL record busts the 2% envelope.
        deferred_replay_spans: List[dict] = []
        sink_decision["deferred"] = deferred_replay_spans  # flushed by _submit
        saw_work = False  # any solve or rejection, i.e. not a pure replay

        def verdict_span(goal: str, status: str, op_class: str, emit_start: float) -> None:
            nonlocal saw_work
            span = span_record(
                "verdict",
                trace,
                parent=request_span,
                op_class=op_class,
                start=emit_start,
                end=time.time(),
                attrs={"goal": goal, "status": status, "op_class": op_class},
            )
            if op_class == "store_replay":
                deferred_replay_spans.append(span)
            else:
                saw_work = True
                self.tracer.emit(span)

        problems, rejected = self._admit(client, state, problems, prover_config)
        for payload in rejected:
            payload["trace"] = trace
            with self.metrics.lock:
                self.metrics.op_latency["rejected"].record(time.monotonic() - started)
            emit_start = time.time()
            emit(payload)
            goal_name = str(payload.get("goal") or "")
            verdict_span(
                f"{suite}/{goal_name}" if goal_name else "",
                STATUS_REJECTED,
                "rejected",
                emit_start,
            )

        with state.guard:
            hypotheses, offered = self._plan_hints(state, problems, prover_config, request)

        # The resolver rides on the session: the workers elaborate — or reuse
        # a cached elaboration of — the submitted source in their own banks.
        engine = self.pool.session(SourceResolver(source, suite, conjectures), client=client)
        verdicts: List[dict] = []

        def op_class_of(record) -> str:
            if record.status == STATUS_REJECTED:
                return "rejected"
            if record.cached:
                return "store_replay"
            return "warm_solve" if was_warm else "cold_solve"

        def progress(record) -> None:
            verdict = self._verdict_payload(record, offered, trace)
            verdicts.append(verdict)
            op_class = op_class_of(record)
            with self.metrics.lock:
                self.metrics.op_latency[op_class].record(time.monotonic() - started)
            emit_start = time.time()
            emit(verdict)
            # Qualified goal name, matching the queue/worker-solve spans, so
            # `trace slow` groups one goal's spans into one attribution row.
            verdict_span(
                f"{record.suite}/{record.name}" if record.suite else record.name,
                record.status,
                op_class,
                emit_start,
            )

        if problems:
            result = solve_suite(
                problems,
                prover_config,
                suite_name=suite,
                hypotheses=hypotheses,
                progress=progress,
                store=self.store,
                session=engine,
                trace=trace,
                trace_parent=request_span,
            )
            records = result.records
        else:
            records = []  # every goal was rejected before dispatch

        if records:
            with state.guard:
                learned = self._learn_lemmas(state, records, source)
        else:
            learned = 0
        self._maybe_enrich(source, suite, state.fingerprint)

        spawns = engine.worker_spawns
        busy = sum(
            float(stats.get("busy_seconds") or 0.0) for stats in engine.worker_stats.values()
        )
        replayed = sum(1 for record in records if record.cached)
        dispatched = sum(
            1 for record in records
            if not record.cached and record.status != "out-of-scope"
        )
        assisted = [r for r in records if r.hint_steps > 0]
        wall = time.monotonic() - started

        with self.metrics.lock:
            self.metrics.goals += len(records)
            self.metrics.store_hits += replayed
            self.metrics.store_misses += len(records) - replayed
            self.metrics.library_hints_used += sum(r.hint_steps for r in assisted)
            self.metrics.library_assisted_goals += len(assisted)
            self.metrics.lemmas_learned += learned
            self.metrics.dispatched_goals += dispatched
            self.metrics.worker_spawns += spawns
            self.metrics.rejected_goals += len(rejected)
            counters = self.metrics.client_counters(client)
            counters["served_goals"] += len(records)
            counters["rejected_goals"] += len(rejected)
            self._client_cpu[client] = self._client_cpu.get(client, 0.0) + busy
            # Pure-replay requests answer without a single worker; their wall
            # time is the service's hot-path latency.  Anything that dispatched
            # is dominated by proof search and lands in the other population.
            (self.metrics.replay_latency if spawns == 0 else self.metrics.solve_latency).record(wall)

        request_record["attrs"].update(
            {"goals": len(records), "rejected": len(rejected), "spawns": spawns}
        )
        if saw_work:
            sink_decision["persist"] = True
        else:
            # A pure store replay: head-sample its spans into the sink (the
            # first such request always lands, so smoke runs are deterministic).
            with self._sample_lock:
                sink_decision["persist"] = (
                    self._pure_replays % REPLAY_SINK_SAMPLE == 0
                )
                self._pure_replays += 1
        return {
            "op": "done",
            "trace": trace,
            "suite": suite,
            "client": client,
            "program": state.fingerprint,
            "warm": was_warm,
            "total": len(records),
            "proved": sum(1 for r in records if r.proved),
            "disproved": sum(1 for r in records if r.disproved),
            "failed": sum(
                1 for r in records if not r.proved and not r.disproved
            ),
            "store_hits": replayed,
            "dispatched": dispatched,
            "rejected": len(rejected),
            "worker_spawns": spawns,
            "library_hints_offered": sum(len(h) for h in hypotheses.values()),
            "library_hints_used": sum(r.hint_steps for r in assisted),
            "lemmas_learned": learned,
            "seconds": wall,
        }

    # -- submit helpers -----------------------------------------------------------

    def _resolve_source(self, request: dict) -> Tuple[str, str]:
        source = request.get("source")
        suite = request.get("suite")
        if source is not None:
            source = str(source)
            if not source.strip():
                raise ServiceError("submitted program source is empty")
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            return source, str(suite or f"submitted-{digest[:12]}")
        if suite:
            return _suite_source(str(suite)), str(suite)
        raise ServiceError("submit needs either a suite name or program source")

    def _warm_state(self, source: str, suite: str):
        from ..core.exceptions import CycleQError

        try:
            return self.cache.get(source, suite)
        except CycleQError as error:
            raise ServiceError(f"program does not elaborate: {error}") from None

    @staticmethod
    def _conjectures(request: dict) -> List[Tuple[str, str]]:
        conjectures: List[Tuple[str, str]] = []
        for entry in request.get("conjectures") or ():
            if not isinstance(entry, dict) or "name" not in entry or "equation" not in entry:
                raise ServiceError(
                    'each conjecture needs {"name": ..., "equation": ...}'
                )
            conjectures.append((str(entry["name"]), str(entry["equation"])))
        return conjectures

    def _select_problems(self, state, request: dict, conjectures: List[Tuple[str, str]]):
        from ..core.exceptions import CycleQError

        problems = []
        names = request.get("goals")
        if names:
            unknown = [str(n) for n in names if str(n) not in state.problems]
            if unknown:
                raise ServiceError(
                    f"unknown goal(s) {', '.join(unknown)} in theory {state.suite}"
                )
            problems.extend(state.problem_for(str(name)) for name in names)
        elif not conjectures:
            problems.extend(state.problems.values())
        for name, equation in conjectures:
            try:
                problems.append(state.problem_for(name, equation))
            except CycleQError as error:
                raise ServiceError(
                    f"conjecture {name} does not parse: {error}"
                ) from None
        if not problems:
            raise ServiceError("submission selects no goals")
        return problems

    def _replayable(self, state, problem, config_fp: str) -> bool:
        """Whether the goal answers from the store without touching a worker."""
        if self.store is None:
            return False
        key = ResultStore.make_key(
            state.fingerprint,
            f"{problem.suite}/{problem.name}",
            goal_store_equation(problem.goal),
            config_fp,
        )
        stored = self.store.peek(key)
        return stored is not None and stored.get("status") in ("proved", "disproved")

    def _admit(
        self, client: str, state, problems, prover_config: ProverConfig
    ) -> Tuple[list, List[dict]]:
        """Apply per-client budgets; returns ``(admitted, rejected verdict lines)``.

        Budgets gate only *dispatch*: a goal answerable from the store replays
        for free and is always admitted.  ``client_max_inflight`` bounds how
        many un-replayable goals a client may have queued or on a worker at
        once (summed over its concurrent requests, approximately — admission
        reads the pool's load before this request's session registers);
        ``client_cpu_budget`` caps the client's cumulative worker-busy seconds
        over the daemon's lifetime.  Rejected goals get a polite terminal
        verdict line instead of silently vanishing from the batch.
        """
        max_inflight = int(self.config.client_max_inflight or 0)
        cpu_budget = float(self.config.client_cpu_budget or 0.0)
        if max_inflight <= 0 and cpu_budget <= 0.0:
            return problems, []
        config_fp = config_fingerprint(prover_config)
        with self.metrics.lock:
            cpu_used = self._client_cpu.get(client, 0.0)
        inflight = self.pool.client_load(client)
        headroom = max_inflight - inflight if max_inflight > 0 else None
        admitted: list = []
        rejected: List[dict] = []

        def reject(problem, reason: str) -> None:
            record = SolveRecord(
                problem.name, problem.suite, STATUS_REJECTED, variant="default", reason=reason
            )
            rejected.append(self._verdict_payload(record, {}))

        for problem in problems:
            if self._replayable(state, problem, config_fp):
                admitted.append(problem)
                continue
            if cpu_budget > 0.0 and cpu_used >= cpu_budget:
                reject(
                    problem,
                    f"budget: client {client!r} used {cpu_used:.1f}s of its "
                    f"{cpu_budget:.1f}s cpu budget",
                )
                continue
            if headroom is not None and headroom <= 0:
                reject(
                    problem,
                    f"budget: client {client!r} is at its in-flight limit "
                    f"({max_inflight} goal(s))",
                )
                continue
            if headroom is not None:
                headroom -= 1
            admitted.append(problem)
        return admitted, rejected

    def _prover_config(self, request: dict) -> ProverConfig:
        # emit_proofs always: the store must hold certificates for the client
        # to receive on replay, and the library can only learn certified
        # lemmas.  Everything else mirrors the bench CLI's knobs.
        changes: Dict[str, object] = {"emit_proofs": True}
        timeout = request.get("timeout", self.config.timeout)
        if timeout is not None:
            changes["timeout"] = float(timeout)
        if request.get("falsify"):
            changes["falsify_first"] = True
        return ProverConfig().with_(**changes)

    def _plan_hints(
        self, state, problems, prover_config: ProverConfig, request: dict
    ) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """Decide which goals get library hints.

        A goal with a decisive *hintless* store entry is left alone — the
        replay path is strictly cheaper than any hinted attempt.  Everything
        else is offered the theory's verified lemmas (minus the goal's own
        equation: a goal must never be handed itself as a granted hypothesis),
        ranked by relevance: lemmas sharing the most function symbols with the
        goal come first, so the offer limit keeps likely rewrites instead of
        merely the oldest lemmas.  Returns ``(hypotheses for solve_suite,
        offers per goal)``.
        """
        hypotheses: Dict[str, List[str]] = {}
        offered: Dict[str, List[str]] = {}
        if self.library is None or request.get("use_hints") is False:
            return hypotheses, offered
        if self.library.lemma_count(state.fingerprint) == 0:
            return hypotheses, offered
        config_fp = config_fingerprint(prover_config)
        for problem in problems:
            if self._replayable(state, problem, config_fp):
                continue
            hints = self.library.hints_for(
                state.fingerprint,
                exclude={str(problem.goal.equation)},
                checker=state.checker,
                limit=self.config.hint_limit,
                goal_symbols=_equation_symbols(problem.goal.equation),
            )
            if hints:
                hypotheses[problem.name] = hints
                offered[problem.name] = hints
                with self.metrics.lock:
                    self.metrics.library_hints_offered += len(hints)
        return hypotheses, offered

    @staticmethod
    def _verdict_payload(
        record, offered: Dict[str, List[str]], trace: str = ""
    ) -> dict:
        payload = {
            "op": "verdict",
            "goal": record.name,
            "suite": record.suite,
            "status": record.status,
            "seconds": record.seconds,
            # Queue-wait attributed separately from solve time: what the goal
            # spent waiting for a worker, not proving (0 for store replays).
            "queued_seconds": record.queued_seconds,
            "cached": record.cached,
            "variant": record.variant,
            "hints_offered": record.hints_offered,
            "hint_steps": record.hint_steps,
        }
        if trace:
            payload["trace"] = trace
        if record.reason:
            payload["reason"] = record.reason
        if record.certificate is not None:
            payload["certificate"] = record.certificate
        if record.counterexample is not None:
            payload["counterexample"] = record.counterexample
        if offered.get(record.name):
            payload["hints"] = list(offered[record.name])
        return payload

    def _learn_lemmas(self, state, records, source: str) -> int:
        """Feed standalone certified proofs of this run into the library.

        A proof that *used* a granted hypothesis (``hint_steps > 0``) carries
        Hyp vertices, so its certificate does not stand alone; a proof that
        merely had hints on offer is fine.  Either way the certificate is
        re-checked hypothesis-free against the warm program before entering
        the library — a lemma that fails its own certificate must never be
        persisted, let alone offered.  (Replayed records re-add harmlessly:
        the library dedupes.)
        """
        if self.library is None:
            return 0
        learned = 0
        for record in records:
            if not record.proved or record.certificate is None:
                continue
            if record.hint_steps:
                continue
            problem = state.problems.get(record.name)
            goal = problem.goal if problem is not None else None
            if goal is None:
                cached = state.extra_problems.get(record.name)
                goal = cached[1].goal if cached is not None else None
            if goal is None or goal.conditions:
                continue
            equation = str(goal.equation)
            if self.library.certificate_for(state.fingerprint, equation) is not None:
                continue  # already held; skip the re-check
            report = state.checker.check(record.certificate, goal_equation=equation)
            if not report.ok or report.hypotheses:
                continue
            if self.library.add(
                state.fingerprint,
                equation,
                record.certificate,
                program_source=source,
            ):
                learned += 1
        return learned

    def _maybe_enrich(self, source: str, suite: str, fingerprint: str) -> None:
        if not self.config.explore or self.library is None or self._closing:
            return
        if fingerprint in self._enriched:
            return
        self._enriched.add(fingerprint)

        def work() -> None:
            try:
                enrich_library(source, suite, self.library)
            except Exception:  # noqa: BLE001 - enrichment is best-effort
                with self.metrics.lock:
                    self.metrics.errors += 1

        thread = threading.Thread(target=work, name=f"repro-enrich-{suite}", daemon=True)
        self._enrich_threads.append(thread)
        thread.start()

    # -- lifecycle ----------------------------------------------------------------

    def begin_shutdown(self, grace: Optional[float] = None) -> None:
        """Start draining: refuse new submits, bound everything in flight.

        Thread-safe and idempotent — this is what the daemon's SIGTERM/SIGINT
        handler calls while submits may be running in executor threads.  The
        shared pool fails all queued goals fast and bounds on-worker goals by
        ``grace``.
        """
        self._closing = True
        self.pool.request_shutdown(self.config.shutdown_grace if grace is None else grace)

    def close(self) -> None:
        """Drain, then flush and release the store and library (idempotent)."""
        if self._closed:
            return
        self.begin_shutdown()
        # Wait for in-flight submits to settle: the pool's drain
        # fails their remaining goals within shutdown_grace, so this converges.
        deadline = time.monotonic() + self.config.shutdown_grace + 10.0
        with self._lifecycle:
            while self._active_submits and time.monotonic() < deadline:
                self._lifecycle.wait(timeout=0.1)
            self._closed = True
        self.pool.close(timeout=self.config.shutdown_grace + 5.0)
        for thread in self._enrich_threads:
            thread.join(timeout=self.config.shutdown_grace)
        if self.store is not None:
            self.store.close()
        if self.library is not None:
            self.library.close()
        self.tracer.close()

    def __enter__(self) -> "ProofService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -----------------------------------------------------------------------------
# asyncio front-end
# -----------------------------------------------------------------------------


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


async def _handle_connection(service: ProofService, stop: asyncio.Event, reader, writer) -> None:
    loop = asyncio.get_running_loop()
    try:
        await _serve_connection(service, stop, loop, reader, writer)
    except asyncio.CancelledError:
        # Daemon teardown cancelled us mid-read; the client already got its
        # terminal line (or a closed socket, which the client maps to a clean
        # error).  Completing normally keeps the streams machinery quiet.
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except BaseException:  # noqa: BLE001 - includes CancelledError at teardown
            pass


async def _serve_connection(service: ProofService, stop: asyncio.Event, loop, reader, writer) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request is not an object")
            except ValueError as error:
                writer.write(_encode({"op": "error", "error": f"bad request line: {error}"}))
                await writer.drain()
                continue

            # The core is blocking (it runs proof search); stream its replies
            # back through an asyncio queue so verdicts reach the client as
            # they are decided, not when the whole request finishes.
            queue: asyncio.Queue = asyncio.Queue()
            done = object()

            def emit(payload: dict) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, payload)

            def run_request(req=request) -> None:
                try:
                    service.handle_request(req, emit)
                finally:
                    loop.call_soon_threadsafe(queue.put_nowait, done)

            future = loop.run_in_executor(None, run_request)
            terminal: Optional[dict] = None
            while True:
                payload = await queue.get()
                if payload is done:
                    break
                terminal = payload
                writer.write(_encode(payload))
                await writer.drain()
            await future
            if terminal is not None and terminal.get("op") == "bye":
                stop.set()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
        pass


async def serve(
    config: Optional[ServiceConfig] = None,
    *,
    ready: Optional[Callable[[], None]] = None,
) -> None:
    """Run the daemon until a shutdown request or SIGTERM/SIGINT.

    ``ready`` is called once the socket is listening (the tests and the CLI's
    startup message hook).  On the way out the service drains the in-flight
    request (bounded by :attr:`ServiceConfig.shutdown_grace`), flushes the
    store and library, and removes the socket file.
    """
    config = config or ServiceConfig()
    service = ProofService(config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def on_signal() -> None:
        # Runs on the event loop; the heavy lifting (killing stragglers) is
        # the worker pool's, triggered through the sticky shutdown flag.
        service.begin_shutdown()
        stop.set()

    installed: List[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, on_signal)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix loop
            pass

    socket_path = config.socket_path
    if os.path.exists(socket_path):
        # A previous daemon may have died without cleanup; binding over a live
        # socket must fail loudly, binding over a dead one must succeed.
        try:
            probe_reader, probe_writer = await asyncio.open_unix_connection(socket_path)
        except (ConnectionRefusedError, FileNotFoundError, OSError):
            os.unlink(socket_path)
        else:
            probe_writer.close()
            await probe_writer.wait_closed()
            service.close()
            raise ServiceError(f"another daemon is already serving on {socket_path}")

    connections: set = set()

    async def on_connection(reader, writer) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            await _handle_connection(service, stop, reader, writer)
        finally:
            connections.discard(task)

    server = await asyncio.start_unix_server(on_connection, path=socket_path)
    try:
        if ready is not None:
            ready()
        async with server:
            await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        server.close()
        await server.wait_closed()
        # Idle keep-alive connections would otherwise be cancelled abruptly
        # when the loop tears down; cancel them here, where the handler turns
        # cancellation into a quiet close.
        for task in list(connections):
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        # Drain the in-flight request off-loop: close() blocks on the submit
        # guard, and the executor thread holding it needs the loop alive to
        # flush its remaining replies.
        await loop.run_in_executor(None, service.close)
        try:
            os.unlink(socket_path)
        except OSError:  # pragma: no cover - already gone
            pass


def serve_forever(config: Optional[ServiceConfig] = None) -> int:
    """Blocking entry point for the CLI: run :func:`serve`, map errors to exits."""
    try:
        asyncio.run(serve(config, ready=lambda: print(
            f"repro serve: listening on {(config or ServiceConfig()).socket_path}",
            file=sys.stderr,
        )))
    except (ServiceError, StoreLockError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - signal handler normally wins
        return 0
    return 0
