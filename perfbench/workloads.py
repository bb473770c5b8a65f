"""The three workloads, each driven through the program's public entry points.

* ``isaplanner-decided`` — the goals of the pinned table that the default
  configuration decides well inside its budget, proved serially in process by
  ``Prover.prove``, a fresh ``Prover`` per pass, the seed fixing each pass's
  goal order.
* ``isaplanner-suite`` — all 85 IsaPlanner goals through
  ``harness.run_suite_parallel`` on ``nproc`` workers with no store: the
  Fig. 7 experiment.
* ``service-mixed`` — ``python -m repro serve`` on a store seeded with quick
  goals; one reader thread replays single goals while one writer thread
  submits single fresh conjectures, which the daemon must solve.

Each workload returns its operations (for the oracle), end-to-end figures
and, when traced, per-layer figures.  Every workload reports every metric of
``BENCHMARK.json``; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import calibrate, load_spec
from perfbench.oracle import THEOREM, Op, expected_of, surface
from perfbench.pinned import decided_goals, moved_verdicts, quick_decided_goals, quick_proved_goals
from perfbench.pinned import load as load_pinned
from perfbench.stats import Metric, percentile
from perfbench.tracing import Tracer

__all__ = ["WORKLOADS", "Outcome", "nproc"]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
SERVICE_SETUPS = 3

#: Fewest verdicts for a p90 with ten samples beyond it.
MIN_VERDICTS = 100
#: Fewest replays for a p99 with ten samples beyond it.
MIN_REPLAYS = 1000

#: A run stops adding passes after this long, whatever the minimums say, so
#: that it ends well inside the 180 s a run may take.
HARD_CAP_S = 120.0

#: Per-goal budget of ``isaplanner-suite`` (see README.md for its placement).
SUITE_BUDGET_S = 3.0

#: Pause of the ``service-mixed`` reader between a reply and its next
#: request.  Without it the reader alone keeps client and daemon busy on two
#: CPUs, and replay latency measures how the scheduler shares them with the
#: writer's worker rather than the replay path.
READER_THINK_S = 0.002

#: How often the ``service-mixed`` reader and writer run a calibration probe.
REPLAYS_PER_PROBE = 10
SOLVES_PER_PROBE = 10

#: Interpreter thread-switch interval while the two client threads run.  A
#: probe or a reply being decoded in one thread holds the interpreter lock;
#: at the default 5 ms the other thread's latency would carry that stall.
CLIENT_SWITCH_INTERVAL_S = 0.0005

#: Writer pool of ``service-mixed``: quick mutual-induction goals (the two
#: slow ones, mprop_04 and mprop_06, take 70-230 ms and are left out).
MUTUAL_QUICK = ("mprop_01", "mprop_02", "mprop_03", "mprop_05", "mprop_07", "mprop_08")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Outcome:
    """What one measured window produced."""

    ops: List[Op] = field(default_factory=list)
    e2e: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def _status_of(result) -> str:
    if result.proved:
        return "proved"
    if result.disproved:
        return "disproved"
    return "timeout" if result.statistics.timed_out else "failed"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _e2e(
    setup: List[float],
    passes: List[Tuple[float, int, int]],
    verdict_ms: List[float],
    goals_per_s: float,
) -> Dict[str, Metric]:
    """The end-to-end metrics shared by every workload.

    ``passes`` holds one ``(wall seconds, proved, proved under 100 ms)`` per
    completed pass over the workload's goal set.
    """
    return {
        "setup_s": Metric(_median(setup), "s", len(setup)),
        "solved": Metric(_median([p[1] for p in passes]), "count", len(passes)),
        "solved_under_100ms": Metric(_median([p[2] for p in passes]), "count", len(passes)),
        "suite_s": Metric(_median([p[0] for p in passes]), "s", len(passes)),
        "goals_per_s": Metric(goals_per_s, "1/s", len(verdict_ms)),
        "verdict_ms_p50": Metric(percentile(verdict_ms, 50), "ms", len(verdict_ms)),
        "verdict_ms_p90": Metric(
            percentile(verdict_ms, 90) if len(verdict_ms) >= MIN_VERDICTS else 0.0,
            "ms",
            len(verdict_ms),
        ),
    }


#: Where each engine phase (``SearchStatistics.phase_seconds``) is charged.
PHASE_LAYER = {
    "soundness": "sizechange",
    "normalise": "rewriting",
    "match": "core",
    "falsify": "semantics",
    "store": "engine",
}


def _phase_layers(phase_seconds: Dict[str, float]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for phase, seconds in phase_seconds.items():
        layer = PHASE_LAYER.get(phase, "search")
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def empty_layers() -> Dict[str, Metric]:
    """Every per-layer metric at 0, for the layers a workload leaves idle."""
    return {
        entry["name"]: Metric(0.0, entry["unit"], 0)
        for entry in load_spec()["per_layer"]
    }


def _fill(layers: Dict[str, Metric], values: Dict[str, Tuple[float, int]]) -> None:
    for name, (value, samples) in values.items():
        layers[name] = Metric(float(value), layers[name].unit, samples)


# -- isaplanner-decided -----------------------------------------------------------


class Decided:
    name = "isaplanner-decided"

    def __init__(self, seed: int, root: str):
        from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES, isaplanner_problems
        from repro.search.config import ProverConfig

        self.config = ProverConfig(emit_proofs=True)
        names = set(decided_goals())
        self.problems = [p for p in isaplanner_problems() if p.name in names]
        self.source = SUITE_PROGRAM_SOURCES["isaplanner"]
        self.rng = random.Random(seed)
        self.observed: Dict[str, List[str]] = {}

    def setup(self) -> float:
        """Elaborate the theory into a fresh term bank and build a ``Prover``."""
        from repro.core.interning import TermBank, use_bank
        from repro.lang import loader
        from repro.search.prover import Prover

        scale = calibrate.factor([calibrate.probe() for _ in range(3)])
        started = perf_counter()
        with use_bank(TermBank("perfbench-setup")):
            Prover(loader.load_program(self.source, name="isaplanner"), self.config)
        return (perf_counter() - started) * scale

    def open(self, workdir: str, trace_path: Optional[str]) -> None:
        """Prove the quick goals once, untimed: rewrite rules compile lazily."""
        from repro.search.prover import Prover

        quick = set(quick_decided_goals())
        prover = Prover(self.problems[0].program, self.config)
        for problem in self.problems:
            if problem.name in quick:
                prover.prove(problem.goal.equation, goal_name=problem.name)

    def close(self) -> None:
        pass

    def measure(self, seconds: float, tracer: Optional[Tracer], minimums: bool = True) -> Outcome:
        """Passes for ``seconds``; with ``minimums``, until 100 verdicts are in too."""
        from repro.search.prover import Prover

        min_verdicts = MIN_VERDICTS if minimums else 1
        out = Outcome()
        setup = [self.setup() for _ in range(SETUPS)]
        passes: List[Tuple[float, int, int]] = []
        verdict_ms: List[float] = []
        totals = {
            "nodes": 0, "subst": 0, "choice": 0, "checks": 0, "violations": 0,
            "compositions": 0, "hits": 0, "misses": 0, "compiled": 0, "fallback": 0,
            "proof_nodes": 0,
        }
        window = 0.0
        speed: List[float] = []
        per_goal: Dict[str, List[float]] = {}
        started = perf_counter()
        while True:
            order = list(self.problems)
            self.rng.shuffle(order)
            prover = Prover(order[0].program, self.config)
            probes: List[float] = []
            raw_ms: List[float] = []
            proofs: List[bool] = []
            pass_started = perf_counter()
            for problem in order:
                op = Op("prove", "isaplanner", problem.name, surface(problem.goal.equation), THEOREM)
                probes.append(calibrate.probe())
                begun = perf_counter()
                try:
                    result = prover.prove(problem.goal.equation, goal_name=problem.name)
                except Exception as error:  # noqa: BLE001 - counted by the oracle
                    op.error = f"{type(error).__name__}: {error}"
                    result = None
                raw_ms.append((perf_counter() - begun) * 1000.0)
                proofs.append(result is not None and result.proved)
                out.ops.append(op)
                if result is None:
                    continue
                op.status = _status_of(result)
                self.observed.setdefault(problem.name, []).append(op.status)
                if result.certificate is not None:
                    op.certificate = result.certificate
                stats = result.statistics
                totals["nodes"] += stats.nodes_created
                totals["subst"] += stats.subst_attempts
                totals["choice"] += stats.choice_points_expanded
                totals["checks"] += stats.soundness_checks
                totals["violations"] += stats.soundness_violations
                totals["compositions"] += stats.closure_compositions
                totals["hits"] += stats.normalizer_hits
                totals["misses"] += stats.normalizer_misses
                totals["compiled"] += stats.compiled_steps
                totals["fallback"] += stats.fallback_steps
                if result.proved:
                    totals["proof_nodes"] += len(result.proof.nodes)
            window += perf_counter() - pass_started
            # Each goal is scaled by the probes around it (the machine's
            # speed drifts within a pass); the pass wall is their sum.
            scaled = [
                ms * calibrate.factor(probes[max(0, i - 2): i + 3])
                for i, ms in enumerate(raw_ms)
            ]
            verdict_ms.extend(scaled)
            speed.extend(probes)
            for problem, ms in zip(order, scaled):
                per_goal.setdefault(problem.name, []).append(ms)
            passes.append((
                sum(scaled) / 1000.0,
                sum(proofs),
                sum(1 for ms, ok in zip(scaled, proofs) if ok and ms < 100.0),
            ))
            elapsed = perf_counter() - started
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(verdict_ms) >= min_verdicts):
                break
        for op in out.ops:
            if op.certificate is not None and not isinstance(op.certificate, dict):
                op.certificate = op.certificate.to_dict()
        # The pass wall is the sum of each goal's median over the passes: a
        # collection pause or a burst of load in one pass moves it less than
        # it moves that pass.
        goal_ms = [_median(times) for times in per_goal.values()]
        pass_s = sum(goal_ms) / 1000.0
        out.e2e = _e2e(setup, passes, verdict_ms, len(per_goal) / pass_s)
        out.e2e["suite_s"] = Metric(pass_s, "s", len(passes))
        # The typical goal is a quick one, so the median is taken over each
        # goal's median time: one pass's pause on a 4 ms goal does not move it.
        out.e2e["verdict_ms_p50"] = Metric(_median(goal_ms), "ms", len(verdict_ms))
        out.notes.append(f"speed factor {calibrate.factor(speed):.4f} (median of {len(speed)} probes)")
        if tracer is not None:
            seconds_by_layer, calls = tracer.snapshot()
            out.layers = empty_layers()
            n = len(verdict_ms)
            closure_s = seconds_by_layer["sizechange"]
            attributed = sum(seconds_by_layer.values()) - seconds_by_layer["lang"]
            _fill(out.layers, {
                "lang.elaborate_s": (seconds_by_layer["lang"] / len(setup), len(setup)),
                "core.match_s": (seconds_by_layer["core"], n),
                "core.match_calls": (calls.get("match_or_none", 0), n),
                "rewriting.normalise_s": (seconds_by_layer["rewriting"], n),
                "rewriting.normalise_calls": (calls.get("Normalizer.normalize", 0), n),
                "rewriting.nf_cache_hit_ratio": (
                    _ratio(totals["hits"], totals["hits"] + totals["misses"]), n),
                "rewriting.compiled_step_share": (
                    _ratio(totals["compiled"], totals["compiled"] + totals["fallback"]), n),
                "sizechange.closure_s": (closure_s, n),
                "sizechange.compositions": (totals["compositions"], n),
                "sizechange.compositions_per_s": (_ratio(totals["compositions"], closure_s), n),
                "sizechange.violation_ratio": (_ratio(totals["violations"], totals["checks"]), n),
                "sizechange.busy_share": (_ratio(closure_s, window), n),
                "search.self_s": (seconds_by_layer["search"], n),
                "search.nodes": (totals["nodes"], n),
                "search.choice_points": (totals["choice"], n),
                "search.subst_attempts": (totals["subst"], n),
                "search.proof_node_share": (_ratio(totals["proof_nodes"], totals["nodes"]), n),
                "proofs.encode_s": (seconds_by_layer["proofs"], n),
                "trace.window_s": (window, len(passes)),
                "trace.speed_factor": (calibrate.factor(speed), len(speed)),
                "trace.unattributed_share": (_ratio(window - attributed, window), n),
            })
        out.notes.append("pass walls at reference speed (s): " + " ".join(f"{p[0]:.3f}" for p in passes))
        out.notes.extend(moved_verdicts("decided", self.observed))
        return out


# -- isaplanner-suite ---------------------------------------------------------------


class Suite:
    name = "isaplanner-suite"

    def __init__(self, seed: int, root: str):
        from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES, isaplanner_problems
        from repro.search.config import ProverConfig

        self.jobs = nproc()
        self.config = ProverConfig(timeout=SUITE_BUDGET_S, emit_proofs=True)
        self.problems = isaplanner_problems()
        self.source = SUITE_PROGRAM_SOURCES["isaplanner"]
        self.observed: Dict[str, List[str]] = {}

    def setup(self) -> float:
        """Elaborate the theory into a fresh term bank and build its problem list."""
        from repro.benchmarks_data.registry import BenchmarkProblem
        from repro.core.interning import TermBank, use_bank
        from repro.lang import loader

        scale = calibrate.factor([calibrate.probe() for _ in range(3)])
        started = perf_counter()
        with use_bank(TermBank("perfbench-setup")):
            program = loader.load_program(self.source, name="isaplanner")
            [BenchmarkProblem(g.name, "isaplanner", g, program) for g in program.goals.values()]
        return (perf_counter() - started) * scale

    def open(self, workdir: str, trace_path: Optional[str]) -> None:
        pass

    def close(self) -> None:
        pass

    def measure(self, seconds: float, tracer: Optional[Tracer], minimums: bool = True) -> Outcome:
        """Suites for ``seconds``; with ``minimums``, until 100 verdicts are in too."""
        from repro.harness import runner

        min_verdicts = MIN_VERDICTS if minimums else 1
        out = Outcome()
        setup = [self.setup() for _ in range(SETUPS)]
        passes: List[Tuple[float, int, int]] = []
        verdict_ms: List[float] = []
        records = []
        engine = {"busy": 0.0, "capacity": 0.0}
        window = 0.0
        speed: List[float] = []
        equations = {p.name: surface(p.goal.equation) for p in self.problems}
        started = perf_counter()
        while True:
            pass_started = perf_counter()
            with calibrate.Sampler() as sampler:
                result = runner.run_suite_parallel(self.problems, config=self.config, jobs=self.jobs)
            wall = perf_counter() - pass_started
            window += wall
            speed.extend(sampler.samples)
            # Worker-side solve times are CPU-bound and scaled; timeouts are
            # bound by the wall-clock budget, and so is the suite's wall.
            scale = calibrate.factor(sampler.samples)
            proved = quick = 0
            for record in result.records:
                op = Op("suite", "isaplanner", record.name, equations[record.name], THEOREM,
                        status=record.status)
                op.certificate = record.certificate
                out.ops.append(op)
                self.observed.setdefault(record.name, []).append(record.status)
                records.append(record)
                # Every goal of the suite gets a verdict, out-of-scope ones at
                # once: leaving those out would put the median at the gap
                # between the quick proofs and the slow failures.
                ms = record.milliseconds * (1.0 if record.timed_out else scale)
                verdict_ms.append(ms)
                if record.proved:
                    proved += 1
                    quick += ms <= 100.0
            scheduler = getattr(result, "engine", None)
            if scheduler is not None:
                engine["busy"] += sum(
                    float(s.get("busy_seconds") or 0.0) for s in scheduler.worker_stats.values()
                )
                engine["capacity"] += scheduler.wall_seconds * self.jobs
            passes.append((wall, proved, quick))
            elapsed = perf_counter() - started
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(verdict_ms) >= min_verdicts):
                break
        out.notes.append(f"speed factor {calibrate.factor(speed):.4f} (median of {len(speed)} probes)")
        out.e2e = _e2e(setup, passes, verdict_ms, len(self.problems) / _median([p[0] for p in passes]))
        # As on isaplanner-decided, the median is over each goal's median:
        # a fresh worker compiles rewrite rules on first use, and which quick
        # goal pays for that changes from suite to suite.
        goal_ms: Dict[str, List[float]] = {}
        for record, ms in zip(records, verdict_ms):
            goal_ms.setdefault(record.name, []).append(ms)
        out.e2e["verdict_ms_p50"] = Metric(
            _median([_median(times) for times in goal_ms.values()]), "ms", len(verdict_ms)
        )
        if tracer is not None:
            out.layers = self._layers(tracer, records, engine, setup, window, len(passes))
            _fill(out.layers, {"trace.speed_factor": (calibrate.factor(speed), len(speed))})
        out.notes.append("suite walls (s): " + " ".join(f"{p[0]:.3f}" for p in passes))
        out.notes.extend(moved_verdicts("suite", self.observed))
        return out

    def _layers(self, tracer, records, engine, setup, window, passes) -> Dict[str, Metric]:
        seconds_by_layer, _ = tracer.snapshot()
        layers = empty_layers()
        phases: Dict[str, float] = {}
        counts = {"nodes": 0, "subst": 0, "choice": 0, "hits": 0, "misses": 0,
                  "compiled": 0, "fallback": 0, "encode": 0.0, "solve": 0.0, "queued": 0.0}
        overruns = []
        for record in records:
            for phase, value in record.phase_seconds.items():
                phases[phase] = phases.get(phase, 0.0) + value
            counts["nodes"] += record.nodes
            counts["subst"] += record.subst_attempts
            counts["choice"] += record.choice_points
            counts["hits"] += record.normalizer_hits
            counts["misses"] += record.normalizer_misses
            counts["compiled"] += record.compiled_steps
            counts["fallback"] += record.fallback_steps
            counts["encode"] += record.certificate_seconds
            counts["solve"] += record.seconds
            counts["queued"] += record.queued_seconds
            if record.timed_out:
                overruns.append((record.seconds - SUITE_BUDGET_S) * 1000.0)
        by_layer = _phase_layers(phases)
        n = len(records)
        worker_s = sum(phases.values())
        _fill(layers, {
            "lang.elaborate_s": (seconds_by_layer["lang"] / len(setup), len(setup)),
            "core.match_s": (by_layer.get("core", 0.0), n),
            "rewriting.normalise_s": (by_layer.get("rewriting", 0.0), n),
            "rewriting.nf_cache_hit_ratio": (
                _ratio(counts["hits"], counts["hits"] + counts["misses"]), n),
            "rewriting.compiled_step_share": (
                _ratio(counts["compiled"], counts["compiled"] + counts["fallback"]), n),
            "sizechange.closure_s": (by_layer.get("sizechange", 0.0), n),
            "sizechange.busy_share": (_ratio(by_layer.get("sizechange", 0.0), worker_s), n),
            "search.self_s": (by_layer.get("search", 0.0), n),
            "search.nodes": (counts["nodes"], n),
            "search.choice_points": (counts["choice"], n),
            "search.subst_attempts": (counts["subst"], n),
            "proofs.encode_s": (counts["encode"], n),
            "engine.worker_busy_share": (_ratio(engine["busy"], engine["capacity"]), passes),
            "engine.queue_wait_s": (counts["queued"], n),
            "engine.dispatch_overhead_s": (engine["busy"] - counts["solve"], passes),
            "engine.timeout_overrun_ms": (_median(overruns), len(overruns)),
            "trace.window_s": (window, passes),
            "trace.unattributed_share": (
                _ratio(window - sum(seconds_by_layer.values()) + seconds_by_layer["lang"], window), passes),
        })
        return layers


# -- service-mixed --------------------------------------------------------------------


class _Daemon:
    """One ``python -m repro serve`` process and a client for it."""

    def __init__(self, root: str, workdir: str, jobs: int, trace_path: Optional[str] = None):
        from repro.service.client import ServiceClient

        self.socket = os.path.join(os.path.relpath(workdir, root), "serve.sock")
        command = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket,
            "--store", os.path.join(workdir, "store.jsonl"),
            "--library", os.path.join(workdir, "library.jsonl"),
            "--jobs", str(jobs),
        ]
        if trace_path:
            command += ["--trace", trace_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(os.path.join(workdir, "serve.log"), "ab")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.client = ServiceClient(self.socket, timeout=60.0, connect_retries=0)

    def wait_ready(self, limit: float = 60.0) -> None:
        from repro.service.client import ServiceProtocolError

        deadline = time.monotonic() + limit
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.process.returncode}")
            try:
                self.client.ping()
                return
            except ServiceProtocolError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def stop(self) -> None:
        from repro.service.client import ServiceProtocolError

        try:
            if self.process.poll() is None:
                self.client.shutdown()
        except ServiceProtocolError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            self._log.close()


def _done_fields(done: dict) -> dict:
    """What the benchmark keeps of a ``done`` line."""
    return {
        "daemon_ms": float(done.get("seconds") or 0.0) * 1000.0,
        "dispatched": int(done.get("dispatched") or 0),
        "spawns": int(done.get("worker_spawns") or 0),
    }


class ServiceMixed:
    name = "service-mixed"

    def __init__(self, seed: int, root: str):
        from repro.benchmarks_data.registry import (
            SUITE_PROGRAM_SOURCES,
            false_conjectures_problems,
            isaplanner_problems,
            mutual_problems,
        )

        self.root = root
        self.jobs = nproc()
        self.sources = SUITE_PROGRAM_SOURCES
        quick = set(quick_proved_goals())
        isaplanner = [p for p in isaplanner_problems() if p.name in quick]
        self.replay_set = sorted(p.name for p in isaplanner)
        self.equations = {p.name: surface(p.goal.equation) for p in isaplanner}
        #: (theory, source goal, equation) — every conjecture the writer submits.
        self.pool: List[Tuple[str, str, str]] = (
            [("isaplanner", p.name, surface(p.goal.equation)) for p in isaplanner]
            + [("mutual", p.name, surface(p.goal.equation))
               for p in mutual_problems() if p.name in MUTUAL_QUICK]
            + [("false_conjectures", p.name, surface(p.goal.equation))
               for p in false_conjectures_problems() if not p.is_conditional]
        )
        self.rng = random.Random(seed)
        self.daemon: Optional[_Daemon] = None
        self.setup_samples: List[float] = []
        self.trace_path: Optional[str] = None
        self.seeded: Dict[str, str] = {}
        self._certificates: Dict[str, Optional[dict]] = {}

    # -- set-up -------------------------------------------------------------------

    def open(self, workdir: str, trace_path: Optional[str]) -> None:
        """Seed the store, start the daemon ``SERVICE_SETUPS`` times, warm it up.

        Each set-up sample runs from spawn until the first ``ping`` answers,
        with the replay set already in the store.  The last daemon stays up
        and serves one untimed writer pass, so that theory states and the
        lemma library are warm before anything is measured.
        """
        self.trace_path = trace_path
        seeder = _Daemon(self.root, workdir, self.jobs)
        try:
            seeder.wait_ready()
            done = seeder.client.submit(suite="isaplanner", goals=self.replay_set)
            self.seeded = {v["goal"]: v["status"] for v in done.verdicts}
        finally:
            seeder.stop()
        # Only goals the store now answers are replays.
        self.replay_set = [g for g in self.replay_set if self.seeded.get(g) == "proved"]
        samples = []
        for index in range(SERVICE_SETUPS):
            scale = calibrate.factor([calibrate.probe() for _ in range(3)])
            started = perf_counter()
            daemon = _Daemon(
                self.root, workdir, self.jobs,
                trace_path if index == SERVICE_SETUPS - 1 else None,
            )
            try:
                daemon.wait_ready()
            except Exception:
                daemon.stop()
                raise
            samples.append((perf_counter() - started) * scale)
            if index < SERVICE_SETUPS - 1:
                daemon.stop()
            else:
                self.daemon = daemon
        self.setup_samples = samples
        self._window(0.0, "u", 0, warmup=True)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # -- traffic --------------------------------------------------------------------

    def _replay(self, goal: str, ops: List[Op], rows: List[dict]) -> None:
        op = Op("replay", "isaplanner", goal, self.equations[goal], THEOREM,
                seeded_status=self.seeded[goal])
        begun = perf_counter()
        try:
            outcome = self.daemon.client.submit(suite="isaplanner", goals=[goal])
        except Exception as error:  # noqa: BLE001 - counted by the oracle
            op.error = f"{type(error).__name__}: {error}"
            outcome = None
        elapsed_ms = (perf_counter() - begun) * 1000.0
        ops.append(op)
        row = {"ms": elapsed_ms, "replied": False}
        if outcome is not None:
            verdict = outcome.verdict(goal) or {}
            op.status = str(verdict.get("status") or "")
            # Keep one copy of each distinct certificate: thousands of equal
            # copies would grow this process's heap, and its collections,
            # over the window.  The oracle still checks every distinct one.
            certificate = verdict.get("certificate")
            first = self._certificates.setdefault(goal, certificate)
            op.certificate = first if certificate == first else certificate
            row.update(_done_fields(outcome.done), replied=True)
        rows.append(row)

    def _solve(self, theory: str, name: str, equation: str, ops: List[Op], rows: List[dict]) -> None:
        op = Op("solve", theory, name, equation, expected_of(theory))
        begun = perf_counter()
        try:
            outcome = self.daemon.client.submit(
                suite=theory, conjectures=[(name, equation)], falsify=theory == "false_conjectures"
            )
        except Exception as error:  # noqa: BLE001 - counted by the oracle
            op.error = f"{type(error).__name__}: {error}"
            outcome = None
        elapsed_ms = (perf_counter() - begun) * 1000.0
        ops.append(op)
        row = {"ms": elapsed_ms, "replied": False, "proved": False}
        if outcome is not None:
            verdict = outcome.verdict(name) or {}
            op.status = str(verdict.get("status") or "")
            op.certificate = verdict.get("certificate")
            op.counterexample = verdict.get("counterexample")
            op.hints = tuple(verdict.get("hints") or ())
            row.update(
                _done_fields(outcome.done),
                replied=True,
                proved=op.status == "proved",
                queued_ms=float(verdict.get("queued_seconds") or 0.0) * 1000.0,
                instances=int((op.counterexample or {}).get("instances_tested") or 0),
            )
        rows.append(row)

    def _window(self, seconds: float, label: str, min_replays: int, warmup: bool = False):
        """Run the reader beside whole writer passes until ``seconds`` have gone.

        The window ends at a writer-pass boundary, so every window holds the
        same mix of quick and slow solves whatever the seed's pass order.
        With ``warmup`` the window is one writer pass: it fills the warm
        theory states and the lemma library before anything is timed.
        """
        rng = self.rng
        ops: List[Op] = []
        replays: List[dict] = []
        solves: List[dict] = []
        #: One ``(wall, first solve, end solve)`` per completed writer pass.
        passes: List[Tuple[float, int, int]] = []
        reader_probes: List[float] = []
        writer_probes: List[float] = []
        stop = threading.Event()
        reader_rng = random.Random(rng.random())
        writer_rng = random.Random(rng.random())
        prefix = f"w{label}{rng.getrandbits(32):08x}"
        errors: List[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set() or len(replays) < min_replays:
                    if len(replays) % REPLAYS_PER_PROBE == 0:
                        reader_probes.append(calibrate.probe())
                    self._replay(reader_rng.choice(self.replay_set), ops, replays)
                    if started + HARD_CAP_S < perf_counter():
                        break
                    time.sleep(READER_THINK_S)
            except BaseException as error:  # noqa: BLE001 - re-raised after join
                errors.append(error)

        def writer() -> None:
            counter = 0
            try:
                while True:
                    order = list(self.pool)
                    if not warmup:
                        # The warm-up keeps pool order, so that every seed
                        # starts from the same lemma library.
                        writer_rng.shuffle(order)
                    pass_started = perf_counter()
                    first = len(solves)
                    for theory, source, equation in order:
                        counter += 1
                        if counter % SOLVES_PER_PROBE == 1:
                            writer_probes.append(calibrate.probe())
                        name = f"{prefix}_{counter:05d}"
                        self._solve(theory, name, equation, ops, solves)
                        solves[-1]["source"] = f"{theory}/{source}"
                    passes.append((perf_counter() - pass_started, first, len(solves)))
                    elapsed = perf_counter() - started
                    if warmup or elapsed >= seconds or elapsed >= HARD_CAP_S:
                        break
            except BaseException as error:  # noqa: BLE001 - re-raised after join
                errors.append(error)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
        started = perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch_interval)
        window = perf_counter() - started
        if errors:
            raise errors[0]
        # Each operation is scaled by the median of the five probes of its
        # thread nearest to it: the machine's speed drifts within a window.
        for rows, probes, every in (
            (replays, reader_probes, REPLAYS_PER_PROBE),
            (solves, writer_probes, SOLVES_PER_PROBE),
        ):
            for index, row in enumerate(rows):
                at = index // every
                row["scale"] = calibrate.factor(probes[max(0, at - 2): at + 3])
        return ops, replays, solves, passes, window, reader_probes + writer_probes

    def measure(self, seconds: float, tracer: Optional[Tracer], minimums: bool = True) -> Outcome:
        """Reads beside writes for ``seconds``; with ``minimums``, until 1000 replays are in too."""
        out = Outcome()
        before = self.daemon.client.metrics()
        trace_from = time.time()
        label = "t" if tracer is not None else "m"
        ops, replays, solves, passes, window, speed = self._window(
            seconds, label, MIN_REPLAYS if minimums else 0
        )
        after = self.daemon.client.metrics()
        out.ops = ops
        # Client-observed times are CPU-bound end to end (client, daemon and
        # worker all compute), so all of them are scaled.
        scale = calibrate.factor(speed)
        for row in replays + solves:
            row["ms"] *= row["scale"]
        verdict_ms = [row["ms"] for row in replays + solves]
        scaled_passes = [
            (
                0.0,
                sum(1 for row in solves[first:end] if row["proved"]),
                sum(1 for row in solves[first:end] if row["proved"] and row["ms"] < 100.0),
            )
            for _, first, end in passes
        ]
        out.e2e = _e2e(self.setup_samples, scaled_passes, verdict_ms,
                       _ratio(len(verdict_ms), window * scale))
        # The writer pass is the sum of each pool goal's median solve time,
        # over every solve of the window: the two or three passes a window
        # completes are too few for a steady median of their walls.
        per_source: Dict[str, List[float]] = {}
        for row in solves:
            per_source.setdefault(row["source"], []).append(row["ms"])
        out.e2e["suite_s"] = Metric(
            sum(_median(times) for times in per_source.values()) / 1000.0, "s", len(solves)
        )
        out.notes.append(f"speed factor {scale:.4f} (median of {len(speed)} probes)")
        out.notes.extend(self._moved(ops, solves))
        out.notes.append(
            f"read/write share: {len(replays)} replays, {len(solves)} solves "
            f"({_ratio(len(replays), len(replays) + len(solves)):.3f} reads)"
        )
        out.layers = self._layers(replays, solves, before, after, window, tracer, trace_from)
        _fill(out.layers, {"trace.speed_factor": (scale, len(speed))})
        return out

    @staticmethod
    def _moved(ops: List[Op], solves: List[dict]) -> List[str]:
        """Pool goals whose solves did not come back as their source goal did."""
        table = load_pinned()
        statuses = [op.status for op in ops if op.kind == "solve"]
        observed: Dict[str, List[str]] = {}
        for row, status in zip(solves, statuses):
            observed.setdefault(row["source"], []).append(status or "missing")
        rows = []
        for source in sorted(observed):
            theory, goal = source.split("/", 1)
            if theory == "isaplanner":
                expected = table[goal]["decided"]["status"]
            else:
                expected = "disproved" if theory == "false_conjectures" else "proved"
            seen = observed[source]
            if any(status != expected for status in seen):
                counts = ", ".join(f"{s} x{seen.count(s)}" for s in sorted(set(seen)))
                rows.append(f"moved  service  {source} (as fresh conjectures): "
                            f"expected {expected}, observed {counts}")
        return rows

    def _layers(self, replays, solves, before, after, window, tracer, trace_from) -> Dict[str, Metric]:
        layers = empty_layers()

        def delta(key: str) -> float:
            return float(after.get(key) or 0) - float(before.get(key) or 0)

        replay_ms = [row["ms"] for row in replays]
        solve_ms = [row["ms"] for row in solves]
        daemon_ms = [row["daemon_ms"] for row in replays if row["replied"]]
        transport = [row["ms"] - row["daemon_ms"] for row in replays if row["replied"]]
        queued = [row["queued_ms"] for row in solves if row["replied"]]
        all_rows = replays + solves
        goals = delta("goals")
        warm = delta("warm_hits") + delta("warm_misses")
        values = {
            "service.replay_ms_p50": (percentile(replay_ms, 50), len(replay_ms)),
            "service.replay_ms_p99": (
                percentile(replay_ms, 99) if len(replay_ms) >= MIN_REPLAYS else 0.0, len(replay_ms)),
            "service.replays_per_s": (_ratio(len(replays), window), len(replays)),
            "service.solve_ms_p50": (percentile(solve_ms, 50), len(solve_ms)),
            "service.solve_ms_p90": (
                percentile(solve_ms, 90) if len(solve_ms) >= MIN_VERDICTS else 0.0, len(solve_ms)),
            "service.solves_per_s": (_ratio(len(solves), window), len(solves)),
            "service.read_share": (_ratio(len(replays), len(all_rows)), len(all_rows)),
            "service.replay_daemon_ms_p50": (_median(daemon_ms), len(daemon_ms)),
            "service.transport_ms_p50": (_median(transport), len(transport)),
            "service.store_hit_ratio": (_ratio(delta("store_hits"), goals), int(goals)),
            "service.queue_wait_ms_p50": (_median(queued), len(queued)),
            "service.worker_spawns": (sum(r.get("spawns", 0) for r in all_rows), len(all_rows)),
            "service.replay_dispatched": (
                sum(r.get("dispatched", 0) + r.get("spawns", 0) for r in replays), len(replays)),
            "service.warm_hit_ratio": (_ratio(delta("warm_hits"), warm), int(warm)),
            "service.hint_use_ratio": (
                _ratio(delta("library_hints_used"), delta("library_hints_offered")),
                int(delta("library_hints_offered"))),
            "service.lemmas_learned": (delta("lemmas_learned"), len(solves)),
            "engine.queue_wait_s": (sum(queued) / 1000.0, len(queued)),
            "trace.window_s": (window, 1),
        }
        if tracer is not None:
            seconds_by_layer, _ = tracer.snapshot()
            phases = self._daemon_phases(trace_from)
            by_layer = _phase_layers(phases)
            worker_s = sum(phases.values())
            instances = sum(r.get("instances", 0) for r in solves)
            values.update({
                "core.match_s": (by_layer.get("core", 0.0), len(solves)),
                "rewriting.normalise_s": (by_layer.get("rewriting", 0.0), len(solves)),
                "sizechange.closure_s": (by_layer.get("sizechange", 0.0), len(solves)),
                "sizechange.busy_share": (_ratio(by_layer.get("sizechange", 0.0), worker_s), len(solves)),
                "search.self_s": (by_layer.get("search", 0.0), len(solves)),
                "semantics.falsify_s": (by_layer.get("semantics", 0.0), len(solves)),
                "semantics.instances": (instances, len(solves)),
                "trace.unattributed_share": (
                    _ratio(window * 2 - seconds_by_layer["service"], window * 2), len(all_rows)),
            })
        _fill(layers, values)
        return layers

    def _daemon_phases(self, since: float) -> Dict[str, float]:
        """Worker phase seconds from the daemon's trace sink, after ``since``."""
        phases: Dict[str, float] = {}
        if not self.trace_path or not os.path.exists(self.trace_path):
            return phases
        with open(self.trace_path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    span = json.loads(line)
                except ValueError:
                    continue
                name = str(span.get("name") or "")
                if not name.startswith("phase:") or float(span.get("start") or 0) < since:
                    continue
                phase = name.split(":", 1)[1]
                seconds = float(span.get("end") or 0) - float(span.get("start") or 0)
                phases[phase] = phases.get(phase, 0.0) + seconds
        return phases


WORKLOADS: Dict[str, Callable] = {
    Decided.name: Decided,
    Suite.name: Suite,
    ServiceMixed.name: ServiceMixed,
}
