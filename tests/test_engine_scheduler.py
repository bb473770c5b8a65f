"""Tests for the multiprocess worker pool and ``run_suite_parallel``.

The parity tests use generous per-goal budgets so that no status sits near the
failed-vs-timeout wall-clock boundary (CPU contention inflates search times;
only goals with a wide margin have load-independent statuses).
"""

import multiprocessing
import os
import threading

import pytest

from repro.benchmarks_data import isaplanner_problems
from repro.engine import Task, WorkerPool, load_spec, solve_task
from repro.harness import run_suite, run_suite_parallel
from repro.search import ProverConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

SUBSET = ("prop_01", "prop_05", "prop_06", "prop_11", "prop_40", "prop_46")


@pytest.fixture(scope="module")
def subset_problems():
    wanted = set(SUBSET)
    return [p for p in isaplanner_problems() if p.name in wanted]


@pytest.fixture(scope="module")
def serial_result(subset_problems):
    return run_suite(subset_problems, ProverConfig(timeout=5.0), suite_name="subset")


class TestLoadSpec:
    def test_resolves_module_attribute(self):
        resolver = load_spec("repro.benchmarks_data.registry:all_problems")
        assert callable(resolver)

    def test_passes_callables_and_none_through(self):
        fn = lambda: ()  # noqa: E731
        assert load_spec(fn) is fn
        assert load_spec(None) is None

    def test_rejects_malformed_specs(self):
        with pytest.raises(ValueError):
            load_spec("no-colon")


class TestSolveTask:
    """solve_task is the worker's core, exercised here in-process."""

    def task_for(self, problem, **config_changes):
        from dataclasses import asdict

        config = ProverConfig(timeout=5.0).with_(**config_changes)
        return Task(
            uid=0, index=0, suite=problem.suite, name=problem.name,
            variant="v", config=asdict(config),
        ).to_wire()

    def test_proves_an_easy_goal(self, subset_problems):
        problem = next(p for p in subset_problems if p.name == "prop_01")
        outcome = solve_task(problem, self.task_for(problem))
        assert outcome["status"] == "proved"
        assert outcome["nodes"] > 0

    def test_conditional_goal_is_out_of_scope(self, subset_problems):
        problem = next(p for p in subset_problems if p.name == "prop_05")
        outcome = solve_task(problem, self.task_for(problem))
        assert outcome["status"] == "out-of-scope"

    def test_unknown_problem_fails_gracefully(self):
        outcome = solve_task(None, {"key": "isaplanner/prop_99"})
        assert outcome["status"] == "failed"
        assert "unknown problem" in outcome["reason"]

    def test_timeout_is_a_distinct_status(self):
        problem = next(p for p in isaplanner_problems() if p.name == "prop_54")
        outcome = solve_task(problem, self.task_for(problem, timeout=0.2))
        assert outcome["status"] == "timeout"

    def test_unparsable_hint_fails(self, subset_problems):
        problem = next(p for p in subset_problems if p.name == "prop_01")
        task = self.task_for(problem)
        task["hints"] = ("this is === not a term %%%",)
        outcome = solve_task(problem, task)
        assert outcome["status"] == "failed"
        assert "hint" in outcome["reason"]


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestRunSuiteParallel:
    def test_statuses_and_order_match_serial(self, subset_problems, serial_result):
        parallel = run_suite_parallel(
            subset_problems, ProverConfig(timeout=5.0), suite_name="subset", jobs=2
        )
        assert [r.name for r in parallel.records] == [r.name for r in serial_result.records]
        assert [(r.name, r.status) for r in parallel.records] == [
            (r.name, r.status) for r in serial_result.records
        ]
        # Both paths build records through one constructor, so the search
        # counters of a proved goal agree field for field.
        compared = (
            "status", "nodes", "subst_attempts", "soundness_violations",
            "closure_compositions", "strategy", "max_agenda_size", "choice_points",
        )
        proved = [r for r in serial_result.records if r.proved]
        assert proved
        for serial in proved:
            record = parallel.record(serial.name)
            assert [getattr(record, f) for f in compared] == [
                getattr(serial, f) for f in compared
            ], serial.name

    def test_summary_counts_match_serial(self, subset_problems, serial_result):
        parallel = run_suite_parallel(
            subset_problems, ProverConfig(timeout=5.0), suite_name="subset", jobs=3
        )
        serial_summary = serial_result.summary()
        parallel_summary = parallel.summary()
        for key in ("suite", "total", "solved", "out_of_scope", "failed", "timeout"):
            assert parallel_summary[key] == serial_summary[key]

    def test_records_carry_worker_provenance(self, subset_problems):
        parallel = run_suite_parallel(subset_problems, ProverConfig(timeout=5.0), jobs=2)
        attempted = [r for r in parallel.records if r.status != "out-of-scope"]
        assert attempted and all(r.worker >= 0 for r in attempted)
        assert all(r.variant == "paper-default" for r in attempted)
        out_of_scope = [r for r in parallel.records if r.status == "out-of-scope"]
        assert all(r.worker == -1 for r in out_of_scope)

    def test_progress_callback_sees_every_problem(self, subset_problems):
        seen = []
        run_suite_parallel(
            subset_problems, ProverConfig(timeout=5.0), jobs=2, progress=seen.append
        )
        assert sorted(r.name for r in seen) == sorted(p.name for p in subset_problems)

    def test_hints_cross_the_process_boundary(self):
        problems = [p for p in isaplanner_problems() if p.name == "prop_54"]
        program = problems[0].program
        hints = {"prop_54": [program.parse_equation("add a b === add b a")]}
        result = run_suite_parallel(
            problems, ProverConfig(timeout=10.0), jobs=1, hypotheses=hints
        )
        assert result.record("prop_54").proved

    def test_empty_suite(self):
        result = run_suite_parallel([], ProverConfig(timeout=1.0), suite_name="empty", jobs=2)
        assert result.total == 0
        assert result.summary()["solved"] == 0


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestCrashIsolation:
    def test_worker_crash_loses_only_its_goal(self, subset_problems):
        result = run_suite_parallel(
            subset_problems,
            ProverConfig(timeout=5.0),
            jobs=2,
            worker_hook="engine_hooks:crash_on_prop_11",
        )
        crashed = result.record("prop_11")
        assert crashed.status == "failed"
        assert "crashed" in crashed.reason and "23" in crashed.reason
        # every other goal still got its normal outcome
        for name in ("prop_01", "prop_06", "prop_40", "prop_46"):
            assert result.record(name).proved
        assert result.record("prop_05").status == "out-of-scope"
        # the pool respawned the dead worker
        assert sum(s["respawns"] for s in result.engine.worker_stats.values()) >= 1

    def test_hung_worker_is_hard_killed(self):
        problems = [p for p in isaplanner_problems() if p.name in ("prop_01", "prop_11")]
        result = run_suite_parallel(
            problems,
            ProverConfig(timeout=0.3),
            jobs=2,
            worker_hook="engine_hooks:hang_on_prop_11",
            hard_kill_grace=0.5,
        )
        hung = result.record("prop_11")
        assert hung.status == "timeout"
        assert "hard deadline" in hung.reason
        assert result.record("prop_01").proved


def run_on_pool(resolver, tasks, jobs=1):
    """Run ``tasks`` as one session of a fresh pool; returns (results, session, pool)."""
    pool = WorkerPool(jobs=jobs)
    try:
        session = pool.session(resolver)
        return session.run(tasks), session, pool
    finally:
        pool.close()


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestPoolSessionDirectly:
    def test_custom_resolver_restricts_the_problem_set(self):
        from dataclasses import asdict

        config = asdict(ProverConfig(timeout=5.0))
        tasks = [
            Task(uid=0, index=0, suite="isaplanner", name="prop_01",
                 variant="v", config=config),
            Task(uid=1, index=1, suite="isaplanner", name="prop_40",
                 variant="v", config=config),
        ]
        results, _, _ = run_on_pool("engine_hooks:tiny_resolver", tasks)
        assert results[0]["status"] == "proved"
        # prop_40 is not produced by the tiny resolver
        assert results[1]["status"] == "failed"
        assert "unknown problem" in results[1]["reason"]

    def test_zero_tasks(self):
        results, session, pool = run_on_pool("engine_hooks:tiny_resolver", [], jobs=2)
        assert results == {}
        assert session.worker_stats == {}
        assert session.worker_spawns == 0
        assert pool.snapshot()["spawns"] == 0

    def test_program_fingerprint_mismatch_fails_the_task(self):
        """A resolver rebuilding a *different* program must not silently solve."""
        from dataclasses import asdict

        task = Task(uid=0, index=0, suite="isaplanner", name="prop_01",
                    variant="v", config=asdict(ProverConfig(timeout=2.0)),
                    program="not-the-real-fingerprint")
        results, _, _ = run_on_pool("engine_hooks:tiny_resolver", [task])
        assert results[0]["status"] == "failed"
        assert "fingerprint mismatch" in results[0]["reason"]

    def test_broken_resolver_fails_tasks_not_the_run(self):
        from dataclasses import asdict

        task = Task(uid=0, index=0, suite="isaplanner", name="prop_01",
                    variant="v", config=asdict(ProverConfig(timeout=2.0)))
        results, _, _ = run_on_pool("engine_hooks:does_not_exist", [task])
        assert results[0]["status"] == "failed"
        assert "initialisation" in results[0]["reason"]


def _dispatch_threads():
    return [t for t in threading.enumerate() if t.name == "repro-pool-dispatch" and t.is_alive()]


def _run_interrupted(script: str) -> str:
    """Run ``script`` in a fresh interpreter (it SIGINTs itself); its stdout."""
    import subprocess
    import sys

    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestEphemeralPoolLifecycle:
    """A batch run builds its own pool and must leave no worker or thread behind."""

    def test_no_workers_or_dispatcher_survive_a_run(self, subset_problems):
        run_suite_parallel(subset_problems[:2], ProverConfig(timeout=5.0), jobs=2)
        assert multiprocessing.active_children() == []
        assert _dispatch_threads() == []

    def test_no_workers_or_dispatcher_survive_a_raising_progress_callback(self, subset_problems):
        def progress(record):
            raise RuntimeError("progress sink broke")

        with pytest.raises(RuntimeError, match="progress sink broke"):
            run_suite_parallel(
                [p for p in subset_problems if p.name == "prop_01"],
                ProverConfig(timeout=5.0),
                jobs=2,
                progress=progress,
            )
        assert multiprocessing.active_children() == []
        assert _dispatch_threads() == []

    def test_a_raising_progress_callback_stops_the_batch(self, subset_problems):
        """Pending goals are withheld once a callback raised; none is dispatched."""
        import time

        def progress(record):
            raise RuntimeError("progress sink broke")

        # One worker: prop_01 settles first, and prop_11 would then hang its
        # worker for the full budget plus the kill grace (10 s) if dispatched.
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="progress sink broke"):
            run_suite_parallel(
                [p for p in subset_problems if p.name in ("prop_01", "prop_11")],
                ProverConfig(timeout=5.0),
                jobs=1,
                progress=progress,
                worker_hook="engine_hooks:hang_on_prop_11",
            )
        assert time.monotonic() - started < 5.0
        assert multiprocessing.active_children() == []
        assert _dispatch_threads() == []

    def test_ctrl_c_tears_the_pool_down_promptly(self, tmp_path):
        """An interrupt while waiting on the batch must not stall pool shutdown,
        nor report or store the goals the teardown abandons."""
        import json

        store = tmp_path / "store.jsonl"
        script = (
            "import multiprocessing, os, signal, threading, time\n"
            "from repro.benchmarks_data import isaplanner_problems\n"
            "from repro.harness import run_suite_parallel\n"
            "from repro.search import ProverConfig\n"
            "problems = [p for p in isaplanner_problems() if p.name in ('prop_01', 'prop_11')]\n"
            "reported = []\n"
            "threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()\n"
            "started = time.monotonic()\n"
            "try:\n"
            "    run_suite_parallel(problems, ProverConfig(timeout=60.0), jobs=2,\n"
            f"                       store={str(store)!r},\n"
            "                       progress=lambda record: reported.append(record.name),\n"
            "                       worker_hook='engine_hooks:hang_on_prop_11')\n"
            "except KeyboardInterrupt:\n"
            "    print(time.monotonic() - started, len(multiprocessing.active_children()),\n"
            "          ','.join(reported))\n"
        )
        elapsed, children, reported = _run_interrupted(script).split()
        # The hung worker is killed when the pool closes; a session left
        # registered after the interrupt would hold close() for 10 s more.
        assert float(elapsed) < 8.0
        assert children == "0"
        # prop_01 was proved before the interrupt; the killed prop_11 is
        # neither reported nor stored (a warm run would replay it as failed).
        assert reported == "prop_01"
        goals = [json.loads(line)["goal"] for line in store.read_text().splitlines()]
        assert any("prop_01" in goal for goal in goals)
        assert not any("prop_11" in goal for goal in goals)

    def test_an_interrupted_session_receives_no_more_outcomes(self):
        """Goals the pool fails while closing never reach the session's callback."""
        script = (
            "import os, signal, threading\n"
            "from dataclasses import asdict\n"
            "from repro.engine import Task, WorkerPool\n"
            "from repro.search import ProverConfig\n"
            "config = asdict(ProverConfig(timeout=60.0))\n"
            "tasks = [Task(uid=0, index=0, suite='isaplanner', name='prop_11',\n"
            "              variant='v', config=config)]\n"
            "seen = []\n"
            "pool = WorkerPool(jobs=1, worker_hook='engine_hooks:hang_on_prop_11')\n"
            "threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()\n"
            "try:\n"
            "    pool.session('repro.benchmarks_data.registry:all_problems').run(\n"
            "        tasks, on_result=lambda task, outcome, cancel: seen.append(outcome))\n"
            "except KeyboardInterrupt:\n"
            "    pool.close()\n"
            "    print(len(seen))\n"
        )
        assert _run_interrupted(script).split() == ["0"]

    def test_pool_is_sized_by_the_task_count(self, subset_problems):
        one_goal = [p for p in subset_problems if p.name == "prop_01"]
        result = run_suite_parallel(one_goal, ProverConfig(timeout=5.0), jobs=4)
        assert result.record("prop_01").proved
        assert result.engine.worker_spawns == 1
