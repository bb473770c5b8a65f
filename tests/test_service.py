"""The proof service: warm state, lemma library, protocol, and shutdown.

Covers the service core in-process (no socket), the asyncio daemon over a
real unix socket, the lemma-library verification gate, the advisory store
lock, and the graceful-shutdown paths (drained scheduler, killed worker,
daemon dying mid-request yielding a clean client error).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.scheduler import Task, WorkerPool
from repro.engine.store import ResultStore, StoreLockError
from repro.proofs.certificate import canonical_json
from repro.search.config import ProverConfig
from repro.service import (
    LemmaLibrary,
    ProofService,
    ServiceClient,
    ServiceConfig,
    ServiceProtocolError,
    WarmStateCache,
)
from repro.service.library import LIBRARY_SCHEMA_VERSION, enrich_library
from repro.service.server import serve


def make_service(tmp_path, **overrides) -> ProofService:
    defaults = dict(
        store_path=str(tmp_path / "store.jsonl"),
        library_path=str(tmp_path / "library.jsonl"),
        timeout=3.0,
        jobs=1,
    )
    defaults.update(overrides)
    return ProofService(ServiceConfig(**defaults))


def submit(service: ProofService, **request):
    events = []
    service.handle_request(dict(request, op="submit"), events.append)
    assert events, "submit produced no reply lines"
    return events


def done_line(events):
    assert events[-1]["op"] in ("done", "error"), events[-1]
    return events[-1]


def verdict(events, goal: str) -> dict:
    for event in events:
        if event.get("op") == "verdict" and event.get("goal") == goal:
            return event
    raise AssertionError(f"no verdict for {goal} in {events}")


class TestWarmPath:
    def test_cold_then_warm_replay_is_workerless_and_byte_identical(self, tmp_path):
        service = make_service(tmp_path)
        try:
            cold = submit(service, suite="isaplanner", goals=["prop_01"])
            assert done_line(cold)["proved"] == 1
            assert done_line(cold)["worker_spawns"] >= 1

            warm = submit(service, suite="isaplanner", goals=["prop_01"])
            summary = done_line(warm)
            assert summary["proved"] == 1
            assert summary["store_hits"] == 1
            # The warm path must not spawn a single worker process.
            assert summary["worker_spawns"] == 0
            assert verdict(warm, "prop_01")["cached"] is True

            # The replayed certificate is byte-for-byte the stored one.
            first = verdict(cold, "prop_01")["certificate"]
            second = verdict(warm, "prop_01")["certificate"]
            assert first is not None
            assert canonical_json(first) == canonical_json(second)
        finally:
            service.close()

    def test_warm_state_cache_reuses_and_evicts(self, tmp_path):
        cache = WarmStateCache(capacity=1)
        from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES

        state, was_warm = cache.get(SUITE_PROGRAM_SOURCES["mutual"], "mutual")
        assert not was_warm
        again, was_warm = cache.get(SUITE_PROGRAM_SOURCES["mutual"], "mutual")
        assert was_warm and again is state
        cache.get(SUITE_PROGRAM_SOURCES["isaplanner"], "isaplanner")
        assert cache.snapshot()["evictions"] == 1
        assert SUITE_PROGRAM_SOURCES["mutual"] not in cache

    def test_submitted_source_shares_warm_state_by_text(self, tmp_path):
        service = make_service(tmp_path)
        source = "data Nat = Z | S Nat\n\nadd :: Nat -> Nat -> Nat\nadd Z y = y\nadd (S x) y = S (add x y)\n"
        try:
            first = submit(
                service, source=source,
                conjectures=[{"name": "idl", "equation": "add Z n === n"}],
            )
            assert done_line(first)["proved"] == 1
            assert done_line(first)["warm"] is False
            second = submit(
                service, source=source,
                conjectures=[{"name": "idl", "equation": "add Z n === n"}],
            )
            assert done_line(second)["warm"] is True
            assert done_line(second)["worker_spawns"] == 0
        finally:
            service.close()

    def test_request_errors_are_lines_not_crashes(self, tmp_path):
        service = make_service(tmp_path)
        try:
            events = submit(service, suite="isaplanner", goals=["prop_999"])
            assert events[-1]["op"] == "error"
            assert "prop_999" in events[-1]["error"]

            events = submit(service, source="this is not a program")
            assert events[-1]["op"] == "error"
            assert "elaborate" in events[-1]["error"]

            out = []
            service.handle_request({"op": "frobnicate"}, out.append)
            assert out[-1]["op"] == "error"
            assert service.metrics.errors == 3
        finally:
            service.close()


class TestLemmaLibrary:
    def test_lemma_learned_then_offered_and_used(self, tmp_path):
        """The tentpole flow: goal A's proof becomes goal B's hint."""
        service = make_service(tmp_path)
        try:
            learned = submit(
                service, suite="isaplanner",
                conjectures=[{"name": "add_comm", "equation": "add a b === add b a"}],
            )
            assert done_line(learned)["proved"] == 1
            assert done_line(learned)["lemmas_learned"] == 1

            # prop_54 is unprovable hintless at this budget but falls to the
            # commutativity lemma (the hinted dispatch must report hint use).
            assisted = submit(service, suite="isaplanner", goals=["prop_54"], timeout=8.0)
            summary = done_line(assisted)
            assert summary["proved"] == 1
            assert summary["library_hints_offered"] >= 1
            assert summary["library_hints_used"] >= 1
            entry = verdict(assisted, "prop_54")
            assert entry["hint_steps"] >= 1
            assert any("add" in hint for hint in entry["hints"])
        finally:
            service.close()

    def test_library_persists_and_verifies_across_instances(self, tmp_path):
        path = str(tmp_path / "lib.jsonl")
        service = make_service(tmp_path, library_path=path)
        try:
            submit(service, suite="isaplanner",
                   conjectures=[{"name": "add_comm", "equation": "add a b === add b a"}])
        finally:
            service.close()
        library = LemmaLibrary(path)
        try:
            assert len(library) == 1
            report = library.verify_all()
            assert report == {"verified": 1, "rejected": 0}
        finally:
            library.close()

    def test_tampered_certificates_are_rejected_not_offered(self, tmp_path):
        path = str(tmp_path / "lib.jsonl")
        fingerprint = "f" * 64
        with LemmaLibrary(path) as library:
            library.add(fingerprint, "add a b === add b a", {"nodes": "garbage"},
                        program_source="data Nat = Z | S Nat\n")
        with LemmaLibrary(path) as library:
            assert library.lemma_count(fingerprint) == 1
            assert library.hints_for(fingerprint) == []
            assert library.snapshot()["rejected"] == 1

    def test_foreign_schema_lines_are_skipped_loudly(self, tmp_path):
        path = tmp_path / "lib.jsonl"
        path.write_text(json.dumps({
            "schema": LIBRARY_SCHEMA_VERSION + 1, "kind": "lemma",
            "program": "a" * 64, "equation": "x === x", "certificate": {},
        }) + "\n")
        with pytest.warns(RuntimeWarning, match="schema"):
            with LemmaLibrary(str(path)) as library:
                assert len(library) == 0

    def test_hints_exclude_the_goal_itself(self, tmp_path):
        service = make_service(tmp_path)
        try:
            submit(service, suite="isaplanner",
                   conjectures=[{"name": "add_comm", "equation": "add a b === add b a"}])
            state, _ = service.cache.get(
                __import__("repro.benchmarks_data.registry", fromlist=["x"]).SUITE_PROGRAM_SOURCES["isaplanner"],
                "isaplanner",
            )
            lemma = next(iter(service.library._lemmas[state.fingerprint]))
            hints = service.library.hints_for(
                state.fingerprint, exclude={lemma}, checker=state.checker
            )
            assert lemma not in hints
        finally:
            service.close()

    def test_enrich_library_stores_only_certified_lemmas(self, tmp_path):
        from repro.exploration.explorer import ExplorationConfig

        path = str(tmp_path / "enriched.jsonl")
        source = (
            "data Nat = Z | S Nat\n\n"
            "add :: Nat -> Nat -> Nat\n"
            "add Z y = y\n"
            "add (S x) y = S (add x y)\n"
        )
        with LemmaLibrary(path) as library:
            added = enrich_library(
                source, "nat", library,
                prover_config=ProverConfig(timeout=2.0),
                exploration=ExplorationConfig(max_lemmas=4, total_budget=10.0),
            )
            assert added == len(library)
            assert library.verify_all()["rejected"] == 0


class TestShutdown:
    def test_pool_drains_pending_and_kills_stragglers(self):
        pool = WorkerPool(jobs=1, worker_hook="engine_hooks:hang_on_prop_11")
        config = ProverConfig(timeout=30.0)
        from dataclasses import asdict

        tasks = [
            Task(uid=0, index=0, suite="isaplanner", name="prop_11",
                 variant="base", config=asdict(config)),
            Task(uid=1, index=1, suite="isaplanner", name="prop_01",
                 variant="base", config=asdict(config)),
        ]
        timer = threading.Timer(1.0, pool.request_shutdown, kwargs={"grace": 0.5})
        timer.start()
        started = time.monotonic()
        try:
            results = pool.session("engine_hooks:tiny_resolver").run(tasks)
        finally:
            timer.cancel()
            pool.close()
        elapsed = time.monotonic() - started
        # Far below the 30 s task budget: the hung worker was killed at the
        # shutdown grace, and the queued task never dispatched.
        assert elapsed < 15.0
        assert "service shutting down" in results[0]["reason"]
        assert "service shutting down" in results[1]["reason"]
        assert pool.shutting_down

    def test_worker_crash_mid_request_is_a_clean_failure(self, tmp_path):
        service = make_service(
            tmp_path, worker_hook="engine_hooks:crash_on_prop_11", timeout=10.0
        )
        try:
            events = submit(service, suite="isaplanner", goals=["prop_11", "prop_01"])
            summary = done_line(events)
            assert summary["op"] == "done"  # the request completes, no hang
            assert verdict(events, "prop_01")["status"] == "proved"
            crashed = verdict(events, "prop_11")
            assert crashed["status"] == "failed"
            assert "worker crashed" in crashed["reason"]
            # Crash outcomes are environmental: they must not poison the store.
            warm = submit(service, suite="isaplanner", goals=["prop_11", "prop_01"])
            assert verdict(warm, "prop_11")["cached"] is False
        finally:
            service.close()

    def test_closing_service_refuses_new_submissions(self, tmp_path):
        service = make_service(tmp_path)
        service.begin_shutdown()
        events = submit(service, suite="isaplanner", goals=["prop_01"])
        assert events[-1]["op"] == "error"
        assert "shutting down" in events[-1]["error"]
        service.close()
        service.close()  # idempotent


class TestStoreLock:
    def test_second_process_gets_one_line_error(self, tmp_path):
        path = str(tmp_path / "locked.jsonl")
        store = ResultStore(path)
        try:
            probe = subprocess.run(
                [sys.executable, "-c",
                 "import sys\n"
                 "from repro.engine.store import ResultStore, StoreLockError\n"
                 f"path = {path!r}\n"
                 "try:\n"
                 "    ResultStore(path)\n"
                 "except StoreLockError as error:\n"
                 "    message = str(error)\n"
                 "    assert '\\n' not in message, 'must be a one-line error'\n"
                 "    print(message)\n"
                 "    sys.exit(42)\n"
                 "sys.exit(0)\n"],
                capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            )
            assert probe.returncode == 42, probe.stderr
            assert "locked" in probe.stdout or "held" in probe.stdout
        finally:
            store.close()

    def test_same_process_reopen_is_allowed(self, tmp_path):
        # solve_suite leaves the store attached to its result while the
        # service holds its own handle; same-process multi-open must work.
        path = str(tmp_path / "shared.jsonl")
        first = ResultStore(path)
        second = ResultStore(path)
        first.close()
        second.close()

    def test_lock_false_bypasses_the_guard(self, tmp_path):
        path = str(tmp_path / "readonly.jsonl")
        writer = ResultStore(path)
        try:
            reader = ResultStore(path, lock=False)
            reader.close()
        finally:
            writer.close()

    def test_released_lock_can_be_retaken(self, tmp_path):
        path = str(tmp_path / "cycle.jsonl")
        store = ResultStore(path)
        store.close()
        again = ResultStore(path)
        again.close()


class TestDaemonOverSocket:
    @pytest.fixture()
    def daemon(self, tmp_path):
        config = ServiceConfig(
            socket_path=str(tmp_path / "repro.sock"),
            store_path=str(tmp_path / "store.jsonl"),
            library_path=str(tmp_path / "library.jsonl"),
            timeout=3.0,
            jobs=1,
        )
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(serve(config, ready=ready.set)), daemon=True
        )
        thread.start()
        assert ready.wait(20.0), "daemon did not come up"
        client = ServiceClient(config.socket_path, timeout=120.0)
        yield client, config
        if thread.is_alive():
            try:
                client.shutdown()
            except ServiceProtocolError:
                pass
            thread.join(timeout=20.0)
        assert not thread.is_alive()

    def test_cold_warm_library_end_to_end(self, daemon):
        client, config = daemon
        assert client.ping()["protocol"] == 1

        cold = client.submit(suite="isaplanner", goals=["prop_01"])
        assert cold.all_proved and cold.worker_spawns >= 1

        warm = client.submit(suite="isaplanner", goals=["prop_01"])
        assert warm.all_proved
        assert warm.worker_spawns == 0
        assert canonical_json(cold.verdict("prop_01")["certificate"]) == canonical_json(
            warm.verdict("prop_01")["certificate"]
        )

        lemma = client.submit(
            suite="isaplanner", conjectures=[("add_comm", "add a b === add b a")]
        )
        assert lemma.all_proved
        assisted = client.submit(suite="isaplanner", goals=["prop_54"], timeout=8.0)
        assert assisted.all_proved
        assert assisted.verdict("prop_54")["hint_steps"] >= 1

        metrics = client.metrics()
        assert metrics["store_hits"] >= 1
        assert metrics["library_hints_used"] >= 1

        reply = client.shutdown()
        assert reply["op"] == "bye"
        deadline = time.monotonic() + 20.0
        while os.path.exists(config.socket_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not os.path.exists(config.socket_path)

    def test_submission_error_streams_back_cleanly(self, daemon):
        client, _ = daemon
        with pytest.raises(ServiceProtocolError, match="prop_999"):
            client.submit(suite="isaplanner", goals=["prop_999"])


class TestClientRobustness:
    def test_connection_dying_mid_request_is_an_error_not_a_hang(self, tmp_path):
        """A daemon that vanishes before the terminal line must surface as a
        clean client error (bounded by the client timeout), never a hang."""
        path = str(tmp_path / "dying.sock")
        listener = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def half_answer():
            connection, _ = listener.accept()
            connection.recv(4096)
            # One verdict, then the "process died" silence.
            connection.sendall(b'{"op": "verdict", "goal": "prop_01", "status": "proved"}\n')
            connection.close()

        thread = threading.Thread(target=half_answer, daemon=True)
        thread.start()
        client = ServiceClient(path, timeout=10.0)
        started = time.monotonic()
        with pytest.raises(ServiceProtocolError, match="closed the connection"):
            client.submit(suite="isaplanner", goals=["prop_01"])
        assert time.monotonic() - started < 10.0
        thread.join(timeout=5.0)
        listener.close()

    def test_unreachable_daemon_is_an_immediate_error(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nobody.sock"), timeout=5.0)
        with pytest.raises(ServiceProtocolError, match="cannot reach"):
            client.ping()


@contextlib.contextmanager
def socket_daemon(tmp_path, **overrides):
    """A real daemon on a unix socket with a test-specific config."""
    defaults = dict(
        socket_path=str(tmp_path / "concurrent.sock"),
        store_path=None,
        library_path=None,
        timeout=10.0,
        jobs=1,
    )
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(serve(config, ready=ready.set)), daemon=True
    )
    thread.start()
    assert ready.wait(20.0), "daemon did not come up"
    try:
        yield config
    finally:
        if thread.is_alive():
            try:
                ServiceClient(config.socket_path, timeout=30.0).shutdown()
            except ServiceProtocolError:
                pass
            thread.join(timeout=20.0)
        assert not thread.is_alive()


def trivial_conjectures(names):
    """Distinct, instantly-provable conjectures against the isaplanner theory."""
    return [(name, f"add Z {variable} === {variable}")
            for name, variable in zip(names, "abcdefghij")]


class TestConcurrentClients:
    def test_two_socket_clients_interleave_verdict_streams(self, tmp_path):
        """A second client's goal lands mid-stream of the first client's batch:
        the pool round-robins between sessions instead of running batches
        back to back."""
        with socket_daemon(tmp_path, worker_hook="engine_hooks:slow_tasks") as config:
            timeline = []
            lock = threading.Lock()
            alice_started = threading.Event()

            def watcher(who):
                def on_verdict(entry):
                    with lock:
                        timeline.append((time.monotonic(), who, entry.get("goal")))
                    alice_started.set()
                return on_verdict

            alice = ServiceClient(config.socket_path, timeout=60.0, client="alice")
            bob = ServiceClient(config.socket_path, timeout=60.0, client="bob")
            outcomes = {}

            def run_alice():
                outcomes["alice"] = alice.submit(
                    suite="isaplanner",
                    conjectures=trivial_conjectures(["a1", "a2", "a3", "a4"]),
                    on_verdict=watcher("alice"),
                )

            batch = threading.Thread(target=run_alice)
            batch.start()
            assert alice_started.wait(30.0), "alice's batch never produced a verdict"
            outcomes["bob"] = bob.submit(
                suite="isaplanner",
                conjectures=trivial_conjectures(["b1"]),
                on_verdict=watcher("bob"),
            )
            batch.join(timeout=60.0)
            assert not batch.is_alive()

            assert outcomes["alice"].all_proved and outcomes["alice"].total == 4
            assert outcomes["bob"].all_proved and outcomes["bob"].total == 1
            # Interleaved streams: bob's verdict arrived before alice's batch
            # finished, on a single shared worker.
            bob_at = next(at for at, who, _ in timeline if who == "bob")
            alice_last = max(at for at, who, _ in timeline if who == "alice")
            assert bob_at < alice_last

            metrics = alice.metrics()
            assert metrics["max_concurrent_sessions"] >= 2
            assert metrics["interleaved_dispatches"] >= 1
            assert metrics["clients"]["alice"]["served_goals"] == 4
            assert metrics["clients"]["bob"]["served_goals"] == 1

    def test_small_request_is_not_starved_by_large_batch(self, tmp_path):
        """Deficit-round-robin: a 1-goal client finishes while an 8-goal batch
        is still running, instead of queueing behind it."""
        service = make_service(
            tmp_path, store_path=None, library_path=None,
            worker_hook="engine_hooks:slow_tasks", timeout=10.0,
        )
        finished = {}
        try:
            def run_batch():
                events = submit(
                    service, suite="isaplanner", client="batch",
                    conjectures=[{"name": n, "equation": e}
                                 for n, e in trivial_conjectures(
                                     ["g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8"])],
                )
                finished["batch"] = (time.monotonic(), done_line(events))

            batch = threading.Thread(target=run_batch)
            batch.start()
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if service.pool.snapshot()["dispatched"] >= 1:
                    break
                time.sleep(0.01)
            events = submit(
                service, suite="isaplanner", client="quick",
                conjectures=[{"name": n, "equation": e}
                             for n, e in trivial_conjectures(["q1"])],
            )
            finished["quick"] = (time.monotonic(), done_line(events))
            batch.join(timeout=60.0)
            assert not batch.is_alive()

            assert finished["quick"][1]["proved"] == 1
            assert finished["batch"][1]["proved"] == 8
            assert finished["quick"][0] < finished["batch"][0], (
                "the 1-goal client waited out the whole 8-goal batch"
            )
            assert service.pool.snapshot()["interleaves"] >= 1
        finally:
            service.close()

    def test_inflight_budget_rejects_politely(self, tmp_path):
        service = make_service(tmp_path, client_max_inflight=2)
        try:
            events = submit(
                service, suite="isaplanner", client="greedy",
                conjectures=[{"name": n, "equation": e}
                             for n, e in trivial_conjectures(["n1", "n2", "n3", "n4"])],
            )
            summary = done_line(events)
            rejected = [e for e in events if e.get("status") == "rejected"]
            assert len(rejected) == 2
            assert all(e["reason"].startswith("budget:") for e in rejected)
            assert all("in-flight" in e["reason"] for e in rejected)
            assert summary["rejected"] == 2
            assert summary["total"] == 2 and summary["proved"] == 2

            snapshot = service.metrics_snapshot()
            assert snapshot["rejected_goals"] == 2
            assert snapshot["clients"]["greedy"]["rejected_goals"] == 2
            assert snapshot["clients"]["greedy"]["served_goals"] == 2
        finally:
            service.close()

    def test_rejected_verdict_line_keeps_its_shape(self, tmp_path):
        """Rejected verdicts come from the one verdict builder, yet the line a
        client receives keeps its keys, their order and their values."""
        service = make_service(tmp_path, client_cpu_budget=1.0)
        try:
            service._client_cpu["pauper"] = 2.0
            events = submit(
                service, suite="isaplanner", client="pauper",
                conjectures=[{"name": "p1", "equation": "add Z a === a"}],
            )
            line = verdict(events, "p1")
            expected = {
                "op": "verdict",
                "goal": "p1",
                "suite": line["suite"],
                "status": "rejected",
                "seconds": 0.0,
                "queued_seconds": 0.0,
                "cached": False,
                "variant": "default",
                "hints_offered": 0,
                "hint_steps": 0,
                "reason": "budget: client 'pauper' used 2.0s of its 1.0s cpu budget",
                "trace": line["trace"],
            }
            assert list(line.items()) == list(expected.items())
            assert service.pool.snapshot()["dispatched"] == 0
        finally:
            service.close()

    def test_cpu_budget_rejects_new_work_but_replays_stay_free(self, tmp_path):
        service = make_service(tmp_path, client_cpu_budget=1e-6)
        try:
            first = submit(
                service, suite="isaplanner", client="pauper",
                conjectures=[{"name": "p1", "equation": "add Z a === a"}],
            )
            assert done_line(first)["proved"] == 1  # budget untouched on entry

            second = submit(
                service, suite="isaplanner", client="pauper",
                conjectures=[
                    {"name": "p1", "equation": "add Z a === a"},   # replayable: free
                    {"name": "p2", "equation": "add Z b === b"},   # new work: over budget
                ],
            )
            summary = done_line(second)
            assert verdict(second, "p1")["cached"] is True
            rejected = verdict(second, "p2")
            assert rejected["status"] == "rejected"
            assert "cpu budget" in rejected["reason"]
            assert summary["rejected"] == 1 and summary["proved"] == 1
        finally:
            service.close()

    def test_sigterm_drains_queued_requests(self, tmp_path):
        """A real daemon process under SIGTERM with a batch still queued exits
        cleanly and promptly; the client is answered or cleanly disconnected,
        never left hanging."""
        socket_path = str(tmp_path / "term.sock")
        script = (
            "import asyncio\n"
            "from repro.service.server import ServiceConfig, serve\n"
            "asyncio.run(serve(ServiceConfig(\n"
            f"    socket_path={socket_path!r}, store_path=None, library_path=None,\n"
            "    timeout=30.0, jobs=1, shutdown_grace=1.0,\n"
            "    worker_hook='engine_hooks:slow_tasks',\n"
            ")))\n"
        )
        daemon = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        outcome = {}
        try:
            # The bounded connect retry covers the daemon's startup window.
            client = ServiceClient(
                socket_path, timeout=60.0, connect_retries=100, connect_backoff=0.1
            )
            assert client.ping()["op"] == "pong"

            def run_submit():
                try:
                    outcome["done"] = client.submit(
                        suite="isaplanner", client="doomed",
                        conjectures=trivial_conjectures(
                            ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]
                        ),
                    )
                except ServiceProtocolError as error:
                    outcome["error"] = error

            submitter = threading.Thread(target=run_submit)
            submitter.start()
            time.sleep(0.6)  # first goal on the worker, the rest queued
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30.0) == 0
            submitter.join(timeout=30.0)
            assert not submitter.is_alive(), "client hung through the daemon's shutdown"
            # Either a done line with drained goals or a clean protocol error.
            assert "done" in outcome or "error" in outcome
            if "done" in outcome:
                assert outcome["done"].done.get("failed", 0) >= 1
            assert not os.path.exists(socket_path)
        finally:
            if daemon.poll() is None:
                daemon.kill()
            daemon.wait(timeout=10.0)

    def test_pool_survives_a_worker_crash_and_stays_warm(self, tmp_path):
        service = make_service(
            tmp_path, worker_hook="engine_hooks:crash_on_prop_11", timeout=10.0
        )
        try:
            first = submit(service, suite="isaplanner", goals=["prop_11", "prop_01"])
            assert done_line(first)["op"] == "done"
            crashed = verdict(first, "prop_11")
            assert crashed["status"] == "failed"
            assert "worker crashed" in crashed["reason"]
            assert verdict(first, "prop_01")["status"] == "proved"
            # Initial pool spawn plus the respawn after the crash.
            assert done_line(first)["worker_spawns"] >= 2

            # The respawned worker stays resident: a fresh cold goal dispatches
            # to it without spawning another process.
            second = submit(service, suite="isaplanner", goals=["prop_22"])
            assert done_line(second)["proved"] == 1
            assert done_line(second)["worker_spawns"] == 0
        finally:
            service.close()


class TestPrewarmAndRanking:
    def test_prewarm_rebuilds_theories_from_the_store(self, tmp_path):
        seed = make_service(tmp_path)
        try:
            submit(seed, suite="isaplanner", goals=["prop_01"])
        finally:
            seed.close()

        service = make_service(tmp_path, prewarm=True)
        try:
            assert service.metrics.prewarmed_theories >= 1
            events = submit(service, suite="isaplanner", goals=["prop_01"])
            summary = done_line(events)
            assert summary["warm"] is True  # no elaboration on the first request
            assert summary["worker_spawns"] == 0
            assert summary["store_hits"] == 1
        finally:
            service.close()

    def test_hints_are_ranked_by_shared_symbols(self, tmp_path):
        from repro.service.library import equation_symbols

        assert equation_symbols("add (S x) y === S (add x y)") == {"add", "S", "x", "y"}

        with LemmaLibrary(str(tmp_path / "rank.jsonl")) as library:
            fingerprint = "a" * 64
            library.add(fingerprint, "rev (rev xs) === xs", {"cert": 1})
            library.add(fingerprint, "add a b === add b a", {"cert": 2})
            library.add(fingerprint, "len (app xs ys) === add (len xs) (len ys)", {"cert": 3})
            library._verify = lambda *args, **kwargs: True  # ranking under test, not the gate

            # No goal symbols: insertion order (the old behaviour).
            assert library.hints_for(fingerprint)[0] == "rev (rev xs) === xs"
            # Relevance: most shared symbols first, insertion order on ties.
            ranked = library.hints_for(fingerprint, goal_symbols={"add", "len"})
            assert ranked == [
                "len (app xs ys) === add (len xs) (len ys)",
                "add a b === add b a",
                "rev (rev xs) === xs",
            ]
            # The offer limit keeps the most relevant lemma, not the oldest.
            assert library.hints_for(fingerprint, goal_symbols={"add"}, limit=1) == [
                "add a b === add b a"
            ]

    def test_offer_certificates_are_verified_once_per_digest(self, tmp_path):
        class CountingChecker:
            def __init__(self):
                self.calls = 0

            def check(self, certificate, goal_equation=None):
                self.calls += 1

                class Report:
                    ok = True
                    hypotheses = ()

                return Report()

        with LemmaLibrary(str(tmp_path / "memo.jsonl")) as library:
            fingerprint = "b" * 64
            library.add(fingerprint, "add Z n === n", {"node": 1})
            library.add(fingerprint, "mul Z n === Z", {"node": 2})
            checker = CountingChecker()
            first = library.hints_for(fingerprint, checker=checker)
            assert len(first) == 2 and checker.calls == 2
            # Repeat offers on a hot theory skip re-verification entirely.
            again = library.hints_for(fingerprint, checker=checker)
            assert again == first and checker.calls == 2


class TestServiceReport:
    def test_summary_table_renders_snapshot(self, tmp_path):
        from repro.harness.report import service_summary_table

        service = make_service(tmp_path)
        try:
            submit(service, suite="isaplanner", goals=["prop_01"])
            submit(service, suite="isaplanner", goals=["prop_01"])
            table = service_summary_table(service.metrics_snapshot())
        finally:
            service.close()
        assert "store hits" in table
        assert "1/2 (50%)" in table
        assert "warm-state hits" in table
        assert "replay latency" in table
        assert "worker pool size" in table
        assert "interleaved dispatches" in table
        assert "goals rejected (client budget)" in table
        assert "client default" in table  # per-client served/rejected row
        # Table survives the JSON round trip the protocol performs.
        snapshot = json.loads(json.dumps(service.metrics_snapshot()))
        assert "worker processes spawned" in service_summary_table(snapshot)
