"""Tests for the benchmark harness and report formatting."""

from dataclasses import MISSING, fields, replace

import pytest

from repro.benchmarks_data import isaplanner_problems, mutual_problems
from repro.engine import ResultStore
from repro.harness import (
    ascii_cumulative_plot,
    cumulative_curve,
    format_table,
    isaplanner_summary_table,
    run_suite,
    tool_comparison_table,
    unsolved_classification,
)
from repro.harness.runner import OUTCOME_FIELDS, SolveRecord
from repro.search import Prover, ProverConfig, SearchStatistics


@pytest.fixture(scope="module")
def small_suite_result():
    """Run a small, fast subset of the IsaPlanner suite once for all tests."""
    problems = [p for p in isaplanner_problems() if p.name in {
        "prop_01", "prop_05", "prop_11", "prop_40", "prop_46", "prop_54",
    }]
    return run_suite(problems, ProverConfig(timeout=1.5), suite_name="subset")


class TestRunner:
    def test_records_cover_every_problem(self, small_suite_result):
        assert small_suite_result.total == 6
        assert {r.name for r in small_suite_result.records} == {
            "prop_01", "prop_05", "prop_11", "prop_40", "prop_46", "prop_54",
        }

    def test_statuses_are_as_expected(self, small_suite_result):
        record = {r.name: r for r in small_suite_result.records}
        assert record["prop_01"].proved
        assert record["prop_11"].proved
        assert record["prop_40"].proved
        assert record["prop_05"].status == "out-of-scope"
        # prop_54 needs a commutativity lemma: its search burns the whole
        # wall-clock budget, which since the timeout-status split is reported
        # as a distinct ``timeout`` rather than a generic ``failed``.
        assert record["prop_54"].status == "timeout"
        assert record["prop_54"].timed_out
        assert record["prop_54"] in small_suite_result.failed  # still counts as unsolved

    def test_timing_fields_populated_for_attempted_problems(self, small_suite_result):
        for record in small_suite_result.records:
            if record.status != "out-of-scope":
                assert record.seconds >= 0
                assert record.milliseconds == pytest.approx(record.seconds * 1000)

    def test_summary_aggregates(self, small_suite_result):
        summary = small_suite_result.summary()
        assert summary["total"] == 6
        assert summary["solved"] == len(small_suite_result.solved)
        assert summary["out_of_scope"] == 1
        assert summary["timeout"] == len(small_suite_result.timed_out)
        assert summary["average_solved_ms"] >= 0
        # timeouts are part of the "failed" (unsolved) aggregate
        assert summary["failed"] >= summary["timeout"]

    def test_record_lookup(self, small_suite_result):
        assert small_suite_result.record("prop_01").name == "prop_01"
        with pytest.raises(KeyError):
            small_suite_result.record("prop_99")

    def test_record_lookup_sees_later_appends(self):
        from repro.harness import SolveRecord, SuiteResult

        result = SuiteResult(suite="s")
        result.records.append(SolveRecord(name="a", suite="s", status="proved"))
        assert result.record("a").name == "a"  # builds the index
        result.records.append(SolveRecord(name="b", suite="s", status="failed"))
        assert result.record("b").name == "b"  # index refreshed after append

    def test_hypotheses_can_be_supplied_per_problem(self):
        problems = [p for p in isaplanner_problems() if p.name == "prop_54"]
        program = problems[0].program
        hints = {"prop_54": [program.parse_equation("add a b === add b a")]}
        result = run_suite(problems, ProverConfig(timeout=5.0), hypotheses=hints)
        assert result.record("prop_54").proved

    def test_progress_callback_invoked(self):
        problems = [p for p in mutual_problems()[:2]]
        seen = []
        run_suite(problems, ProverConfig(timeout=2.0), progress=seen.append)
        assert [r.name for r in seen] == [p.name for p in problems]


class TestCumulativeCurve:
    def test_curve_is_monotone(self, small_suite_result):
        curve = cumulative_curve(small_suite_result)
        assert len(curve) == len(small_suite_result.solved)
        times = [t for t, _ in curve]
        counts = [c for _, c in curve]
        assert times == sorted(times)
        assert counts == list(range(1, len(curve) + 1))

    def test_solved_within_bound(self, small_suite_result):
        assert len(small_suite_result.solved_within(10_000.0)) == len(small_suite_result.solved)
        assert small_suite_result.solved_within(0.0) == []

    def test_curve_on_empty_suite(self):
        from repro.harness import SuiteResult

        assert cumulative_curve(SuiteResult(suite="empty")) == []
        assert ascii_cumulative_plot(SuiteResult(suite="empty")) == "(no problems solved)"

    def test_curve_on_all_failed_suite(self):
        from repro.harness import SolveRecord, SuiteResult

        result = SuiteResult(
            suite="sad",
            records=[
                SolveRecord(name="a", suite="sad", status="failed", seconds=0.1),
                SolveRecord(name="b", suite="sad", status="timeout", seconds=1.0),
                SolveRecord(name="c", suite="sad", status="out-of-scope"),
            ],
        )
        assert cumulative_curve(result) == []
        assert ascii_cumulative_plot(result) == "(no problems solved)"
        assert result.summary()["solved"] == 0
        assert result.summary()["timeout"] == 1


class TestReports:
    def test_format_table_aligns_columns(self):
        table = format_table(("a", "metric"), [("x", 1), ("longer", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_summary_table_contains_paper_numbers(self, small_suite_result):
        table = isaplanner_summary_table(small_suite_result)
        assert "44" in table and "measured" in table

    def test_tool_comparison_table(self):
        table = tool_comparison_table(41)
        assert "HipSpec" in table and "this reproduction" in table and "41" in table

    def test_ascii_plot_renders(self, small_suite_result):
        plot = ascii_cumulative_plot(small_suite_result)
        assert "solved:" in plot
        assert "*" in plot

    def test_unsolved_classification_mentions_hints(self, small_suite_result):
        text = unsolved_classification(small_suite_result)
        assert "prop_54" in text
        assert "add a b" in text or "needs" in text


def _record_with_every_field_set():
    """A record whose every non-identity field holds a non-default value."""
    values = {}
    for index, f in enumerate(fields(SolveRecord)[3:], start=1):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        if isinstance(default, bool):
            values[f.name] = True
        elif isinstance(default, int):
            values[f.name] = index
        elif isinstance(default, float):
            values[f.name] = index / 4
        elif isinstance(default, str):
            values[f.name] = f"value-{index}"
        elif isinstance(default, dict):
            values[f.name] = {f"k{k}": k + 1 for k in range(12)}
        else:  # certificate / counterexample: JSON payloads
            values[f.name] = {"payload": index}
    return SolveRecord("prop_01", "isaplanner", "proved", **values)


RUN_LOCAL_FIELDS = {"worker", "cached", "queued_seconds"}

# A line as the previous store writer produced it: every always-written key
# present, zero-valued ones included.
PARENT_STORE_LINE = (
    '{"choice_points": 4, "closure_compositions": 359, "compile_seconds": 0.0018611899940879084, '
    '"compiled_steps": 9, "config": "188d3dc66da8275b", "equation": "app (take n xs) (drop n xs) '
    '\\u2248 xs", "fallback_steps": 0, "goal": "isaplanner/prop_01", "hot_symbols": {"app": 3, '
    '"drop": 3, "take": 3}, "max_agenda_size": 5, "nodes": 12, "normalizer_hits": 56, '
    '"normalizer_misses": 47, "phase_counts": {"agenda": 1, "case_split": 2, "expand": 8, '
    '"lemma_prefilter": 4, "match": 3, "normalise": 11, "soundness": 9, "substitute": 2}, '
    '"phase_seconds": {"agenda": 0.000602, "case_split": 0.000558, "expand": 0.000666, '
    '"lemma_prefilter": 0.000418, "match": 5.6e-05, "normalise": 0.002778, "soundness": 0.002127, '
    '"substitute": 0.000127}, '
    '"program": "db94bf5be36f8714534d5f12862aeef6a5aaa3acc6c4db03b3ad4b4b31f31466", '
    '"reason": "", "schema": 3, "seconds": 0.007870196997828316, "soundness_violations": 0, '
    '"status": "proved", "strategy": "dfs", "subst_attempts": 2, "variant": "paper-default"}'
)


class TestOutcomeCodec:
    def test_wire_round_trip_keeps_every_field(self):
        record = _record_with_every_field_set()
        replayed = SolveRecord.from_wire(record.name, record.suite, record.to_wire())
        hottest = dict(sorted(record.hot_symbols.items(), key=lambda item: -item[1])[:8])
        assert replayed == replace(record, hot_symbols=hottest)

    def test_store_round_trip_drops_only_run_local_fields(self, tmp_path):
        record = _record_with_every_field_set()
        key = ResultStore.make_key("prog", "isaplanner/prop_01", "eq", "cfg")
        ResultStore(str(tmp_path / "store.jsonl")).put(key, record.to_wire())
        stored = ResultStore(str(tmp_path / "store.jsonl")).get(key)
        replayed = SolveRecord.from_wire(record.name, record.suite, stored)
        for f in fields(SolveRecord):
            if f.name in RUN_LOCAL_FIELDS:
                default = SolveRecord("n", "s", "proved")
                assert getattr(replayed, f.name) == getattr(default, f.name), f.name
            elif f.name != "hot_symbols":
                assert getattr(replayed, f.name) == getattr(record, f.name), f.name

    def test_wire_omits_defaults(self):
        wire = SolveRecord("prop_01", "isaplanner", "failed", reason="", nodes=0).to_wire()
        assert wire == {"status": "failed"}

    def test_outcome_fields_are_the_stored_record_fields(self):
        from repro.engine import store

        expected = {f.name for f in fields(SolveRecord)} - {"name", "suite"} - RUN_LOCAL_FIELDS
        assert set(OUTCOME_FIELDS) == expected
        assert len(OUTCOME_FIELDS) == len(expected) == 25
        assert store.OUTCOME_FIELDS == OUTCOME_FIELDS

    def test_stat_metadata_names_real_statistics(self):
        statistics = {f.name for f in fields(SearchStatistics)}
        sources = {f.name: f.metadata["stat"] for f in fields(SolveRecord) if "stat" in f.metadata}
        assert set(sources.values()) <= statistics
        assert sources["nodes"] == "nodes_created"
        assert sources["choice_points"] == "choice_points_expanded"
        assert sources["falsify_seconds"] == "falsification_seconds"
        assert sources["hot_symbols"] == "rewrite_head_counts"

    def test_from_attempt_copies_every_tagged_counter(self):
        problem = next(p for p in isaplanner_problems() if p.name == "prop_01")
        outcome = Prover(problem.program, ProverConfig(timeout=5.0)).prove(
            problem.goal.equation, goal_name=problem.name
        )
        record = SolveRecord.from_attempt(problem, outcome, 0.5)
        assert (record.status, record.seconds) == ("proved", 0.5)
        for f in fields(SolveRecord):
            if "stat" in f.metadata:
                assert getattr(record, f.name) == getattr(outcome.statistics, f.metadata["stat"])

    def test_parent_format_store_line_replays_field_for_field(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(PARENT_STORE_LINE + "\n", encoding="utf-8")
        (entry,) = ResultStore(str(path)).entries()
        assert SolveRecord.from_wire("prop_01", "isaplanner", entry, cached=True) == SolveRecord(
            name="prop_01",
            suite="isaplanner",
            status="proved",
            seconds=0.007870196997828316,
            nodes=12,
            subst_attempts=2,
            soundness_violations=0,
            normalizer_hits=56,
            normalizer_misses=47,
            reason="",
            strategy="dfs",
            max_agenda_size=5,
            choice_points=4,
            variant="paper-default",
            cached=True,
            compile_seconds=0.0018611899940879084,
            compiled_steps=9,
            fallback_steps=0,
            hot_symbols={"app": 3, "drop": 3, "take": 3},
            phase_seconds={
                "agenda": 0.000602, "case_split": 0.000558, "expand": 0.000666,
                "lemma_prefilter": 0.000418, "match": 5.6e-05, "normalise": 0.002778,
                "soundness": 0.002127, "substitute": 0.000127,
            },
            phase_counts={
                "agenda": 1, "case_split": 2, "expand": 8, "lemma_prefilter": 4,
                "match": 3, "normalise": 11, "soundness": 9, "substitute": 2,
            },
            closure_compositions=359,
        )
