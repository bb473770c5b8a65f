"""The benchmark's own checks: the percentile rule and the error-share accounting.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:  # pragma: no cover - environment dependent
        sys.path.insert(0, _path)

from perfbench.oracle import FALSE, THEOREM, Op, Oracle  # noqa: E402
from perfbench.stats import MIN_TAIL, Tally, min_samples, percentile, samples_beyond  # noqa: E402
from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES  # noqa: E402

# -- percentile rule -------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    assert MIN_TAIL == 10
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 90) == 90.0
    assert sum(1 for v in values if v > percentile(values, 90)) == 10
    assert percentile(list(reversed(values)), 90) == 90.0
    assert percentile(values, 50) == 50.5  # the median is exempt and interpolates
    assert percentile([3.0], 50) == 3.0


# -- error-share accounting ------------------------------------------------------------


def _oracle() -> Oracle:
    return Oracle(SUITE_PROGRAM_SOURCES)


def test_undecided_verdicts_are_not_errors():
    tally = _oracle().check(
        [
            Op("prove", "isaplanner", "g1", "x === x", THEOREM, status="failed"),
            Op("suite", "isaplanner", "g2", "x === x", THEOREM, status="timeout"),
            Op("suite", "isaplanner", "g3", "x === x", THEOREM, status="out-of-scope"),
            Op("solve", "false_conjectures", "g4", "x === x", FALSE, status="failed"),
        ]
    )
    assert (tally.attempted, tally.failed, tally.error_share) == (4, 0, 0.0)


def test_wrong_or_missing_answers_count():
    ops = [
        Op("prove", "isaplanner", "a", "x === x", THEOREM, status="disproved"),
        Op("solve", "false_conjectures", "b", "x === x", FALSE, status="proved"),
        Op("solve", "isaplanner", "c", "x === x", THEOREM, status="rejected"),
        Op("solve", "isaplanner", "d", "x === x", THEOREM),
        Op("replay", "isaplanner", "e", "x === x", THEOREM, error="daemon gone"),
        Op("replay", "isaplanner", "f", "x === x", THEOREM, status="failed", seeded_status="proved"),
        Op("prove", "isaplanner", "g", "x === x", THEOREM, status="proved"),  # no certificate
        Op("prove", "isaplanner", "h", "x === x", THEOREM, status="failed"),
    ]
    tally = _oracle().check(ops)
    assert tally.attempted == 8
    assert tally.failed == 7
    assert tally.error_share == pytest.approx(7 / 8)
    assert len(tally.errors) == 7 and all(reason for reason in tally.errors)


def test_error_share_of_nothing_is_zero():
    assert Tally().error_share == 0.0


def _certificate(goal_name: str):
    from repro.benchmarks_data.registry import isaplanner_problems
    from repro.search.config import ProverConfig
    from repro.search.prover import Prover

    problem = next(p for p in isaplanner_problems() if p.name == goal_name)
    result = Prover(problem.program, ProverConfig(emit_proofs=True)).prove(
        problem.goal.equation, goal_name=goal_name
    )
    assert result.proved
    equation = f"{problem.goal.equation.lhs} === {problem.goal.equation.rhs}"
    return result.certificate.to_dict(), equation


def test_certificates_are_rechecked_once_each():
    certificate, equation = _certificate("prop_01")
    oracle = _oracle()
    good = Op("prove", "isaplanner", "prop_01", equation, THEOREM, status="proved",
              certificate=certificate)
    # The same certificate presented as a proof of another equation is rejected.
    wrong = Op("prove", "isaplanner", "prop_01", "xs === xs", THEOREM, status="proved",
               certificate=certificate)
    tally = oracle.check([good, good, wrong])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert oracle.certificates_checked == 2
    assert oracle.check_rejects == 1


def test_counterexamples_must_replay():
    from repro.semantics.falsify import Counterexample

    def cex(n: str, m: str) -> dict:
        return Counterexample(
            equation="minus n m ≈ minus m n", bindings={"n": n, "m": m},
            lhs_value="?", rhs_value="?", goal_name="fc_02",
        ).to_dict()

    equation = "minus n m === minus m n"
    oracle = _oracle()
    tally = oracle.check(
        [
            Op("solve", "false_conjectures", "c1", equation, FALSE, status="disproved",
               counterexample=cex("Z", "S Z")),
            Op("solve", "false_conjectures", "c2", equation, FALSE, status="disproved",
               counterexample=cex("Z", "Z")),
            Op("solve", "false_conjectures", "c3", equation, FALSE, status="disproved"),
        ]
    )
    assert (tally.attempted, tally.failed) == (3, 2)
    assert oracle.counterexamples_replayed == 2


# -- calibration -------------------------------------------------------------------------


def test_calibration_scales_to_the_reference_cpu():
    from perfbench import calibrate

    assert calibrate.factor([calibrate.REFERENCE_S] * 3) == pytest.approx(1.0)
    # A CPU half as fast doubles the probe; its times are halved back.
    assert calibrate.factor([2 * calibrate.REFERENCE_S, 1.0, 0.0]) == pytest.approx(0.5)
    assert calibrate.probe() > 0.0
    with calibrate.Sampler(interval=0.01) as sampler:
        pass
    assert sampler.samples and all(s > 0.0 for s in sampler.samples)
