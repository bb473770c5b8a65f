"""The correctness oracle, run after the timed region.

Every operation a workload performs leaves an :class:`Op`.  The oracle counts
an operation as an error when:

* a theorem came back ``disproved``, or a false conjecture ``proved``;
* its certificate is rejected by the certificate checker, run on program
  source elaborated afresh for this oracle (never the prover's own program);
* its counterexample does not replay on that fresh program;
* a replay's status differs from the status the store was seeded with;
* the reply was an error or ``rejected``, or carried no verdict.

A move among ``proved``, ``failed`` and ``timeout`` is not an error: it moves
``solved`` and the timings instead.  Identical certificates are checked once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from perfbench.stats import Tally

__all__ = ["Op", "Oracle", "THEOREM", "FALSE"]

THEOREM = "theorem"
FALSE = "false"

#: Statuses that answer a goal without deciding it either way.
UNDECIDED = ("failed", "timeout", "out-of-scope")


@dataclass
class Op:
    """One operation and what came back."""

    kind: str
    """``prove``, ``suite``, ``replay`` or ``solve``."""

    theory: str
    """Suite whose program the goal lives in."""

    goal: str
    equation: str
    """The goal equation in surface syntax (``lhs === rhs``)."""

    expected: str
    """:data:`THEOREM` or :data:`FALSE`."""

    status: str = ""
    """The verdict's status; "" when no verdict arrived."""

    certificate: Optional[dict] = None
    counterexample: Optional[dict] = None
    hints: Tuple[str, ...] = ()
    """Hypotheses the attempt was granted (library lemmas offered by the daemon)."""

    seeded_status: str = ""
    """For replays: the status the store was seeded with."""

    error: str = ""
    """Transport or service error text, when the operation raised."""


class Oracle:
    """Checks :class:`Op` lists against fresh elaborations of each theory."""

    def __init__(self, sources: Dict[str, str]):
        self.sources = dict(sources)
        self.tally = Tally()
        self._checkers: Dict[str, object] = {}
        self._programs: Dict[str, object] = {}
        self._verdicts: Dict[Tuple[str, ...], str] = {}
        self.certificates_checked = 0
        self.check_rejects = 0
        self.counterexamples_replayed = 0

    # -- fresh elaborations ------------------------------------------------------

    def _checker(self, theory: str):
        if theory not in self._checkers:
            from repro.proofs.checker import CertificateChecker

            self._checkers[theory] = CertificateChecker(self.sources[theory], name=theory)
        return self._checkers[theory]

    def _program(self, theory: str):
        if theory not in self._programs:
            from repro.core.interning import TermBank, use_bank
            from repro.lang.loader import load_program

            bank = TermBank(f"oracle:{theory}")
            with use_bank(bank):
                self._programs[theory] = (bank, load_program(self.sources[theory], name=theory))
        return self._programs[theory]

    # -- the checks ----------------------------------------------------------------

    def _certificate_fault(self, op: Op) -> str:
        payload = json.dumps([op.theory, op.equation, op.hints, op.certificate], sort_keys=True)
        key = ("cert", hashlib.sha256(payload.encode("utf-8")).hexdigest())
        if key not in self._verdicts:
            report = self._checker(op.theory).check(
                op.certificate, hypotheses=op.hints, goal_equation=op.equation
            )
            self.certificates_checked += 1
            if not report:
                self.check_rejects += 1
            self._verdicts[key] = "" if report else f"certificate rejected: {report.summary()}"
        return self._verdicts[key]

    def _counterexample_fault(self, op: Op) -> str:
        payload = json.dumps([op.theory, op.equation, op.counterexample], sort_keys=True)
        key = ("cex", hashlib.sha256(payload.encode("utf-8")).hexdigest())
        if key not in self._verdicts:
            from repro.core.exceptions import CycleQError
            from repro.core.interning import use_bank
            from repro.semantics.falsify import Counterexample

            bank, program = self._program(op.theory)
            try:
                with use_bank(bank):
                    replayed = Counterexample.from_dict(op.counterexample).replay(
                        program, program.parse_equation(op.equation)
                    )
            except (ValueError, KeyError, CycleQError) as error:
                self._verdicts[key] = f"counterexample does not decode: {error}"
            else:
                self._verdicts[key] = "" if replayed else "counterexample does not replay"
            self.counterexamples_replayed += 1
        return self._verdicts[key]

    def fault(self, op: Op) -> str:
        """Why ``op`` is wrong, or "" when it is right."""
        if op.error:
            return f"error reply: {op.error}"
        if not op.status:
            return "no verdict"
        if op.status == "rejected":
            return "rejected"
        if op.seeded_status and op.status != op.seeded_status:
            return f"replayed {op.status}, store was seeded with {op.seeded_status}"
        if op.status == "proved":
            if op.expected == FALSE:
                return "proved a false conjecture"
            if op.certificate is None:
                return "proved without a certificate"
            return self._certificate_fault(op)
        if op.status == "disproved":
            if op.expected == THEOREM:
                return "disproved a theorem"
            if op.counterexample is None:
                return "disproved without a counterexample"
            return self._counterexample_fault(op)
        if op.status in UNDECIDED:
            return ""
        return f"unknown status {op.status!r}"

    def check(self, ops: Iterable[Op]) -> Tally:
        for op in ops:
            self.tally.attempt()
            problem = self.fault(op)
            if problem:
                self.tally.error(f"{op.kind} {op.theory}/{op.goal}: {problem}")
        return self.tally


def surface(equation) -> str:
    """An :class:`~repro.core.equations.Equation` in ``parse_equation`` syntax."""
    return f"{equation.lhs} === {equation.rhs}"


def expected_of(theory: str) -> str:
    return FALSE if theory == "false_conjectures" else THEOREM

