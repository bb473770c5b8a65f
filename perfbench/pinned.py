"""The pinned per-goal verdict table and the goal sets derived from it.

``pinned.json`` records, for every IsaPlanner goal, its verdict and time at
the commit that introduced the benchmark, in two settings: ``decided`` (serial
``Prover.prove``, default configuration plus ``emit_proofs``, 5 s budget) and
``suite`` (``run_suite_parallel`` on two workers, 3 s budget, median of the
suites run).  Each goal also says why it is, or is not, in each workload.
Every run reports the goals whose verdict moved from this table.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

__all__ = [
    "load",
    "decided_goals",
    "quick_decided_goals",
    "quick_proved_goals",
    "moved_verdicts",
]

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def load() -> Dict[str, dict]:
    """The pinned rows, keyed by goal name."""
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["goals"]


def decided_goals() -> List[str]:
    """Goals of ``isaplanner-decided``: decided (proved or failed) well inside 5 s."""
    return sorted(name for name, row in load().items() if row["in_decided"])


def quick_decided_goals(limit_ms: float = 100.0) -> List[str]:
    """Goals of ``isaplanner-decided`` decided serially in under ``limit_ms``."""
    return sorted(
        name
        for name, row in load().items()
        if row["in_decided"] and row["decided"]["ms"] < limit_ms
    )


def quick_proved_goals(limit_ms: float = 20.0) -> List[str]:
    """Goals proved serially in under ``limit_ms`` — the service's replay set."""
    return sorted(
        name
        for name, row in load().items()
        if row["decided"]["status"] == "proved" and row["decided"]["ms"] < limit_ms
    )


def moved_verdicts(setting: str, observed: Dict[str, List[str]]) -> List[str]:
    """One row per goal whose observed statuses differ from the pinned one."""
    table = load()
    rows = []
    for goal in sorted(observed):
        pinned = table[goal][setting]["status"]
        moved = sorted({status for status in observed[goal] if status != pinned})
        if moved:
            counts = ", ".join(
                f"{status} x{observed[goal].count(status)}" for status in sorted(set(observed[goal]))
            )
            rows.append(f"moved  {setting:8s} {goal}: pinned {pinned}, observed {counts}")
    return rows
