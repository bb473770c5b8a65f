"""Repository benchmark: workloads, tracing and correctness oracle (see README.md)."""

import json
import os

#: Root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads and the metrics every run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
