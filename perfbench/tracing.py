"""Layer spans recorded from the benchmark's own code.

:func:`installed` wraps public functions of each layer (the modules under
``src/repro/``) for the duration of a ``with`` block; nothing inside ``src/``
changes.  Where a function is bound by name in importing modules, the wrapper
replaces every such binding, as ``repro.perf`` does for its reference paths.

Every wrapped call is a span.  A layer's *self time* is a span's duration
minus the part of it that child spans cover, accumulated per thread on a span
stack.  Hot spans (matching, normalisation and closure updates run tens of
thousands of times a pass) are aggregated into per-layer self time and call counts as they
close; coarse spans (``Prover.prove``, suites, submits, elaboration,
certificate encode and check) are also kept in memory as records with their
parent and written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Tracer", "installed"]

#: The layers spans are charged to, named after the modules under src/repro/.
LAYERS = (
    "lang",
    "core",
    "rewriting",
    "sizechange",
    "search",
    "proofs",
    "semantics",
    "engine",
    "service",
)


class _ThreadState:
    __slots__ = ("stack", "self_seconds", "calls", "spans", "next_id")

    def __init__(self) -> None:
        #: Open spans: [child seconds, span id or 0 for aggregated spans].
        self.stack: List[list] = []
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[dict] = []
        self.next_id = 0


class Tracer:
    """Span stacks per thread, merged on demand."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, fn: Callable, name: str, layer: str, record: bool = False) -> Callable:
        """``fn`` timed as a span ``name`` charged to ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            frame = [0.0, 0]
            if record:
                state.next_id += 1
                frame[1] = state.next_id
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                seconds = state.self_seconds
                seconds[layer] = seconds.get(layer, 0.0) + duration - frame[0]
                calls = state.calls
                calls[name] = calls.get(name, 0) + 1
                if record:
                    parent = next((f[1] for f in reversed(stack) if f[1]), 0)
                    state.spans.append(
                        {
                            "name": name,
                            "layer": layer,
                            "id": frame[1],
                            "parent": parent,
                            "thread": threading.get_ident(),
                            "start": start,
                            "end": end,
                            "self": duration - frame[0],
                        }
                    )

        return traced

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds per layer and calls per span name, summed over threads."""
        seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, value in list(state.self_seconds.items()):
                seconds[layer] = seconds.get(layer, 0.0) + value
            for name, value in list(state.calls.items()):
                calls[name] = calls.get(name, 0) + value
        return seconds, calls

    def spans(self) -> List[dict]:
        with self._lock:
            states = list(self._states)
        return [span for state in states for span in state.spans]

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the recorded spans (one JSON object a line) plus a totals line."""
        seconds, calls = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans(), key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            totals = {"totals": {"self_seconds": seconds, "calls": calls}}
            if extra:
                totals["totals"].update(extra)
            handle.write(json.dumps(totals, sort_keys=True) + "\n")


#: (module, attribute, span name, layer, record) — functions bound by name.
_FUNCTION_SITES = (
    ("repro.lang.loader", "load_program", "load_program", "lang", True),
    ("repro.core.matching", "match_or_none", "match_or_none", "core", False),
    ("repro.search.prover", "match_or_none", "match_or_none", "core", False),
    ("repro.rewriting.reduction", "match_or_none", "match_or_none", "core", False),
    ("repro.rewriting.narrowing", "match_or_none", "match_or_none", "core", False),
    ("repro.induction.structural", "match_or_none", "match_or_none", "core", False),
    ("repro.proofs.inference", "match_or_none", "match_or_none", "core", False),
    ("repro.proofs.certificate", "encode", "certificate.encode", "proofs", True),
    ("repro.harness.runner", "run_suite_parallel", "run_suite_parallel", "engine", True),
)

#: (module, class, method, span name, layer, record) — methods patched on the class.
_METHOD_SITES = (
    ("repro.rewriting.reduction", "Normalizer", "normalize", "Normalizer.normalize", "rewriting", False),
    ("repro.sizechange.closure", "IncrementalClosure", "add", "IncrementalClosure.add", "sizechange", False),
    ("repro.sizechange.closure", "IncrementalClosure", "remove", "IncrementalClosure.remove", "sizechange", False),
    ("repro.search.prover", "Prover", "prove", "Prover.prove", "search", True),
    ("repro.proofs.checker", "CertificateChecker", "check", "CertificateChecker.check", "proofs", True),
    ("repro.service.client", "ServiceClient", "submit", "ServiceClient.submit", "service", True),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Run the block with every layer's public functions wrapped by ``tracer``.

    Wrappers see only this process: engine and daemon workers are separate
    processes, whose layer times the workloads read from the records and
    traces those processes return.
    """
    import importlib

    saved: List[Tuple[object, str, object]] = []
    try:
        for module_name, attribute, name, layer, record in _FUNCTION_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(original, name, layer, record))
        for module_name, cls_name, attribute, name, layer, record in _METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attribute]
            saved.append((cls, attribute, original))
            setattr(cls, attribute, tracer.wrap(original, name, layer, record))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
