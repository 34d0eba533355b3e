"""Spans around calls into biccert's layers, recorded from outside the library.

A span is ``(name, start, end, parent, op, work)``: ``parent`` is the index
of the enclosing span (or -1), ``op`` the id of the operation it belongs to
and ``work`` a count computed from the call's arguments (or None).
Spans stay in memory and are written out when the run ends.

The wrappers are installed by rebinding module attributes for the duration
of a ``with Tracer.installed():`` block, so untraced runs execute the
library unmodified.  ``cli.py`` and ``reproduce.py`` call the layers through
module attributes (``bell.bell_value(...)``), and the cross-layer imports
(``from .bell import bell_value`` in ``algebra`` and ``randomness``) are
rebound where they were imported, so nested calls become child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module that holds the name, attribute, span name)
LAYER_FUNCTIONS = (
    ("biccert.cli", "load_json", "linalg.load_json"),
    ("biccert.cli", "dump_json", "linalg.dump_json"),
    ("biccert.bic", "povm_from_json", "bic.povm_from_json"),
    ("biccert.bic", "gram_from_json", "bic.gram_from_json"),
    ("biccert.bic", "validate_bic", "bic.validate_bic"),
    ("biccert.bic", "validate_gram", "bic.validate_gram"),
    ("biccert.bic", "gram", "bic.gram"),
    ("biccert.bell", "reference_strategy", "bell.reference_strategy"),
    ("biccert.bell", "bell_value", "bell.bell_value"),
    ("biccert.algebra", "bell_value", "bell.bell_value"),
    ("biccert.randomness", "bell_value", "bell.bell_value"),
    ("biccert.bell", "sos_certificate", "bell.sos_certificate"),
    ("biccert.algebra", "verify_certification", "algebra.verify_certification"),
    ("biccert.algebra", "irrep_decompose", "algebra.irrep_decompose"),
    ("biccert.algebra", "maxent_decompose", "algebra.maxent_decompose"),
    ("biccert.randomness", "randomness_report", "randomness.randomness_report"),
    ("biccert.classical", "classical_value", "classical.classical_value"),
)


def criterion_span(cid: int) -> str:
    return f"reproduce.criterion_{cid:02d}"


class Tracer:
    def __init__(self, work_counts: dict | None = None):
        """``work_counts`` maps a span name to a function of the call's
        arguments that gives the work the call does, such as subsets scanned."""
        self.spans: list[list] = []  # [name, start, end, parent, op, work]
        self._stack: list[int] = []
        self._work_counts = work_counts or {}
        self.op = -1

    def span(self, name: str, fn):
        count = self._work_counts.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            work = count(*args, **kwargs) if count else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op, work])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return wrapper

    def run_op(self, op: int, name: str, fn):
        """Call ``fn()`` as the root span of operation ``op``."""
        self.op = op
        return self.span(name, fn)()

    @contextlib.contextmanager
    def installed(self):
        from biccert import reproduce

        saved = []
        criteria = dict(reproduce.CRITERIA)
        try:
            for module_name, attr, span_name in LAYER_FUNCTIONS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.span(span_name, original))
            for cid, fn in criteria.items():
                reproduce.CRITERIA[cid] = self.span(criterion_span(cid), fn)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            reproduce.CRITERIA.clear()
            reproduce.CRITERIA.update(criteria)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "work": w}
            for n, s, e, p, o, w in self.spans
        ]


def per_op_times(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """For each op and span name: total ``self`` and ``wall`` seconds, call
    ``count`` and summed ``work``.  Self time is a span's duration minus the
    time its direct children cover."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"self": 0.0, "wall": 0.0, "count": 0, "work": 0})
    )
    for index, (name, start, end, parent, op, work) in enumerate(spans):
        entry = out[op][name]
        entry["wall"] += end - start
        entry["self"] += end - start - child_time[index]
        entry["count"] += 1
        entry["work"] += work or 0
    return out
