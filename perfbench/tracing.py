"""Spans around the public functions of each ordsum module.

`install` wraps each function or method in LAYERS where other modules
look it up: a module-level function is replaced in every loaded
`ordsum.*` module that holds it, a method on its class.  Each call
records a span (name, parent span, start, end) in memory; `install`
registers an exit hook that writes them all to one file.  `self_times`
reads such a file back and charges each span's duration, minus that of
its child spans, to its name.

Span file format: one JSON line {"names": [...], "count": n}, then the
raw bytes of four arrays of n items each: name ids and parent span ids
(array "i", -1 for a root), starts and ends (array "d", perf_counter
seconds).
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# (span name, "module" or "module:Class", attribute); "orders.less" covers
# the `less` method of every LinearOrder subclass that defines one.
LAYERS = [
    ("rationals.min_entry_in", "ordsum.rationals", "min_entry_in"),
    ("rationals.rational_index", "ordsum.rationals", "rational_index"),
    ("rationals.rational_at", "ordsum.rationals", "rational_at"),
    ("rationals.fractions_up_to", "ordsum.rationals", "fractions_up_to"),
    ("tnorm.eval", "ordsum.tnorm:TNorm", "eval"),
    ("tnorm.truncation", "ordsum.tnorm:TNorm", "truncation"),
    ("tnorm.check_axioms", "ordsum.tnorm", "check_axioms"),
    ("orders.build_intervals", "ordsum.orders", "build_intervals"),
    ("orders.less", "ordsum.orders:LinearOrder", "less"),
    ("orders.piece_at", "ordsum.orders:OrderPieceGenerator", "piece_at"),
    ("orders.locate", "ordsum.orders:OrderPieceGenerator", "locate"),
    ("orders.certified_m_gaps", "ordsum.orders:OrderPieceGenerator", "certified_m_gaps"),
    ("cantor.expand", "ordsum.cantor", "expand"),
    ("cantor.analyze_gap_order", "ordsum.cantor", "analyze_gap_order"),
    ("cantor.piece_at", "ordsum.cantor:CantorGapGenerator", "piece_at"),
    ("cantor.locate", "ordsum.cantor:CantorGapGenerator", "locate"),
    ("signature.compute_signature", "ordsum.signature", "compute_signature"),
    ("iso.decide_iso_finite", "ordsum.iso", "decide_iso_finite"),
    ("iso.build_iso_map", "ordsum.iso", "build_iso_map"),
    ("iso.decide_iso_lazy", "ordsum.iso", "decide_iso_lazy"),
    ("iso.back_and_forth", "ordsum.iso", "back_and_forth"),
    ("l1.theta", "ordsum.l1", "theta"),
    ("l1.theta_by_probing", "ordsum.l1", "theta_by_probing"),
    ("presentations.load_presentation", "ordsum.presentations", "load_presentation"),
    ("cli.main", "ordsum.cli", "main"),
]


class _Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.stack = [-1]

    def wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        with open(path, "wb") as out:
            header = {"names": self.names, "count": len(self.starts)}
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(out)


def _with_subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(path: str) -> None:
    """Wrap every layer function and write the spans to `path` at exit."""
    # import every module first, so each replacement reaches all holders
    for _, spec, _ in LAYERS:
        importlib.import_module(spec.partition(":")[0])
    recorder = _Recorder()
    for name, spec, attr in LAYERS:
        module_name, _, class_name = spec.partition(":")
        module = sys.modules[module_name]
        if class_name:
            for cls in _with_subclasses(getattr(module, class_name)):
                method = vars(cls).get(attr)
                if method is not None and not getattr(method, "__isabstractmethod__", False):
                    setattr(cls, attr, recorder.wrap(name, method))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("ordsum"):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
    atexit.register(recorder.write, path)


def self_times(path: str) -> dict[str, tuple[int, float]]:
    """{span name: (calls, self seconds)} from one span file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(f, count)
            columns.append(column)
    name_ids, parents, starts, ends = columns
    names = header["names"]
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for span in range(count):
        duration = ends[span] - starts[span]
        name = name_ids[span]
        calls[name] += 1
        own[name] += duration
        parent = parents[span]
        if parent >= 0:
            own[name_ids[parent]] -= duration
    out: dict[str, tuple[int, float]] = {}
    for name, n, seconds in zip(names, calls, own):
        c, s = out.get(name, (0, 0.0))
        out[name] = (c + n, s + seconds)
    return out
