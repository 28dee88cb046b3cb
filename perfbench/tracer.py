"""Span recording around calls into the radialphi layers.

The tracer measures each layer from outside: it replaces a traced function
with a timing wrapper in every ``radialphi`` module namespace that holds it
(``h_inverse`` is bound in ``operators``, ``criteria``, ``iteration``,
``classifier`` and the package itself), and traced methods on their class.
Nothing in the package changes; ``uninstall`` puts the originals back.

A span is ``(id, name, start, end, parent, thread, op, elements, info)``.
Spans are kept in memory and written out by ``dump`` when the run ends.
The parent of a span is the innermost open span of its thread; spans opened
on a pool thread with no open span hang under the op's root span, so the
sweep's worker threads stay attached to the command that started them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import zlib

import numpy as np

OUTCOMES = ("finite", "divergent")


def _fingerprint(x):
    arr = np.ascontiguousarray(x, dtype=float)
    return arr.size, zlib.crc32(arr)


# (span name, module, attribute path, index of the array argument or None);
# oracle is left out on purpose: only ``rps validate`` reaches it
TARGETS = (
    ("cli.run_config", "radialphi.cli", "run_config", None),
    ("model.assemble", "radialphi.model", "assemble", None),
    ("model.check_hypotheses", "radialphi.model", "check_hypotheses", None),
    ("model.Weight.sample", "radialphi.model", "Weight.sample", 1),
    ("exprlang.Expr.call", "radialphi.exprlang", "Expr.__call__", 1),
    ("operators.make_operator", "radialphi.operators", "make_operator", None),
    ("operators.derive_envelopes", "radialphi.operators", "derive_envelopes", None),
    ("operators.check_envelope", "radialphi.operators", "check_envelope", None),
    ("operators.h_inverse", "radialphi.operators", "h_inverse", 1),
    ("quadrature.radial_kernel_at", "radialphi.quadrature", "radial_kernel_at", 0),
    ("quadrature.prefix_trapezoid", "radialphi.quadrature", "prefix_trapezoid", 0),
    ("quadrature.verdict_from_trace", "radialphi.quadrature", "verdict_from_trace", None),
    ("criteria.build_report", "radialphi.criteria", "build_report", None),
    ("criteria.probe_grid", "radialphi.criteria", "probe_grid", None),
    ("criteria.accumulation_values", "radialphi.criteria",
     "CriteriaEvaluator.accumulation_values", None),
    ("criteria.upper_coupling_values", "radialphi.criteria",
     "CriteriaEvaluator.upper_coupling_values", None),
    ("criteria.lower_coupling_values", "radialphi.criteria",
     "CriteriaEvaluator.lower_coupling_values", None),
    ("criteria.upper_coupling_relaxed_values", "radialphi.criteria",
     "CriteriaEvaluator.upper_coupling_relaxed_values", None),
    ("criteria.GrowthBudget", "radialphi.criteria", "GrowthBudget.__init__", None),
    ("criteria.GrowthBudget", "radialphi.criteria", "GrowthBudget.value", None),
    ("criteria.GrowthBudget", "radialphi.criteria", "GrowthBudget.inverse", None),
    ("iteration.solve", "radialphi.iteration", "solve", None),
    ("iteration.step", "radialphi.iteration", "step", None),
    ("classifier.classify", "radialphi.classifier", "classify", None),
)


class Tracer:
    """In-memory span recorder; one op is traced at a time."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self.op = None
        self._root = None
        self._seen_inputs: set = set()
        self._seen_grids: set = set()

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id
        self._root = None
        self._seen_inputs = set()
        self._seen_grids = set()

    def end_op(self):
        self.op = None
        self._root = None

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, element_arg, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        if parent is None:
            self._root = sid
        elements = 0
        if element_arg is not None and len(args) > element_arg:
            elements = int(np.size(args[element_arg]))
        info = self._info_before(name, args)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            info["failed"] = True
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), self.op, elements, info))
            raise
        end = time.perf_counter()
        stack.pop()
        self._info_after(name, result, info)
        self.spans.append((sid, name, start, end, parent,
                           threading.get_ident(), self.op, elements, info))
        return result

    def _info_before(self, name, args) -> dict:
        if name == "operators.h_inverse":
            op, s = args[0], args[1]
            key = (op.label, _fingerprint(s))
            with self._lock:
                unique = key not in self._seen_inputs
                self._seen_inputs.add(key)
            return {"analytic": op.analytic_h_inverse is not None, "unique": unique}
        if name == "quadrature.radial_kernel_at":
            key = _fingerprint(args[2])
            with self._lock:
                repeat = key in self._seen_grids
                self._seen_grids.add(key)
            return {"repeat": repeat}
        if name == "iteration.step":
            return {"nodes": len(args[0].grid.nodes)}
        return {}

    @staticmethod
    def _info_after(name, result, info):
        if name == "criteria.build_report":
            verdicts = [getattr(result, f) for f in result._FIELDS]
            available = [v for v in verdicts if v is not None]
            info["available"] = len(available)
            info["decided"] = sum(v.kind in OUTCOMES for v in available)
        elif name == "criteria.probe_grid":
            info["nodes"] = len(result[0])

    # -- installing the wrappers ------------------------------------------------

    def _wrapper(self, name, fn, element_arg):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, element_arg, args, kwargs)
        return traced

    def install(self):
        """Bind a wrapper for every target wherever the package holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "radialphi" or n.startswith("radialphi.")]
        for name, module_name, path, element_arg in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrapper(name, original, element_arg)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def dump(self, path: str, header: dict):
        """Write the spans as JSON: a header plus one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header,
                       "fields": ["id", "name", "start", "end", "parent",
                                  "thread", "op", "elements", "info"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the union of the
    intervals its child spans cover (children may overlap across threads)."""
    children: dict = {}
    for sid, _name, start, end, parent, *_rest in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, *_rest in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out
