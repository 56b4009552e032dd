"""Traced mode: spans around the public functions of each qw22 layer.

The wrappers are installed from here, not in qw22: class-level for the
LaurentPoly operators, and for every other function in each qw22 module
namespace that binds it by name (``hopf``, ``exprparse``, ``cli`` and
``suites`` import ``multiply``, ``normalize`` and others directly), so a
call is traced whichever module makes it.  Each span records (name, start,
end, parent, operation) in flat arrays; a layer's self time is its spans'
durations minus those of their child spans.  ``gc.callbacks`` gives the
collection count and pause time.  Nothing is recorded outside start/stop.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from collections import Counter

import numpy as np

from qw22 import algebra, cli, exprparse, hopf, oscillator
from qw22.laurent import LaurentPoly


def _mul_counts(counts, args, result):
    if not isinstance(result, LaurentPoly):
        return
    a, b = args
    counts["laurent.mul.terms_out"] += result.term_count
    if a.nvars == 2:
        counts["laurent.mul.two_var_calls"] += 1
    if a.term_count == 1 or not isinstance(b, LaurentPoly) or b.term_count == 1:
        counts["laurent.mul.monomial_calls"] += 1


def _normalize_counts(counts, args, result):
    counts["algebra.normalize.terms_out"] += result.term_count


def _multiply_counts(counts, args, result):
    x, y = args
    counts["algebra.multiply.word_pairs"] += x.term_count * y.term_count


# (module, attribute, span name, counting hook)
FUNCTIONS = (
    (algebra, "normalize", "algebra.normalize", _normalize_counts),
    (algebra, "multiply", "algebra.multiply", _multiply_counts),
    (algebra, "element_text", "algebra.element_text", None),
    (hopf, "coproduct", "hopf.coproduct", None),
    (hopf, "antipode", "hopf.antipode", None),
    (hopf, "tensor_multiply", "hopf.tensor_multiply", None),
    (hopf, "tensor_text", "hopf.tensor_text", None),
    (oscillator, "oracle_consistency", "oscillator.oracle_consistency", None),
    (oscillator, "apply_element", "oscillator.apply_element", None),
    (oscillator, "apply_word", "oscillator.apply_word", None),
    (oscillator, "apply_generator", "oscillator.apply_generator", None),
    (exprparse, "parse", "exprparse.parse", None),
    (exprparse, "parse_element", "exprparse.parse_element", None),
    (cli, "main", "cli.main", None),
)
# Class attributes of LaurentPoly; aliases (__rmul__ is __mul__) share a wrapper.
OPERATORS = (
    (("__mul__", "__rmul__"), "laurent.mul", _mul_counts),
    (("__add__", "__radd__", "__sub__"), "laurent.add", None),
)
# Called too often, and too cheaply, for a span: counted only.
COUNTED = ((oscillator, "ladder_weight", "oscillator.ladder_weight.calls"),)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.op_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list = []
        self.counts = Counter()
        self.op = -1
        self.active = False
        self._gc_start = 0.0

    # -- installation -----------------------------------------------------------

    def install(self):
        for module, attr, name, hook in FUNCTIONS:
            self._replace(getattr(module, attr), self._span(getattr(module, attr), name, hook))
        for attrs, name, hook in OPERATORS:
            wrapper = self._span(LaurentPoly.__dict__[attrs[0]], name, hook)
            for attr in attrs:
                setattr(LaurentPoly, attr, wrapper)
        for module, attr, name in COUNTED:
            self._replace(getattr(module, attr), self._counter(getattr(module, attr), name))
        gc.callbacks.append(self._on_gc)

    @staticmethod
    def _replace(original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qw22" and not mod_name.startswith("qw22."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _span(self, fn, name, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        counts = self.counts
        calls_key = f"{name}.calls"
        counts[calls_key] = 0
        stack, clock = self.stack, time.perf_counter
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends = self.starts, self.ends

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            counts[calls_key] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase, info):
        if not self.active:
            return
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        else:
            self.counts["gc.collections"] += 1
            self.counts["gc.pause_s"] += now - self._gc_start

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    # -- results ------------------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_ids, dtype=np.uint16),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
        )

    def layer_totals(self) -> dict:
        """Per span name: total time (``.s``) and self time (``.self_s``),
        plus the counters."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = dict(self.counts)
        for nid, span in enumerate(self.names):
            mask = name == nid
            out[f"{span}.s"] = float(dur[mask].sum())
            out[f"{span}.self_s"] = float(self_time[mask].sum())
        return out

    def write(self, path: str):
        name, parent, start, end = self._arrays()
        op = np.frombuffer(self.op_ids, dtype=np.int32)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, op=op, start=start, end=end
        )
