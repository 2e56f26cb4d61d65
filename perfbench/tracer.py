"""Layer spans and counts for one traced gradedgrowth command.

The program is not edited: its layer functions are wrapped from outside
after gradedgrowth.cli has been imported.  A name bound by `from .x import y`
is a separate reference in every importing module, so each target is
replaced wherever a gradedgrowth module holds it (rref lives in both
subspace and filtration, ball in groups, cli, tiling, hecke and
algebra_probe).  Methods are replaced on the class that defines them;
ZdQuotient and HeisenbergQuotient each override act.

Three kinds of wrapper, by how often the target runs:
- span: one record (command id, name, start, end, parent, self time) per
  call, the parent being the index of the enclosing span or -1;
- timed: calls and total time only, for functions called up to hundreds
  of thousands of times per command;
- counted: calls only, for the quotient action (millions of calls).
A span's self time is its duration minus the time of the spans and timed
calls directly inside it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np


def _rref(args, out) -> dict:
    rows, cols = np.shape(args[0])
    return {"rows_in": rows, "rank_out": out.shape[0], "bytes_in": rows * cols * 8}


# (layer name, module, attribute or Class.method, wrapper kind, measure)
TARGETS = [
    ("subspace.rref", "gradedgrowth.subspace", "rref", "span", _rref),
    ("subspace.intersect", "gradedgrowth.subspace", "intersect", "span", None),
    ("subspace.reduce_vector", "gradedgrowth.subspace", "Subspace.reduce_vector", "timed", None),
    ("filtration.build_group_algebra", "gradedgrowth.filtration", "build_group_algebra", "span", None),
    ("filtration.aug_ladder", "gradedgrowth.filtration", "aug_ladder", "span",
     lambda args, out: {"powers": len(out.powers)}),
    ("filtration.right_ideal_closure", "gradedgrowth.filtration", "right_ideal_closure", "span", None),
    ("filtration.rs_generators", "gradedgrowth.filtration", "rs_generators", "span", None),
    ("filtration.rs_step_bound", "gradedgrowth.filtration", "rs_step_bound", "span", None),
    ("groups.ball", "gradedgrowth.groups", "ball", "span",
     lambda args, out: {"elements": len(out)}),
    ("groups.find_dead_ends", "gradedgrowth.groups", "find_dead_ends", "span", None),
    ("groups.is_dead_end", "gradedgrowth.groups", "is_dead_end", "counted", None),
    ("rewriting.reduce", "gradedgrowth.rewriting", "RewritingSystem.reduce", "timed",
     lambda args: {"letters_in": len(args[1])}),
    ("rewriting.knuth_bendix", "gradedgrowth.rewriting", "knuth_bendix", "span",
     lambda args, out: {"rules": len(out.rules)}),
    ("tiling.build_transversal", "gradedgrowth.tiling", "build_transversal", "span", None),
    ("tiling.greedy_fill", "gradedgrowth.tiling", "greedy_fill", "span", None),
    ("tiling.quotient_act", "gradedgrowth.tiling", "ZdQuotient.act", "counted", None),
    ("tiling.quotient_act", "gradedgrowth.tiling", "HeisenbergQuotient.act", "counted", None),
    ("tiling.verify_certificate", "gradedgrowth.tiling", "verify_certificate", "span", None),
    ("tiling.folner_search", "gradedgrowth.tiling", "folner_search", "span", None),
]


class Tracer:
    """Wraps every target on construction; dump() writes what was recorded."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list = []  # [command id, name, start, end, parent, self_s]
        self.counts: dict = {}
        self.bindings: dict = {}
        self._stack: list = []  # [span index, child time] per open span
        for name, module, attr, kind, measure in TARGETS:
            make = {"span": self._span, "timed": self._timed, "counted": self._counted}[kind]
            n = _replace(sys.modules[module], attr, lambda fn: make(name, fn, measure))
            if n == 0:
                raise RuntimeError(f"trace target {module}.{attr} not found")
            self.bindings[f"{module}.{attr}"] = n

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _span(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[frame[0]] = [self.command_id, name, t0, t1, parent,
                                   t1 - t0 - frame[1]]
            if measure is not None:
                for key, value in measure(args, out).items():
                    self._add(f"{name}.{key}", value)
            return out

        return wrapper

    def _timed(self, name, fn, measure):
        counts, stack = self.counts, self._stack
        calls_key, s_key = name + ".calls", name + ".s"
        counts[calls_key] = counts[s_key] = 0

        def wrapper(*args):
            if measure is not None:
                for key, value in measure(args).items():
                    self._add(f"{name}.{key}", value)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                d = perf_counter() - t0
                counts[calls_key] += 1
                counts[s_key] += d
                if stack:
                    stack[-1][1] += d

        return wrapper

    def _counted(self, name, fn, measure):
        counts = self.counts
        key = name + ".calls"
        counts.setdefault(key, 0)

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command_id": self.command_id, "spans": self.spans,
                       "counts": self.counts, "bindings": self.bindings}, fh)


def _replace(module, attr: str, make) -> int:
    """Replace a function everywhere gradedgrowth binds it; returns the number
    of bindings replaced."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return 1
    orig = getattr(module, attr)
    wrapper = make(orig)
    n = 0
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "gradedgrowth":
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                n += 1
    return n
