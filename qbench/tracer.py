"""Layer spans measured from outside the program.

Tracer.installed() wraps every public function of each operaq module, and
MonadElement.__post_init__, by patching the module and class attributes.
Calls inside operaq go through those attributes (module globals are module
attributes), so every layer crossing becomes a span: name, start, end,
parent span and operation id.  A function that calls itself through its
module attribute (io.jsonable, operad.arity) gets one span for the
outermost call.  Spans stay in memory and are written as JSONL at the end;
counts are derived from call arguments and return values.

A layer's self time is the sum over its spans of duration minus the time
covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "io", "channels", "multilinear", "operad", "monad", "ideals", "linalg", "sampling")

INIT = "monad.MonadElement.__post_init__"

# per-function self times reported on their own
FUNCTIONS = (
    "channels.minimal_dilation",
    "linalg.gram_schmidt",
    "channels.intertwiner",
    "linalg.factor_permutation",
    "linalg.superop_kron",
    "channels.channel_kron",
    "linalg.mingle",
    "ideals.grouped_channel",
    "monad.mu",
    "operad.interpret",
    "operad.interpret_circuit",
    "ideals.broadcast_witness",
)


def _io_group(name: str):
    if not name.startswith("io."):
        return None
    fn = name[3:]
    if fn.startswith("decode_") or fn == "load_json":
        return "io.decode"
    if fn.startswith("encode_") or fn in ("jsonable", "canonical_json", "save_json"):
        return "io.encode"
    return None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sweep(key, square):
    def count(counts, args, kwargs, out):
        dims = [int(d) for d in _arg(args, kwargs, 1, "input_dims")]
        counts[key] += int(np.prod([d * d if square else d for d in dims])) if dims else 1

    return count


def _count_perm(counts, args, kwargs, out):
    counts["linalg.dense_perm_bytes"] += int(out.nbytes)


def _count_canonical(counts, args, kwargs, out):
    if out == _arg(args, kwargs, 0, "t"):
        counts["operad.canonical_form.noop_calls"] += 1


def _count_bytes_in(counts, args, kwargs, out):
    counts["io.bytes_in"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_bytes_out(counts, args, kwargs, out):
    counts["io.bytes_out"] += len(out.encode("utf-8"))


COUNTERS = {
    "channels.multimap_from_function": _count_sweep("channels.sweep_evals", square=True),
    "multilinear.from_function": _count_sweep("multilinear.sweep_evals", square=False),
    "linalg.factor_permutation": _count_perm,
    "linalg.factor_permutation_superop": _count_perm,
    "linalg.mingle": _count_perm,
    "operad.canonical_form": _count_canonical,
    "io.load_json": _count_bytes_in,
    "io.canonical_json": _count_bytes_out,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent id, operation id); ids are indices
        self.stack = []  # (span id, name) of the open spans
        self.calls = Counter()
        self.counts = Counter()
        self.op = None
        self.t0 = time.perf_counter()

    def wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)
            tracer.calls[name] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, out)
            return out

        return traced

    def targets(self):
        """(owner, attribute, span name) for every patched callable."""
        from operaq import monad

        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"operaq.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    out.append((mod, attr, f"{layer}.{attr}"))
        out.append((monad.MonadElement, "__post_init__", INIT))
        return out

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in self.targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        covered = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own = Counter()
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += (end - start) - covered[sid]
        return own

    def metrics(self) -> dict:
        own = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.split(".", 1)[0] == layer)
        for fn in FUNCTIONS:
            out[f"{fn}.self_s"] = own[fn]
        for group in ("io.decode", "io.encode"):
            out[f"{group}.self_s"] = sum(t for n, t in own.items() if _io_group(n) == group)
        out["monad.element_init.self_s"] = own[INIT]
        metrics = {k: {"value": float(v), "unit": "s"} for k, v in out.items()}
        counts = {
            "channels.sweep_evals": self.counts["channels.sweep_evals"],
            "multilinear.sweep_evals": self.counts["multilinear.sweep_evals"],
            "ideals.is_member.calls": self.calls["ideals.is_member"],
            "operad.canonical_form.calls": self.calls["operad.canonical_form"],
            "operad.canonical_form.noop_calls": self.counts["operad.canonical_form.noop_calls"],
            "monad.element_init.calls": self.calls[INIT],
            "operad.gamma.calls": self.calls["operad.gamma"],
            "sampling.calls": sum(c for n, c in self.calls.items() if n.startswith("sampling.")),
        }
        metrics.update({k: {"value": int(v), "unit": "count"} for k, v in counts.items()})
        metrics["linalg.dense_perm_mib"] = {
            "value": self.counts["linalg.dense_perm_bytes"] / 2**20, "unit": "MiB"}
        metrics["io.bytes_in"] = {"value": int(self.counts["io.bytes_in"]), "unit": "bytes"}
        metrics["io.bytes_out"] = {"value": int(self.counts["io.bytes_out"]), "unit": "bytes"}
        return metrics

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                     "start": start - self.t0, "end": end - self.t0}) + "\n")
