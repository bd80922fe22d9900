"""Spans and counters recorded around the calls into each ``hesim`` layer.

The layers are the package modules. For a traced run, ``install`` replaces
every public function of every layer with a wrapper that records a span
(name, start, end, parent), on every module binding that callers resolve:
``hesim.protocols.even_coherent`` as well as ``hesim.fock.even_coherent``.
It also counts ``StateVector`` constructions, ``RngStream.uniform`` draws
and the (z, dim, parity) of every cat-codeword construction. Spans stay in
memory until the run ends. Nothing here touches the files under ``src/``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "protocols", "bellchsh", "entanglement", "pseudospin", "fock")
_MARK = "__perfbench_traced__"
_CODEWORD_PARITY = {"even_coherent": 0, "odd_coherent": 1}


class Tracer:
    """In-memory span log plus the counters a traced run reports."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]
        self.statevectors = 0
        self.statevector_bytes = 0
        self.draws = 0
        self.codewords: list[tuple[float, int, int]] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(math.nan)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        setattr(traced, _MARK, True)
        return traced

    def record_codewords(self, fn, parity: int):
        codewords = self.codewords

        @functools.wraps(fn)
        def recorded(z, dim, *args, **kwargs):
            codewords.append((z, dim, parity))
            return fn(z, dim, *args, **kwargs)

        return recorded

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )


def _hesim_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "hesim" or name.startswith("hesim.")
    ]


def public_functions(module) -> dict:
    """Functions a module defines whose names carry no leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Wrap every public layer function and the counted class methods."""
    layers = {layer: importlib.import_module(f"hesim.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in layers.items():
        for name, fn in public_functions(module).items():
            target = fn
            if layer == "fock" and name in _CODEWORD_PARITY:
                target = tracer.record_codewords(fn, _CODEWORD_PARITY[name])
            wrappers[fn] = tracer.wrap(f"{layer}.{name}", target)
    for module in _hesim_modules():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])

    state_vector = layers["fock"].StateVector
    validate = state_vector.__post_init__

    def counted_post_init(self):
        tracer.statevectors += 1
        tracer.statevector_bytes += 16 * self.space.dim
        validate(self)

    rng_stream = layers["protocols"].RngStream
    uniform = rng_stream.uniform

    def counted_uniform(self):
        tracer.draws += 1
        return uniform(self)

    for cls, attr, patched in (
        (state_vector, "__post_init__", counted_post_init),
        (rng_stream, "uniform", counted_uniform),
    ):
        setattr(patched, _MARK, True)
        setattr(cls, attr, patched)


def installed() -> list[str]:
    """Every ``hesim`` binding or method that currently carries a wrapper."""
    found = []
    for module in _hesim_modules():
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and getattr(obj, _MARK, False):
                found.append(f"{module.__name__}.{name}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for attr, member in vars(cls).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    Spans come from one thread and each closes before its parent does, so
    the children of a span are disjoint and lie inside it.
    """
    out = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


def summarize(tracer: Tracer) -> dict:
    """Calls and self time per function and per layer, plus the counters."""
    functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for name, own in zip(
        tracer.names, self_times(tracer.starts, tracer.ends, tracer.parents)
    ):
        functions[name]["calls"] += 1
        functions[name]["self_s"] += own
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, stats in functions.items():
        layer = name.split(".", 1)[0]
        if layer in layers:
            layers[layer]["calls"] += stats["calls"]
            layers[layer]["self_s"] += stats["self_s"]
    return {
        "spans": len(tracer.names),
        "functions": dict(functions),
        "layers": layers,
        "statevectors": tracer.statevectors,
        "statevector_bytes": tracer.statevector_bytes,
        "draws": tracer.draws,
        "codeword_calls": len(tracer.codewords),
        "codeword_distinct": len(set(tracer.codewords)),
    }
