"""Span wrappers around the public functions of each pseudoplane layer.

``Tracer.install`` wraps every public module-level function of the six
layer modules, and the public methods plus the arithmetic dunders of the
classes they define.  Each wrapper counts calls and measures total time (the
outermost active call only, so recursion is not counted twice) and self time
(its span minus the spans of wrapped callees).  Spans are aggregated per
function in memory as they close.

A wrapper replaces the original in every ``pseudoplane`` module namespace
that binds it, not only the defining module: ``report`` and
``cyclic_quotient`` call through ``from ... import`` bindings, and the package
``__init__`` re-exports most names, so patching one namespace would miss
calls.  Class attributes are patched on the class, which every reference
shares.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

LAYERS = (
    "exact_algebra",
    "qdivisor",
    "dpd_presentation",
    "hypersurface_ring",
    "cyclic_quotient",
    "report",
)

_DUNDERS = frozenset(
    {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__eq__"}
)


def _is_nonpolynomial(result) -> int:
    return type(result).__name__ == "NonPolynomial"


def _terms_out(result) -> int:
    return len(result.poly.terms)


# spans that also add up a count read off each result, kept as "extra"
_OBSERVERS = {
    "hypersurface_ring.derivation_apply": _is_nonpolynomial,
    "hypersurface_ring.normal_form": _terms_out,
}


class SpanStats:
    __slots__ = ("layer", "calls", "total_s", "self_s", "active", "extra")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = 0


class Tracer:
    def __init__(self, package: str = "pseudoplane"):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []

    def _wrap(self, fn, layer: str, name: str):
        stats = self.stats.setdefault(name, SpanStats(layer))
        stack = self._child_time
        observe = _OBSERVERS.get(name)

        def span(*args, **kwargs):
            stats.active += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.active -= 1
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if not stats.active:
                    stats.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                stats.extra += observe(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        return span

    def install(self) -> None:
        """Wrap the layers' functions and rebind every reference to them."""
        wrappers: dict[int, types.FunctionType] = {}

        def wrap_once(fn, layer: str, name: str):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, layer, name)
            return wrappers[id(fn)]

        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrap_once(obj, layer, f"{layer}.{attr}")
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer, wrap_once)

        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, attr, wrapper)

    @staticmethod
    def _wrap_class(cls: type, layer: str, wrap_once) -> None:
        for attr, member in list(vars(cls).items()):
            kind = None
            fn = member
            if isinstance(member, (classmethod, staticmethod)):
                kind, fn = type(member), member.__func__
            if not isinstance(fn, types.FunctionType):
                continue
            # by the function's own name, so aliases such as __rmul__ follow __mul__
            if fn.__name__.startswith("_") and fn.__name__ not in _DUNDERS:
                continue
            label = fn.__name__.strip("_")
            wrapper = wrap_once(fn, layer, f"{layer}.{cls.__name__}.{label}")
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "layer": s.layer,
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                "extra": s.extra,
            }
            for name, s in self.stats.items()
        }
