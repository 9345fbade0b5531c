"""Per-layer spans measured from outside the program.

`Tracer.install` wraps every public module-level function of a package
(plus the few private boundaries in `EXTRA`) and rebinds the wrapper in
every module namespace that holds the original, so that a name imported
with `from .symchar import character_value` is traced in `wreath`,
`isometry`, `perfect` and `modular` too.  Spans are aggregated in memory
per (name, parent) as [calls, total time, self time]; self time is the
span's time minus the time of its child spans.  Methods of classes are not
wrapped: their time counts as self time of the calling span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types

ROOT = "<root>"
# Private functions that mark a layer boundary a metric needs.
EMIT = ("cli._report_text", "cli._json_line", "cli._csv_text", "cli._emit")
EXTRA = {"cli": tuple(name.split(".", 1)[1] for name in EMIT)}
# Spans whose distinct argument tuples are counted.
DISTINCT = ("wreath.zeta_irr", "wreath.zeta_class_function", "symchar.irr_class_function")
# Spans whose integer-matrix results are measured in bits.
RESULT_BITS = ("lattice.hnf",)


def package_modules(package: str) -> list[types.ModuleType]:
    """The package and all its submodules (all of them import)."""
    pkg = importlib.import_module(package)
    names = sorted(info.name for info in pkgutil.iter_modules(pkg.__path__))
    return [pkg] + [importlib.import_module(f"{package}.{name}") for name in names]


def _short(module: types.ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _is_function(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return not inspect.isgeneratorfunction(obj)
    return callable(obj) and hasattr(obj, "cache_info") and not isinstance(obj, type)


def _matrix_bits(result) -> int:
    return max((abs(x).bit_length() for mat in result for row in mat for x in row), default=0)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = [[ROOT, 0]]  # [name, time covered by child spans]
        self.spans: dict[tuple[str, str], list] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.max_bits: dict[str, int] = {name: 0 for name in RESULT_BITS}
        self.caches: dict[str, object] = {}
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, self._clock
        seen = self.distinct.get(name)
        bits = name in self.max_bits

        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(repr((args, sorted(kwargs.items()))))
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                agg = spans.get((name, parent[0]))
                if agg is None:
                    spans[(name, parent[0])] = [1, dt, dt - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
            if bits:
                self.max_bits[name] = max(self.max_bits[name], _matrix_bits(result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, modules: list[types.ModuleType]) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            short = _short(mod)
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or not _is_function(obj):
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[f"{short}.{attr}"] = obj
                if not attr.startswith("_") or attr in EXTRA.get(short, ()):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def snapshot(self) -> dict:
        """Aggregates as plain data: spans, cache statistics, counters."""
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses, info.currsize]
        return {
            "spans": [[name, parent, *agg] for (name, parent), agg in self.spans.items()],
            "caches": caches,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "max_bits": dict(self.max_bits),
        }


def self_times(spans) -> dict[str, float]:
    """Self time per module (the part of a span name before the dot)."""
    out: dict[str, float] = {}
    for name, _parent, _calls, _total, self_s in spans:
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0) + self_s
    return out
