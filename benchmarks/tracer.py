"""Outside-in tracing of the recurtest package.

The tracer wraps every public function of every ``recurtest`` module from
outside the package: it rebinds each module attribute that refers to the
function (including names other modules imported with ``from .x import f``)
to a wrapper that records a span, a call count and, for a few functions, a
work count.  Nothing under ``src/`` is edited, and ``uninstall`` restores the
original bindings, so untraced passes run the code as shipped.

Functions are discovered at run time.  A function that a later version
removes simply never appears; the runner reports it as absent.  A call made
through a reference held elsewhere (a dict entry, a default argument) is not
seen, and its time counts toward the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _pairs(args, kwargs):
    pd = args[0] if args else kwargs.get("pd")
    return int(np.size(pd.z))


def _elems(args, kwargs):
    value = args[1] if len(args) > 1 else kwargs["value"]
    return int(np.size(value))


# Work counts recorded at a function boundary: (function, count name, getter).
COUNTERS = {
    "weights.weight_cdf": ("elems", _elems),
    "stats_core.l2_statistic": ("pairs", _pairs),
    "stats_core.l1_statistic": ("pairs", _pairs),
    "stats_core.sup_statistic": ("pairs", _pairs),
}


def package_modules(package: str = "recurtest") -> dict:
    """Import the package and all of its modules; map short name -> module."""
    pkg = importlib.import_module(package)
    mods = {package: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{package}.{info.name}")
    return mods


def public_functions(modules: dict) -> dict:
    """Map ``layer.function`` -> function for every public function a module defines."""
    found = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Spans, self times, call counts and work counts at layer boundaries."""

    def __init__(self, package: str = "recurtest"):
        self.modules = package_modules(package)
        self.functions = public_functions(self.modules)
        self.active = True
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One span per call: [name, parent span index or -1, start, end].
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, time covered by child spans]

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, parent[0] if parent else -1, 0.0, 0.0]
            frame = [len(self.spans), 0.0]
            self.spans.append(span)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span[2], span[3] = start, end
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
                if counter is not None:
                    try:
                        self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Rebind every module attribute that refers to a public function."""
        if self._patched:
            return
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    @contextmanager
    def paused(self):
        """Run a block (such as an output check) without recording it."""
        before, self.active = self.active, False
        try:
            yield
        finally:
            self.active = before

    def snapshot(self) -> dict:
        """Aggregates and spans in a JSON-ready form."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
