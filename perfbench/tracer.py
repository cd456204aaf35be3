"""Layer tracer: spans around each layer's public entry points, installed from outside.

The program has no span instrumentation of its own, so the benchmark patches
the entry points listed in :data:`LAYERS`.  Callers import functions by name
(``from repro.interp.checksum import checksum_testing``), so patching the
defining module is not enough: :meth:`Tracer.install` imports every
``repro`` module and rebinds every module-level name that refers to an
entry point.  Methods are patched on their class.

Each layer records ``calls`` (outermost entries only: a layer re-entering
itself, like the memoised recursion of ``normalize_term``, is one call) and
``self_s``, its span time minus the time of the other layers' spans nested in
it.  The benchmark opens a root span per kernel, so the root's self time is
the kernel's unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager

#: Layer name -> entry points, as ``module:attribute`` or ``module:Class.method``.
LAYERS: dict[str, tuple[str, ...]] = {
    "llm": ("repro.llm.synthetic:SyntheticLLM.complete",),
    "staticcheck": ("repro.staticcheck.checker:check_candidate",),
    "interp.checksum": ("repro.interp.checksum:checksum_testing",),
    "interp": ("repro.interp.interpreter:Interpreter.run",),
    "cfront": ("repro.cfront.cparser:parse_function",
               "repro.cfront.cparser:parse_program",
               "repro.cfront.cparser:parse_expression"),
    "vectorizer": ("repro.vectorizer.planner:plan_vectorization",
                   "repro.vectorizer.codegen:vectorize_kernel",
                   "repro.vectorizer.codegen:generate_vectorized_function"),
    "alive.verifier": ("repro.alive.verifier:AliveVerifier.check_with_alive_unroll",
                       "repro.alive.verifier:AliveVerifier.check_with_c_unroll",
                       "repro.alive.verifier:AliveVerifier.check_with_spatial_splitting"),
    "alive.symexec": ("repro.alive.symexec:execute_symbolically",),
    "smt.equiv": ("repro.smt.equiv:EquivalenceChecker.check_pairs",
                  "repro.smt.equiv:EquivalenceChecker.check_pair"),
    "smt.equiv.normalize": ("repro.smt.equiv:normalize_term",),
    "smt.bitblast": ("repro.smt.bitblast:BitBlaster.blast",),
    "smt.sat": ("repro.smt.sat:CDCLSolver.solve",),
}

#: The span each kernel runs under; its self time is the unattributed time.
ROOT = "kernel"

_installed: "Tracer | None" = None


class Tracer:
    """Per-layer call counts and self time, accumulated in this process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # One [layer, seconds spent in nested spans, start] frame per open span.
        self._stack: list[list] = []
        self._open: dict[str, bool] = {}

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.calls, 0)
        self.self_s = dict.fromkeys(self.self_s, 0.0)

    def totals(self) -> dict[str, dict[str, float]]:
        return {layer: {"calls": self.calls[layer], "self_s": self.self_s[layer]}
                for layer in self.calls}

    def _enter(self, layer: str) -> list:
        self._open[layer] = True
        frame = [layer, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        layer, nested, started = frame
        elapsed = time.perf_counter() - started
        self._stack.pop()
        self._open[layer] = False
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, layer: str):
        """An explicit span, for work that has no entry point to patch."""
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, layer: str, fn):
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        is_open = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_open.get(layer):
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def install(self) -> None:
        """Patch every entry point of :data:`LAYERS` at every binding."""
        global _installed
        if _installed is not None:
            raise RuntimeError("a tracer is already installed in this process")
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None and (name == "repro" or name.startswith("repro."))]
        for layer, entry_points in LAYERS.items():
            for entry in entry_points:
                module_name, _, path = entry.partition(":")
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for class_name in classes:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
                traced = self.wrap(layer, original)
                if classes:
                    setattr(owner, attr, traced)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, traced)
        _installed = self


def installed() -> "Tracer | None":
    """The tracer installed in this process, if any."""
    return _installed
