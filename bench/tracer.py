"""In-memory span tracer for one benchmark child interpreter.

`Tracer.install()` wraps the public functions of every `assoc_hermite`
module and the `Poly` arithmetic methods, then rebinds each wrapper in every
`assoc_hermite.*` namespace that holds the original (the modules import each
other with `from .x import y`, so patching the defining module alone would
miss most calls).  A call is one span; for a generator, each `next()` is one
span and each yielded object is counted.  Spans are aggregated per
(name, parent name) as calls, spans, objects, output `Poly` terms,
verification cases, total and self seconds.

Self time is a span's duration minus the time covered by its child spans.
Recursive functions (`usual_hermite`, the `@cache` recurrences) nest spans
of the same name, so their total time counts nested calls more than once;
read their self time instead.

Nothing here writes to stdout, so traced output stays byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time

ROOT_SPAN = "root"

# Poly methods traced under one span name each; the reflected operator
# shares the span of the forward one.
POLY_METHODS = {
    "__add__": "polynomials.add",
    "__radd__": "polynomials.add",
    "__mul__": "polynomials.mul",
    "__rmul__": "polynomials.mul",
    "to_json_obj": "polynomials.to_json",
}

# Fields of one aggregate record.
CALLS, SPANS, OBJECTS, TERMS, CASES, TOTAL, SELF = range(7)


def _is_traceable(value, module_name: str) -> bool:
    if getattr(value, "__module__", None) != module_name:
        return False
    return inspect.isfunction(value) or hasattr(value, "cache_info")


def _span_name(module_short: str, func_name: str) -> str:
    if module_short == "verification" and func_name.startswith("suite_"):
        return "verification." + func_name[len("suite_"):]
    return f"{module_short}.{func_name}"


class Tracer:
    """Aggregates spans of one process; see the module docstring."""

    def __init__(self):
        self.stack: list[list] = [[ROOT_SPAN, time.perf_counter(), 0.0]]
        self.table: dict[tuple[str, str], list] = {}
        self.cached: dict[str, object] = {}
        self._poly_type = None

    def _record(self, name: str, parent: str) -> list:
        rec = self.table.get((name, parent))
        if rec is None:
            rec = self.table[(name, parent)] = [0, 0, 0, 0, 0, 0.0, 0.0]
        return rec

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> list:
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        parent = self.stack[-1]
        parent[2] += duration
        rec = self._record(frame[0], parent[0])
        rec[SPANS] += 1
        rec[TOTAL] += duration
        rec[SELF] += duration - frame[2]
        return rec

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around code it calls."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)[CALLS] += 1

    # ----- wrappers -----

    def wrap_function(self, fn, name: str):
        tracer = self
        poly_type = self._poly_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec = tracer.exit(frame)
                rec[CALLS] += 1
            if type(result) is poly_type:
                rec[TERMS] += len(result.terms)
            elif hasattr(result, "cases") and hasattr(result, "suite"):
                rec[CASES] += result.cases
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._record(name, tracer.stack[-1][0])[CALLS] += 1
            return _TracedIterator(tracer, name, fn(*args, **kwargs))

        return traced

    # ----- installation -----

    def install(self, package) -> None:
        """Wrap every public function of the package and rebind the wrappers."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        poly_cls = importlib.import_module(f"{package.__name__}.polynomials").Poly
        self._poly_type = poly_cls

        replacements: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            if short == "cli":
                continue  # the benchmark opens the cli span around main()
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(value, module.__name__):
                    continue
                name = _span_name(short, attr)
                if hasattr(value, "cache_info"):
                    self.cached[name] = value
                if inspect.isgeneratorfunction(value):
                    replacements[id(value)] = self.wrap_generator(value, name)
                else:
                    replacements[id(value)] = self.wrap_function(value, name)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif type(value) is tuple and any(id(v) in replacements for v in value):
                    setattr(module, attr, tuple(replacements.get(id(v), v) for v in value))

        for method, name in POLY_METHODS.items():
            setattr(poly_cls, method, self.wrap_function(poly_cls.__dict__[method], name))

    # ----- export -----

    def hit_ratios(self) -> dict[str, list[int]]:
        """[hits, misses] of every traced `functools.cache` function."""
        return {
            name: [fn.cache_info().hits, fn.cache_info().misses]
            for name, fn in self.cached.items()
        }

    def rows(self) -> list[list]:
        """The aggregate table as JSON-ready rows: [name, parent, *record]."""
        return [[name, parent, *rec] for (name, parent), rec in sorted(self.table.items())]


class _TracedIterator:
    """Times each `next()` of a wrapped generator as one span."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            obj = next(self._it)
        except BaseException:
            self._tracer.exit(frame)
            raise
        self._tracer.exit(frame)[OBJECTS] += 1
        return obj
