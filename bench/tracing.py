"""In-memory span recorder wrapped around the program's public functions.

``Recorder.install`` wraps every public function (``__all__``) of the layer
modules ``kconfig``, ``encode``, ``prop``, ``oracle`` and ``difftest`` and
rebinds the wrapper at every namespace of the package that binds the
function (``kconfex.difftest.repair`` as well as ``kconfex.oracle.repair``),
so the trace follows whatever the program calls.  Each call records one span:
name, start, end, parent span and operation id.  Spans stay in memory until
``write`` dumps them; ``summary`` derives per-function and per-layer times
from them, a layer's self time being its spans' durations minus the part
their child spans cover.

A function that calls itself through its module global (``evaluate``
recursing over a formula) runs in a copy of the module globals in which its
own name is bound to the unwrapped copy, so one call records one span rather
than one per formula node.  Defaults bound at definition time
(``check_model(oracle=builtin_oracle)``) keep pointing at the unwrapped
function; the calls they make are traced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("kconfig", "encode", "prop", "oracle", "difftest")

# Formula and variable constructors run once per formula node; a span around
# each would cost more than the work it measures.
UNTRACED = frozenset({"var", "not_", "and_", "or_", "implies", "iff", "yvar", "mvar", "value_var"})

# Public methods traced alongside the module functions: (layer, class, method).
METHODS = (("prop", "ConstraintSet", "model_text"),)

ROOT = "bench.op"


class Recorder:
    def __init__(self, package: str = "kconfex"):
        self.package = package
        self.names: list[str] = [ROOT]
        # (name index, start ns, end ns, parent span index or -1, operation id)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.counters: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.last_assignment: object = None

    # ---- installation

    def install(self) -> None:
        prefix = self.package + "."
        modules = [
            m for n, m in list(sys.modules.items()) if m is not None and (n == self.package or n.startswith(prefix))
        ]
        wrapped: dict[object, tuple[types.FunctionType, list]] = {}
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name not in UNTRACED:
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(module, attr, wrapped[value][0])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[prefix + layer], cls_name)
            fn = vars(cls)[method]
            self._rebind(cls, method, self._wrap(f"{layer}.{method}", fn)[0])
        # Self-recursive functions: snapshot the (now rebound) module globals
        # and run the body there, with its own name bound to the copy.
        for fn, (_, impl) in wrapped.items():
            if fn.__name__ in fn.__code__.co_names:
                scope = dict(fn.__globals__)
                clone = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
                clone.__kwdefaults__ = fn.__kwdefaults__
                scope[fn.__name__] = clone
                impl[0] = clone

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: types.FunctionType) -> tuple[types.FunctionType, list]:
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock, rec = self.spans, self.stack, time.perf_counter_ns, self
        observe = _OBSERVERS.get(name)
        impl = [fn]

        def traced(*args, **kwargs):
            parent = stack[-1]
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = impl[0](*args, **kwargs)
            finally:
                spans[me] = (index, start, clock(), parent, rec.op)
                stack.pop()
            if observe is not None:
                observe(rec, result, args)
            return result

        return functools.update_wrapper(traced, fn), impl

    # ---- operations

    @contextlib.contextmanager
    def operation(self):
        """Root span around one benchmark operation."""
        self.op += 1
        me = len(self.spans)
        self.spans.append(None)
        self.stack.append(me)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[me] = (0, start, time.perf_counter_ns(), -1, self.op)
            self.stack.pop()

    # ---- derivation and output

    def summary(self) -> dict:
        """Per-function calls, inclusive and self time, durations, and
        per-layer self time, all in nanoseconds and summed over operations.

        Inclusive time counts only the outermost span of a name, so mutual
        recursion is not counted twice."""
        spans = self.spans
        covered = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        calls: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        layer_self: Counter[str] = Counter()
        durations: dict[str, list[int]] = {}
        for i, (index, start, end, parent, _) in enumerate(spans):
            name = self.names[index]
            duration = end - start
            own = duration - covered[i]
            calls[name] += 1
            self_ns[name] += own
            layer_self[name.split(".")[0]] += own
            durations.setdefault(name, []).append(duration)
            while parent >= 0 and spans[parent][0] != index:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += duration
        return {
            "calls": calls,
            "inclusive_ns": inclusive,
            "self_ns": self_ns,
            "layer_self_ns": layer_self,
            "durations_ns": durations,
        }

    def write(self, path) -> None:
        """Dump every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (index, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{op}\t{i}\t{parent}\t{self.names[index]}\t{start}\t{end}\n")


# --------------------------------------------------------------------------
# Counts read from return values at the layer boundary


def _observe_repair(rec: Recorder, outcome, args) -> None:
    rec.counters["oracle.changed_rows"] += outcome.changed
    rec.counters["oracle.override_rows"] += outcome.select_override_fired


def _observe_evaluate(rec: Recorder, verdict, args) -> None:
    # A second evaluation of the same assignment object is the per-constraint
    # scan that classifies a mismatch row; the first is the row's verdict.
    assignment = args[1] if len(args) > 1 else None
    if assignment is rec.last_assignment:
        rec.counters["difftest.classify_evaluate_calls"] += 1
    else:
        rec.last_assignment = assignment


def _observe_parse(rec: Recorder, model, args) -> None:
    rec.counters["kconfig.options"] += len(model.items)


def _observe_translate(rec: Recorder, constraints, args) -> None:
    rec.counters["encode.constraints"] += len(constraints)
    rec.counters["encode.variables"] += len(constraints.variable_order)


def _observe_tseitin(rec: Recorder, cnf, args) -> None:
    rec.counters["prop.cnf_vars"] += cnf.num_vars
    rec.counters["prop.cnf_clauses"] += len(cnf.clauses)


def _observe_check(rec: Recorder, report, args) -> None:
    rec.counters["difftest.configs"] += report.config_count
    rec.counters["difftest.mismatch_rows"] += len(report.mismatches)
    rec.counters["difftest.known_limit_rows"] += len(report.known_limitations)


_OBSERVERS = {
    "oracle.repair": _observe_repair,
    "prop.evaluate": _observe_evaluate,
    "kconfig.parse_model": _observe_parse,
    "encode.translate": _observe_translate,
    "prop.tseitin_cnf": _observe_tseitin,
    "difftest.check_model": _observe_check,
}
