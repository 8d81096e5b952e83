"""Per-layer tracing of derandlab, installed from outside the package.

The tracer replaces the public functions of each layer module (and a few
class-level methods) with timing wrappers, and puts the originals back on
``uninstall``.  Every ``derandlab.*`` module global and every module-level
dict value bound to the same function object is patched, so calls through
``from .x import y`` bindings are seen too.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the wrapped calls made inside it; time spent
in unwrapped helpers stays with the nearest wrapped caller.  Calls are
aggregated per name and per (name, caller) pair.  Calls of names outside
``HOT`` are also kept as spans (id, parent span, name, start, end, operation)
and written out when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

perf = time.perf_counter

LAYERS = (
    "cli",
    "derandomize",
    "problems",
    "graphs",
    "simulator",
    "streams",
    "programs",
    "connected",
)

# Class-level methods wrapped in addition to each module's public functions.
METHODS = {
    "graphs": [("BallView", "neighbors_of_center")],
    "problems": [("ProblemSpec", "ball_valid")],
    "streams": [
        ("BitReader", "next_bit"),
        ("BitStream", "keyed"),
        ("RandomAssignment", "from_vectors"),
    ],
}

# Module functions the per-layer metrics read; a missing one is reported.
FUNCTIONS = (
    "derandomize.derandomize",
    "derandomize.find_normal_form",
    "derandomize.assignment_is_good",
    "problems.verify",
    "problems.brute_force_solve",
    "graphs.enumerate_instances",
    "graphs.extract_ball",
    "graphs.canonicalize",
    "simulator.run_deterministic",
    "simulator.run_randomized",
    "simulator.run_normal_form",
    "connected.run_connected_aware",
)

# Names called up to millions of times per pass: counted and timed, no spans.
HOT = {
    "problems.ProblemSpec.ball_valid",
    "graphs.BallView.neighbors_of_center",
    "streams.BitReader.next_bit",
    "streams.BitStream.keyed",
    "streams.RandomAssignment.from_vectors",
    "streams.iter_bounded_assignments",
    "graphs.extract_ball",
    "graphs.canonicalize",
    "graphs.enumerate_instances",
    "graphs.ball_covers_instance",
    "problems.verify",
    "problems.verify_locally",
    "problems.brute_force_solve",
    "problems.solve_ball_component",
    "simulator.run_deterministic",
    "simulator.run_randomized",
    "simulator.run_normal_form",
    "simulator.fix_randomness",
    "derandomize.assignment_is_good",
    "connected.run_connected_aware",
    "programs.step",
}

_MARK = "__perfbench_traced__"


class _Frame:
    __slots__ = ("name", "start", "child", "sid")

    def __init__(self, name: str, start: float, sid: int | None):
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.absent: list[str] = []
        self._restore: list = []
        self._stack: list[_Frame] = []
        self._next_sid = 1
        self.op: str | None = None
        self.reset()

    # -- aggregation --------------------------------------------------------

    def reset(self) -> None:
        """Drop the aggregates and spans of the previous pass."""
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.edge_calls: Counter = Counter()  # (name, caller name)
        self.edge_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if name in HOT:
            sid = parent.sid if parent else None
        else:
            sid = self._next_sid
            self._next_sid += 1
        frame = _Frame(name, perf(), sid)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf()
        self._stack.pop()
        duration = end - frame.start
        name = frame.name
        parent = self._stack[-1] if self._stack else None
        caller = parent.name if parent else None
        self.calls[name] += 1
        self.total[name] += duration
        self.child[name] += frame.child
        self.edge_calls[name, caller] += 1
        self.edge_time[name, caller] += duration
        if parent is not None:
            parent.child += duration
        if name not in HOT:
            parent_sid = parent.sid if parent else None
            self.spans.append((frame.sid, parent_sid, name, frame.start, end, self.op))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self.total[n] - self.child[n] for n in self.total if n.startswith(prefix)
        )

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        yield from it
                        return
                    frame = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counters[name + ".yields"] += 1
                    yield item

            setattr(gen_wrapper, _MARK, True)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if observe is not None:
                    tracer._observe(observe, name, args, kwargs, None, exc)
                raise
            tracer._exit(frame)
            if observe is not None:
                tracer._observe(observe, name, args, kwargs, result, None)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _observe(self, observe, name, args, kwargs, result, exc) -> None:
        try:
            observe(self, args, kwargs, result, exc)
        except (AttributeError, KeyError, IndexError, TypeError):
            label = f"{name} (fields read by the tracer)"
            if label not in self.absent:
                self.absent.append(label)

    def _wrap_factory(self, name: str, fn):
        """Wrap a program factory so that the programs it builds have their
        step function traced as ``programs.step``."""
        tracer = self
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            program = inner(*args, **kwargs)
            step = getattr(program, "step", None)
            if (
                dataclasses.is_dataclass(program)
                and callable(step)
                and not getattr(step, _MARK, False)
            ):
                program = dataclasses.replace(
                    program, step=tracer._wrap("programs.step", step)
                )
            return program

        setattr(factory, _MARK, True)
        return factory

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "derandlab" and not modname.startswith("derandlab."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._restore.append((namespace, key, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = replacement
                            self._restore.append((value, dkey, original))

    def install(self) -> None:
        """Wrap every layer module's public functions and the listed methods.

        A module, class or method that no longer exists is recorded in
        ``absent`` instead of failing.
        """
        self.absent = []
        wrapped = set()
        for layer in LAYERS:
            modname = f"derandlab.{layer}"
            module = sys.modules.get(modname)
            if module is None:
                self.absent.append(modname)
                continue
            for key, value in list(vars(module).items()):
                if key.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != modname or getattr(value, _MARK, False):
                    continue
                name = f"{layer}.{key}"
                if layer == "programs":
                    replacement = self._wrap_factory(name, value)
                else:
                    replacement = self._wrap(name, value, OBSERVERS.get(name))
                self._patch_everywhere(value, replacement)
                wrapped.add(name)
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    self.absent.append(f"{modname}.{cls_name}.{attr}")
                    continue
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                setattr(cls, attr, replacement)
                self._restore.append((cls, attr, raw))
        self.absent += [f"derandlab.{name}" for name in FUNCTIONS if name not in wrapped]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._restore = []
        self.active = False


# -- observers: counts read off arguments and results -----------------------


def _observe_search(tracer: Tracer, args, kwargs, result, exc) -> None:
    if result is not None:
        tracer.counters["derandomize.placements"] += result.stats.placements
    elif type(exc).__name__ == "SearchBudgetExceeded":
        # The search raises once placements exceed the budget.
        config = args[0] if args else kwargs["config"]
        tracer.counters["derandomize.placements"] += config.node_budget + 1


def _observe_connected(tracer: Tracer, args, kwargs, result, exc) -> None:
    if result is not None and result.path == "brute-force":
        tracer.counters["connected.brute_force"] += 1


OBSERVERS = {
    "derandomize.find_normal_form": _observe_search,
    "connected.run_connected_aware": _observe_connected,
}


# -- per-layer metrics -------------------------------------------------------


LAYER_UNITS = {
    "count": (
        "placements", "checks", "assignments_tried", "verify_calls",
        "ball_valid_calls", "brute_force_calls", "instances", "extract_calls",
        "canonicalize_calls", "accessor_calls", "runs", "normal_form_runs",
        "bits_read", "keyed_streams", "vector_assignments", "node_steps",
    ),
    "ratio": ("checks_per_placement", "brute_force_share"),
    "1/s": ("placements_per_s", "views_per_s", "runs_per_s"),
    "bytes": ("report_bytes",),
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric; the ones not listed are seconds."""
    short = name.split(".", 1)[1]
    for unit, names in LAYER_UNITS.items():
        if short in names:
            return unit
    return "s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def search_checks(tracer: Tracer) -> int:
    """Ball predicate evaluations made by the table search itself."""
    return tracer.edge_calls["problems.ProblemSpec.ball_valid", "derandomize.find_normal_form"]


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``trace.overhead_s`` is
    added by the caller, which has the untraced pass times)."""
    c, t = tracer.calls, tracer.total
    placements = tracer.counters["derandomize.placements"]
    checks = search_checks(tracer)
    search_s = t["derandomize.find_normal_form"]
    run_names = ("simulator.run_deterministic", "simulator.run_randomized")
    runs = sum(c[n] for n in run_names)
    run_s = sum(t[n] for n in run_names)
    connected_runs = c["connected.run_connected_aware"]
    return {
        "derandomize.placements": placements,
        "derandomize.checks": checks,
        "derandomize.checks_per_placement": _ratio(checks, placements),
        "derandomize.placements_per_s": _ratio(placements, search_s),
        "derandomize.search_s": search_s,
        "derandomize.post_verify_s": t["derandomize.derandomize"]
        - tracer.edge_time["derandomize.find_normal_form", "derandomize.derandomize"],
        "derandomize.assignments_tried": c["derandomize.assignment_is_good"],
        "derandomize.self_s": tracer.self_time("derandomize"),
        "problems.verify_calls": c["problems.verify"],
        "problems.verify_s": t["problems.verify"],
        "problems.ball_valid_calls": c["problems.ProblemSpec.ball_valid"],
        "problems.ball_valid_s": t["problems.ProblemSpec.ball_valid"],
        "problems.brute_force_calls": c["problems.brute_force_solve"],
        "problems.brute_force_s": t["problems.brute_force_solve"],
        "problems.self_s": tracer.self_time("problems"),
        "graphs.instances": tracer.counters["graphs.enumerate_instances.yields"],
        "graphs.enumerate_s": t["graphs.enumerate_instances"],
        "graphs.extract_calls": c["graphs.extract_ball"],
        "graphs.extract_s": t["graphs.extract_ball"],
        "graphs.canonicalize_calls": c["graphs.canonicalize"],
        "graphs.canonicalize_s": t["graphs.canonicalize"],
        "graphs.views_per_s": _ratio(c["graphs.extract_ball"], t["graphs.extract_ball"]),
        "graphs.accessor_calls": c["graphs.BallView.neighbors_of_center"],
        "graphs.self_s": tracer.self_time("graphs"),
        "simulator.runs": runs,
        "simulator.run_s": run_s,
        "simulator.runs_per_s": _ratio(runs, run_s),
        "simulator.normal_form_runs": c["simulator.run_normal_form"],
        "simulator.normal_form_s": t["simulator.run_normal_form"],
        "simulator.self_s": tracer.self_time("simulator"),
        "streams.bits_read": c["streams.BitReader.next_bit"],
        "streams.keyed_streams": c["streams.BitStream.keyed"],
        "streams.vector_assignments": c["streams.RandomAssignment.from_vectors"],
        "streams.self_s": tracer.self_time("streams"),
        "programs.node_steps": c["programs.step"],
        "programs.step_s": t["programs.step"],
        "connected.runs": connected_runs,
        "connected.brute_force_share": _ratio(
            tracer.counters["connected.brute_force"], connected_runs
        ),
        "connected.self_s": tracer.self_time("connected"),
        "cli.self_s": tracer.self_time("cli"),
        "cli.report_bytes": report_bytes,
    }
