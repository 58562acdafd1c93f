"""Spans recorded around hioaw's layers, for the benchmark's traced run.

A :class:`Tracer` times calls into the package from the outside.  Its
wrappers sit on module attributes that callers look up at call time (such as
``hioaw.cars.footprint`` and ``hioaw.cli.snapshot_csv``), on methods of
``Hioaw``, ``Valuation``, ``FieldSlice`` and ``GroundEnvironment``, and on the
generator, guard, environment and scheduler objects of the automata a run
builds.  The package's source is never edited: ``uninstall`` puts every
original back, and :func:`assert_clean` proves it before untraced work.

Spans live in flat arrays (name, parent, start, end) until :meth:`summary`
folds them into per-layer metrics.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from types import ModuleType

# (module, attribute, span) for functions that callers look up by module
# global at call time.
MODULE_SPANS = (
    ("cli", "snapshot_csv", "fields.snapshot_csv"),
    ("cli", "write_trace_csv", "cli.write_trace_csv"),
    ("cli", "load_scenario", "scenario.load"),
    ("cli", "build_scenario", "scenario.build"),
    ("scenario", "load_scenario", "scenario.load"),
    ("scenario", "build_scenario", "scenario.build"),
    ("scenario", "check_trace_inclusion", "refinement.check"),
    ("scenario", "check_simulation", "refinement.check"),
    ("cars", "footprint", "fields.footprint"),
    ("cars", "neighborhood", "fields.neighborhood"),
    ("cars", "slice_exists", "fields.slice_exists"),
    ("composition", "decompose_execution", "composition.decompose"),
    ("composition", "verify_decomposition", "composition.verify"),
    ("composition", "unpad", "executions.unpad"),
    ("composition", "restrict_execution", "executions.restrict"),
    ("executions", "align_paddings", "executions.align_paddings"),
    ("executions", "concat", "trajectories.concat"),
)

# (module, class, method, span) for methods looked up on the class.
METHOD_SPANS = (
    ("automaton", "Hioaw", "execute", "automaton.execute"),
    ("automaton", "Hioaw", "full_sample", "automaton.full_sample"),
    ("automaton", "Hioaw", "enabled_actions", "automaton.enabled_actions"),
    ("automaton", "Hioaw", "successors", "automaton.successors"),
    ("cars", "GroundEnvironment", "observe", "cars.observe"),
    ("fields", "FieldSlice", "__add__", "fields.combine"),
    ("trajectories", "Valuation", "project", "trajectories.project"),
    ("trajectories", "Valuation", "freeze", "trajectories.freeze"),
)

# Output maps get one span name per kind of automaton so that a composite's
# own work (the pointwise sums) can be told apart from its parts' outputs.
OUTPUT_SPANS = ("composition.output", "cars.output", "automaton.output")

# Units of the per-layer metrics.  Counts and byte totals must repeat exactly
# for equal inputs; the rest are measured.
UNITS = {
    "fields.snapshot_csv.s": "s",
    "fields.footprint.s": "s",
    "fields.footprint.calls": "count",
    "fields.neighborhood.s": "s",
    "fields.combine.s": "s",
    "fields.slice_exists.s": "s",
    "fields.retained_mb": "MiB",
    "automaton.execute.s": "s",
    "automaton.samples": "count",
    "automaton.flow.s": "s",
    "automaton.full_sample.s": "s",
    "automaton.output.calls": "count",
    "automaton.output_per_sample": "ratio",
    "automaton.enabled_actions.s": "s",
    "automaton.enabled_actions.calls": "count",
    "automaton.successors.calls": "count",
    "cars.observe.s": "s",
    "cars.part_output.s": "s",
    "composition.output.self_s": "s",
    "composition.guard.self_s": "s",
    "composition.decompose.s": "s",
    "composition.verify.s": "s",
    "executions.align_paddings.s": "s",
    "executions.unpad.s": "s",
    "executions.restrict.s": "s",
    "executions.junctions": "count",
    "trajectories.project.calls": "count",
    "trajectories.project.s": "s",
    "trajectories.freeze.calls": "count",
    "trajectories.concat.s": "s",
    "refinement.check.s": "s",
    "refinement.self_s": "s",
    "refinement.explored": "count",
    "scenario.load.s": "s",
    "scenario.build.s": "s",
    "cli.write_trace_csv.s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead_frac": "ratio",
}

EXACT_UNITS = ("count", "B")

MARK = "_bench_span"


class Tracer:
    """Installs timing wrappers on one imported ``hioaw`` package."""

    def __init__(self, h: ModuleType):
        self.h = h
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, bool, object]] = []
        self._patched: set[tuple[int, str]] = set()
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and captured results; keep the wrappers."""
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.frags: list = []
        self.explored = 0
        self.junctions = 0

    def _span_id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _wrap(self, fn, name: str, after=None, under: str | None = None):
        """``fn`` recording a span per call; with ``under``, only calls made
        directly inside a span of that name are recorded."""
        nid = self._span_id(name)
        outer = self._span_id(under) if under is not None else None
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if outer is not None and (stack[-1] < 0 or tracer.name_of[stack[-1]] != outer):
                return fn(*args, **kwargs)
            idx = len(tracer.name_of)
            tracer.name_of.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def patch(self, owner: object, attr: str, name: str, after=None, under=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``, once per owner."""
        if (id(owner), attr) in self._patched:
            return
        self._patched.add((id(owner), attr))
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        _set(owner, attr, self._wrap(getattr(owner, attr), name, after, under))
        self._patches.append((owner, attr, had_own, original))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's module attributes and class methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        after = {
            "scenario.build": self._instrument_built,
            "automaton.execute": self._keep_fragment,
            "executions.align_paddings": self._count_junctions,
            "refinement.check": self._count_explored,
        }
        for mod, attr, name in MODULE_SPANS:
            self.patch(getattr(self.h, mod), attr, name, after.get(name))
        for mod, cls, meth, name in METHOD_SPANS:
            klass = getattr(getattr(self.h, mod), cls)
            self.patch(klass, meth, name, after.get(name))

    def instrument(self, automaton) -> None:
        """Wrap one automaton's output map, flow and guards, and its parts'."""
        for part in automaton.parts or ():
            self.instrument(part)
        if automaton.parts:
            output, guard, under = "composition.output", "composition.guard", None
        else:
            # A part's guards matter only as the children subtracted from a
            # lifted guard; elsewhere they would just multiply the spans.
            output = "cars.output" if self._is_car(automaton) else "automaton.output"
            guard, under = "automaton.guard", "composition.guard"
        self.patch(automaton.gen, "output", output)
        self.patch(automaton.gen, "flow", "automaton.flow")
        for rule in automaton.rules:
            self.patch(rule, "guard", guard, under=under)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                _set(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def _is_car(self, automaton) -> bool:
        cars = self.h.cars
        outs = {v.name for v in automaton.sig.world_out}
        return {cars.PRESSURE, cars.PAINT} <= outs

    def _instrument_built(self, built) -> None:
        for aut in built.automata.values():
            self.instrument(aut)
        for inst in built.finite.values():
            self.instrument(inst.automaton)

    def _keep_fragment(self, frag) -> None:
        self.frags.append(frag)

    def _count_explored(self, verdict) -> None:
        # Simulation verdicts carry no search count.
        self.explored += getattr(verdict, "explored", 0)

    def _count_junctions(self, aligned) -> None:
        if aligned:
            self.junctions += len(aligned[0].actions)

    # -- folding spans into metrics ---------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Every recorded span as ``index,parent,name,start_us,end_us`` rows,
        times counted from the first span's start."""
        names = {i: n for n, i in self._ids.items()}
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_us,end_us\n")
            for i, (nid, p, s, e) in enumerate(
                zip(self.name_of, self.parent, self.start, self.end)
            ):
                fh.write(f"{i},{p},{names[nid]},{(s - t0) * 1e6:.3f},{(e - t0) * 1e6:.3f}\n")

    def time(self, name: str) -> float:
        """Seconds inside spans of ``name`` since :meth:`reset`."""
        return _Fold(self).time(name)

    def summary(self, artifact_bytes: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since :meth:`reset`."""
        fold = _Fold(self)
        samples = sum(len(tr.samples) for f in self.frags for tr in f.trajectories)
        outputs = fold.count_family(OUTPUT_SPANS, within="automaton.execute")
        return {
            "fields.snapshot_csv.s": fold.time("fields.snapshot_csv"),
            "fields.footprint.s": fold.time("fields.footprint"),
            "fields.footprint.calls": fold.count("fields.footprint"),
            "fields.neighborhood.s": fold.time("fields.neighborhood"),
            "fields.combine.s": fold.time("fields.combine"),
            "fields.slice_exists.s": fold.time("fields.slice_exists"),
            "fields.retained_mb": self._retained_mb(),
            "automaton.execute.s": fold.time("automaton.execute"),
            "automaton.samples": samples,
            "automaton.flow.s": fold.time("automaton.flow"),
            "automaton.full_sample.s": fold.time("automaton.full_sample"),
            "automaton.output.calls": outputs,
            "automaton.output_per_sample": outputs / samples if samples else 0.0,
            "automaton.enabled_actions.s": fold.time("automaton.enabled_actions"),
            "automaton.enabled_actions.calls": fold.count("automaton.enabled_actions"),
            "automaton.successors.calls": fold.count("automaton.successors"),
            "cars.observe.s": fold.time("cars.observe"),
            "cars.part_output.s": fold.time("cars.output"),
            "composition.output.self_s": fold.self_time("composition.output", OUTPUT_SPANS),
            "composition.guard.self_s": fold.self_time("composition.guard", ("automaton.guard",)),
            "composition.decompose.s": fold.time("composition.decompose"),
            "composition.verify.s": fold.time("composition.verify"),
            "executions.align_paddings.s": fold.time("executions.align_paddings"),
            "executions.unpad.s": fold.time("executions.unpad"),
            "executions.restrict.s": fold.time("executions.restrict"),
            "executions.junctions": self.junctions,
            "trajectories.project.calls": fold.count("trajectories.project"),
            "trajectories.project.s": fold.time("trajectories.project"),
            "trajectories.freeze.calls": fold.count("trajectories.freeze"),
            "trajectories.concat.s": fold.time("trajectories.concat"),
            "refinement.check.s": fold.time("refinement.check"),
            "refinement.self_s": fold.self_time("refinement.check"),
            "refinement.explored": self.explored,
            "cli.write_trace_csv.s": fold.time("cli.write_trace_csv"),
            "cli.artifact_bytes": artifact_bytes,
        }

    def _retained_mb(self) -> float:
        """Distinct field-array bytes held by the fragments ``execute`` returned."""
        field_slice = self.h.fields.FieldSlice
        arrays: dict[int, int] = {}
        for frag in self.frags:
            for tr in frag.trajectories:
                for sample in tr.samples:
                    for value in sample.values():
                        if isinstance(value, field_slice):
                            arrays[id(value.values)] = value.values.nbytes
        return sum(arrays.values()) / 2**20


class _Fold:
    """Per-name totals of a tracer's spans, gathered in one pass.

    ``time`` and ``count`` cover the outermost spans of a name (a span nested
    in another of the same name is not counted again); ``self_time`` covers
    every span of the name less its direct children.
    """

    def __init__(self, tracer: Tracer):
        self._ids = tracer._ids
        size = len(self._ids)
        self.outer_time = [0.0] * size
        self.outer_count = [0] * size
        self.all_time = [0.0] * size
        # child_time[p][c]: seconds in spans named c whose parent is named p.
        self.child_time = [[0.0] * size for _ in range(size)]
        name_of, parent = tracer.name_of, tracer.parent
        # Bit i of above[k] is set when span k has an ancestor named i.
        above = self.above = [0] * len(name_of)
        for k, (nid, p, s, e) in enumerate(zip(name_of, parent, tracer.start, tracer.end)):
            dur = e - s
            self.all_time[nid] += dur
            if p >= 0:
                pid = name_of[p]
                above[k] = above[p] | (1 << pid)
                self.child_time[pid][nid] += dur
            if not above[k] >> nid & 1:
                self.outer_time[nid] += dur
                self.outer_count[nid] += 1
        self.name_of = name_of

    def time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.outer_time[nid]

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.outer_count[nid]

    def count_family(self, names, within: str) -> int:
        """Spans named in ``names`` inside a span named ``within`` and not
        inside another span named in ``names``."""
        if within not in self._ids:
            return 0
        inside = 1 << self._ids[within]
        mask = 0
        for name in names:
            if name in self._ids:
                mask |= 1 << self._ids[name]
        return sum(
            1 for nid, up in zip(self.name_of, self.above)
            if mask >> nid & 1 and not up & mask and up & inside
        )

    def self_time(self, name: str, minus=None) -> float:
        """Seconds in spans of ``name`` less their direct children: all of
        them, or only those named in ``minus``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        children = self.child_time[nid]
        if minus is None:
            return self.all_time[nid] - sum(children)
        return self.all_time[nid] - sum(children[self._ids[c]] for c in minus if c in self._ids)


def _set(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, (type, ModuleType)):
        setattr(owner, attr, value)
    else:
        # Rules are frozen dataclasses; object.__setattr__ bypasses the freeze.
        object.__setattr__(owner, attr, value)


def assert_clean(h: ModuleType, *automata: object) -> None:
    """Raise unless no benchmark wrapper is left on the package or on the
    given automata and their parts."""
    if h.cars.footprint is not h.fields.footprint:
        raise RuntimeError("hioaw.cars.footprint is still wrapped")
    owners: list[object] = [getattr(h, mod) for mod, _attr, _name in MODULE_SPANS]
    for mod, cls, _meth, _name in METHOD_SPANS:
        owners.append(getattr(getattr(h, mod), cls))
    for automaton in automata:
        for aut in _with_parts(automaton):
            owners.append(aut.gen)
            owners.extend(aut.rules)
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"wrapper {getattr(value, MARK)!r} left on {owner!r}.{attr}")


def _with_parts(automaton):
    yield automaton
    for part in automaton.parts or ():
        yield from _with_parts(part)
