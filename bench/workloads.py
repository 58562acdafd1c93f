"""The benchmark's workloads: inputs made from a seed, one timed op, its check.

Every workload drives ``hioaw`` through the package it is handed (imported
afresh for each timed set-up), either through the ``hioaw`` command line run
in-process or through the library's public functions.  Set-up, the part a
user pays before the first op, is loading and building the scenario file.

Sizes are chosen so one op takes one to three seconds on a 2-core machine;
``small=True`` gives the reduced sizes the benchmark's own test uses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
from types import ModuleType

# sha256 over "<sha256>  <name>\n" lines of the 13 files two_cars.ini writes,
# in name order: what `sha256sum $(ls | sort) | sha256sum` prints in out/world.
TWO_CARS_DIGEST = "8a3049cbf4c87808b6db1ed05c969c7512d6ad503964693e7c0bc097b0314af9"
TWO_CARS_FILES = 13
CAR_HEADING_2 = "3.14159265358979312"


class Workload:
    """One input set and its op.  Subclasses fill in the hooks; the reason
    each workload exists is its ``why`` in ``BENCHMARK.json``."""

    name = ""
    # The reference kernel whose kind of work dominates the op (see reference.py).
    reference = "python"

    def __init__(self, root: str, seed: int, work_dir: str, small: bool = False):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.scenario_path = os.path.join(work_dir, f"{self.name}.ini")
        os.makedirs(work_dir, exist_ok=True)

    def params(self) -> dict:
        """The sizes and generated inputs, for the result record."""
        return {}

    def setup(self, h: ModuleType):
        """Load and build the scenario: the timed part of set-up after import."""
        return h.scenario.build_scenario(h.scenario.load_scenario(self.scenario_path))

    def prepare(self, h: ModuleType, built) -> None:
        """Untimed one-off work the checks need, such as a reference answer."""

    def clean(self) -> None:
        """Remove the previous op's output so a check never sees stale files."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self, h: ModuleType, built, tracer=None):
        raise NotImplementedError

    def check(self, h: ModuleType, built, result) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def artifact_bytes(self) -> int:
        total = 0
        for dirpath, _dirs, files in os.walk(self.out_dir):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return total

    def _cli(self, h: ModuleType, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = h.cli.main(argv)
        return code, out.getvalue()


def _tree_digest(directory: str) -> str:
    lines = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class TwoCars(Workload):
    """``hioaw run`` on the committed two-car scenario, with snapshots.

    The cars have only urgent actions, so the scheduler seed, and with it the
    benchmark seed, changes nothing: every op must write the same bytes.
    """

    name = "two_cars"

    def __init__(self, root, seed, work_dir, small=False):
        # The committed file is the input, so there is no reduced size.
        super().__init__(root, seed, work_dir, small)
        self.scenario_path = os.path.join(root, "scenarios", "two_cars.ini")

    def params(self):
        return {"scenario": "scenarios/two_cars.ini", "snapshot_times": "0,10,20"}

    def op(self, h, built, tracer=None):
        argv = ["run", "--scenario", self.scenario_path, "--out", self.out_dir,
                "--seed", str(self.seed), "--snapshot-times", "0,10,20"]
        return self._cli(h, argv)

    def check(self, h, built, result):
        code, _text = result
        if code != 0:
            return [f"exit code {code}"]
        world = os.path.join(self.out_dir, "world")
        if len(os.listdir(world)) != TWO_CARS_FILES:
            return [f"{len(os.listdir(world))} files written, expected {TWO_CARS_FILES}"]
        digest = _tree_digest(world)
        return [] if digest == TWO_CARS_DIGEST else [f"artifact digest {digest}"]


class TwoCarsFine(Workload):
    """``hioaw run`` on the two-car world at four times the cells, no snapshots.

    Checked against the pose-only oracle: each car's collision action must
    fire at the step where the other car's footprint enters its sensing ring.
    """

    name = "two_cars_fine"
    reference = "numpy"

    def __init__(self, root, seed, work_dir, small=False):
        super().__init__(root, seed, work_dir, small)
        self.cells, self.cell_size = (100, 0.5) if small else (400, 0.125)
        rng = random.Random(seed)
        # Start offsets move where the cars meet, not how long the run is.
        self.dx1 = round(rng.uniform(-0.5, 0.5), 3)
        self.dx2 = round(rng.uniform(-0.5, 0.5), 3)
        self.dy = round(rng.uniform(-0.5, 0.5), 3)
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            fh.write(self._scenario_text())
        self.expected: tuple | None = None

    def params(self):
        return {"cells": self.cells, "cell_size": self.cell_size,
                "dx1": self.dx1, "dx2": self.dx2, "dy": self.dy}

    def _scenario_text(self) -> str:
        y = 25 + self.dy
        return "\n".join([
            "[grid]", f"width = {self.cells}", f"height = {self.cells}",
            f"cell_size = {self.cell_size}", "",
            "[time]", "dt = 0.1", "horizon = 20", "",
            "[car 1]", "mass = 1000", "length = 2", "width = 1", "radius = 2",
            f"x = {15 + self.dx1}", f"y = {y}", "heading = 0", "",
            "[car 2]", "mass = 800", "length = 2", "width = 1", "radius = 2",
            f"x = {35 + self.dx2}", f"y = {y}", f"heading = {CAR_HEADING_2}", "",
            "[compose world]", "left = 1", "right = 2", "close_world = true", "",
        ])

    def prepare(self, h, built):
        """The pose-only oracle's first risk steps, from a library run of the
        same world with the same scheduler seed."""
        scn = built.scenario
        comp = built.automata["world"]
        frag = comp.execute(
            h.cars.GroundEnvironment(scn.grid),
            scn.horizon,
            h.automaton.RandomScheduler(comp, seed=self.seed),
        )
        self.expected = h.cars.first_risk_steps(frag, scn.cars["1"], scn.cars["2"], scn.grid)
        if None in self.expected:
            raise RuntimeError(f"the cars never come within sensing range: {self.expected}")

    def op(self, h, built, tracer=None):
        argv = ["run", "--scenario", self.scenario_path, "--out", self.out_dir,
                "--seed", str(self.seed)]
        return self._cli(h, argv)

    def check(self, h, built, result):
        code, _text = result
        if code != 0:
            return [f"exit code {code}"]
        world = os.path.join(self.out_dir, "world")
        if os.listdir(world) != ["trace.csv"]:
            return [f"unexpected files {sorted(os.listdir(world))}"]
        dt = built.scenario.time_step
        fired: dict[str, int] = {}
        with open(os.path.join(world, "trace.csv"), encoding="utf-8") as fh:
            for line in fh:
                t, kind, name, _value = line.rstrip("\n").split(",")
                if kind == "action" and name not in fired:
                    fired[name] = round(float(t) / dt)
        got = (fired.get("collision_1"), fired.get("collision_2"))
        if got != self.expected:
            return [f"collisions fire at steps {got}, the oracle says {self.expected}"]
        return []


class RefineRing(Workload):
    """``hioaw check`` on a generated scenario with no grid and no fields.

    Two rings of ``n`` locations, each with a ``go`` output and a hidden
    action that both advance, and a level output per location.  Three checks:
    trace inclusion at ``depth``, simulation under the identity relation, and
    trace inclusion between the rings each composed with a ``tick`` ring.
    """

    name = "refine_ring"

    def __init__(self, root, seed, work_dir, small=False):
        super().__init__(root, seed, work_dir, small)
        if small:
            self.n, self.depth, self.ctx, self.ctx_depth = 8, 6, 3, 3
        else:
            self.n, self.depth, self.ctx, self.ctx_depth = 32, 14, 3, 4
        self.levels = 2
        # A shuffle of i mod k keeps every level equally common, so the
        # seed changes the labelling but not the search's size.
        self.labels = [i % self.levels for i in range(self.n)]
        random.Random(seed).shuffle(self.labels)
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            fh.write(self._scenario_text())
        self.expected = [
            f"incl: trace-inclusion pass (trace inclusion holds to depth {self.depth})",
            f"sim: simulation pass (simulation holds to depth {self.depth})",
            f"ctx_incl: trace-inclusion pass (trace inclusion holds to depth {self.ctx_depth})",
        ]

    def params(self):
        return {"n": self.n, "depth": self.depth, "levels": self.levels,
                "ctx": self.ctx, "ctx_depth": self.ctx_depth}

    def _ring(self, name: str) -> list[str]:
        n = self.n
        lines = [f"[automaton {name}]",
                 "locations = " + ", ".join(f"l{i}" for i in range(n)),
                 "start = l0", "action.go = output", f"action.h_{name} = hidden"]
        for i in range(n):
            lines.append(f"transition = l{i}, go, l{(i + 1) % n}")
            lines.append(f"transition = l{i}, h_{name}, l{(i + 1) % n}")
        lines += [f"output.lvl.l{i} = {self.labels[i]}" for i in range(n)]
        return lines + [""]

    def _scenario_text(self) -> str:
        m = self.ctx
        lines = self._ring("impl") + self._ring("spec")
        lines += ["[automaton ctx]",
                  "locations = " + ", ".join(f"c{i}" for i in range(m)),
                  "start = c0", "action.tick = output"]
        lines += [f"transition = c{i}, tick, c{(i + 1) % m}" for i in range(m)]
        lines += [f"output.ctx_lvl.c{i} = {i}" for i in range(m)] + [""]
        identity = ", ".join(f"l{i}:l{i}" for i in range(self.n))
        lines += [
            "[compose impl_ctx]", "left = impl", "right = ctx", "",
            "[compose spec_ctx]", "left = spec", "right = ctx", "",
            "[check incl]", "kind = trace-inclusion", "left = impl", "right = spec",
            f"depth = {self.depth}", "",
            "[check sim]", "kind = simulation", "left = impl", "right = spec",
            f"depth = {self.depth}", f"relation = {identity}", "",
            "[check ctx_incl]", "kind = trace-inclusion", "left = impl_ctx",
            "right = spec_ctx", f"depth = {self.ctx_depth}", "",
        ]
        return "\n".join(lines)

    def op(self, h, built, tracer=None):
        return self._cli(h, ["check", "--scenario", self.scenario_path])

    def check(self, h, built, result):
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        if text.splitlines() != self.expected:
            problems.append(f"verdicts {text.splitlines()}")
        return problems


class PlannedScheduler:
    """Fires the planned action at each planned sample step, once, and
    nothing anywhere else."""

    def __init__(self, plan: dict[int, str], time_step: float):
        self._plan = plan
        self._dt = time_step
        self._spent: int | None = None

    def pick(self, t, state, inputs, enabled):
        k = round(t / self._dt)
        if k == self._spent or k not in self._plan:
            return None
        self._spent = k
        return self._plan[k]


class Junctions(Workload):
    """Library run of two composed togglers, then the executions algebra.

    A planned scheduler fires exactly ``junctions`` seed-chosen instants, half
    for each toggler; the op then decomposes the run, verifies the
    decomposition and aligns the two component runs' paddings.
    """

    name = "junctions"

    def __init__(self, root, seed, work_dir, small=False):
        super().__init__(root, seed, work_dir, small)
        self.junctions, self.horizon = (20, 10) if small else (160, 100)
        self.time_step = 0.1
        steps = round(self.horizon / self.time_step)
        rng = random.Random(seed)
        instants = sorted(rng.sample(range(1, steps), self.junctions))
        # Each toggler fires exactly half of the instants.
        half = self.junctions // 2
        actions = ["flip_a"] * half + ["flip_b"] * (self.junctions - half)
        rng.shuffle(actions)
        self.plan = dict(zip(instants, actions))
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            fh.write(self._scenario_text())

    def params(self):
        return {"junctions": self.junctions, "horizon": self.horizon}

    def _scenario_text(self) -> str:
        lines = ["[time]", f"dt = {self.time_step}", f"horizon = {self.horizon}", ""]
        for part in ("a", "b"):
            lines += [
                f"[automaton {part}]", "locations = off, on", "start = off",
                f"action.flip_{part} = output",
                f"transition = off, flip_{part}, on",
                f"transition = on, flip_{part}, off",
                f"output.{part}_lvl.off = 0", f"output.{part}_lvl.on = 1", "",
            ]
        return "\n".join(lines + ["[compose pair]", "left = a", "right = b", ""])

    def op(self, h, built, tracer=None):
        comp = built.automata["pair"]
        env = h.automaton.ConstantInputs(comp.default_inputs)
        scheduler = PlannedScheduler(self.plan, comp.time_step)
        if tracer is not None:
            tracer.instrument(comp)
            tracer.patch(env, "observe", "junctions.observe")
            tracer.patch(scheduler, "pick", "junctions.pick")
        frag = comp.execute(env, built.scenario.horizon, scheduler)
        part_a, part_b = h.composition.decompose_execution(comp, frag)
        problems = h.composition.verify_decomposition(comp, frag, part_a, part_b)
        aligned = h.executions.align_paddings([part_a, part_b])
        return frag, (part_a, part_b), problems, aligned

    def check(self, h, built, result):
        frag, parts, problems, aligned = result
        out = list(problems)
        if len(frag.actions) != self.junctions:
            out.append(f"{len(frag.actions)} junctions, planned {self.junctions}")
        lengths = [[len(tr.samples) for tr in run.trajectories] for run in aligned]
        if lengths[0] != lengths[1]:
            out.append("aligned runs differ in per-index trajectory lengths")
        for run, part in zip(aligned, parts):
            if not h.executions.executions_close(h.executions.unpad(run), part):
                out.append("unpad of an aligned run differs from the component run")
        return out


WORKLOADS = {w.name: w for w in (TwoCars, TwoCarsFine, RefineRing, Junctions)}
