"""Command-line front end: validate, run, compose, and check scenario files."""

from __future__ import annotations

import argparse
import os
import sys

from .automaton import ConstantInputs, Hioaw, RandomScheduler
from .cars import COLOR, GROUND, PAINT, PRESSURE, GroundEnvironment
from .errors import BoundExceeded, HioawError, InvalidParams, TimeOutOfDomain
from .executions import ExecutionFragment
from .fields import FieldSlice, snapshot_csv
from .scenario import BuiltScenario, CheckResult, build_scenario, load_scenario, run_check
from .trajectories import Valuation, VarKind

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def trace_rows(frag: ExecutionFragment) -> list[tuple[str, str, str, str]]:
    """Flatten an execution into (time, kind, name, value) rows.

    Automaton-variable samples of every trajectory plus every action
    occurrence, in execution order.  Junction instants appear once per
    adjacent trajectory, which keeps the pre- and post-action states visible.
    """
    auto_names = sorted(v.name for v in frag.vars if v.kind is VarKind.AUTOMATON)
    dt = frag.time_step
    rows: list[tuple[str, str, str, str]] = []
    offset = 0
    for idx, traj in enumerate(frag.trajectories):
        for i, sample in enumerate(traj.samples):
            t = _fmt((offset + i) * dt)
            for name in auto_names:
                rows.append((t, "traj_sample", name, _fmt(sample[name])))
        offset += traj.steps
        if idx < len(frag.actions):
            rows.append((_fmt(offset * dt), "action", frag.actions[idx], ""))
    return rows


def write_trace_csv(frag: ExecutionFragment, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,kind,name,value\n")
        for row in trace_rows(frag):
            fh.write(",".join(row) + "\n")


def sample_at_time(frag: ExecutionFragment, t: float) -> Valuation:
    """The first sample taken at time ``t`` (a sample instant)."""
    dt = frag.time_step
    step = round(t / dt)
    if abs(step * dt - t) > 1e-9 or not 0 <= step <= frag.total_steps:
        raise TimeOutOfDomain(f"no sample at time {t:g}")
    offset = 0
    for traj in frag.trajectories:
        if step <= offset + traj.steps:
            return traj.samples[step - offset]
        offset += traj.steps
    raise TimeOutOfDomain(f"no sample at time {t:g}")


def write_snapshots(frag: ExecutionFragment, times: list[float], out_dir: str) -> list[str]:
    world_names = sorted(v.name for v in frag.vars if v.kind is VarKind.WORLD)
    written = []
    for t in times:
        sample = sample_at_time(frag, t)
        for name in world_names:
            value = sample[name]
            assert isinstance(value, FieldSlice)
            fname = f"{name}_t{t:.9g}.csv"
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(snapshot_csv(value))
            written.append(fname)
    return written


def _environment_for(built: BuiltScenario, name: str, automaton: Hioaw):
    if built.close_world.get(name):
        world_in = {v.name for v in automaton.sig.world_in}
        world_out = {v.name for v in automaton.sig.world_out}
        if world_in != {GROUND, COLOR} or not {PRESSURE, PAINT} <= world_out:
            raise InvalidParams(
                f"composition {name!r}: close_world needs {GROUND}/{COLOR} inputs "
                f"fed by {PRESSURE}/{PAINT} outputs"
            )
        assert built.grid is not None
        return GroundEnvironment(built.grid)
    return ConstantInputs(automaton.default_inputs)


def _run_targets(built: BuiltScenario) -> list[str]:
    if built.close_world:
        return sorted(built.close_world)
    composed = {c.name for c in built.scenario.composes}
    if composed:
        return sorted(composed)
    return sorted(built.automata)


def _cmd_validate(args) -> int:
    built = build_scenario(load_scenario(args.scenario))
    problems = 0
    for name in sorted(built.automata):
        report = built.automata[name].validate()
        status = "ok" if report.ok else "invalid"
        print(f"{name}: {status}")
        for finding in report.findings:
            problems += 1
            print(f"  - {finding}")
    return EXIT_FAIL if problems else EXIT_OK


def _cmd_compose(args) -> int:
    scn = load_scenario(args.scenario)
    built = build_scenario(scn)  # raises IncompatibleAutomata on a bad pair
    if not scn.composes:
        print("no [compose] sections")
        return EXIT_FAIL
    for cspec in scn.composes:
        comp = built.automata[cspec.name]
        sig = comp.sig
        print(f"{cspec.name}: {cspec.left} || {cspec.right}")
        for label, group in (
            ("world in", sig.world_in),
            ("world out", sig.world_out),
            ("in", sig.auto_in),
            ("internal", sig.auto_internal),
            ("out", sig.auto_out),
        ):
            names = ", ".join(sorted(v.name for v in group))
            print(f"  {label}: {names or '-'}")
        acts = ", ".join(sorted(sig.actions))
        print(f"  actions: {acts or '-'}")
    return EXIT_OK


def _parse_times(spec: str | None) -> list[float]:
    if not spec:
        return []
    try:
        return [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise InvalidParams(f"bad --snapshot-times value {spec!r}") from None


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    built = build_scenario(scn)
    times = _parse_times(args.snapshot_times)
    targets = _run_targets(built)
    if not targets:
        print("nothing to run")
        return EXIT_FAIL
    for name in targets:
        automaton = built.automata[name]
        env = _environment_for(built, name, automaton)
        scheduler = RandomScheduler(automaton, seed=args.seed)
        frag = automaton.execute(env, scn.horizon, scheduler)
        out_dir = os.path.join(args.out, name)
        os.makedirs(out_dir, exist_ok=True)
        write_trace_csv(frag, os.path.join(out_dir, "trace.csv"))
        snaps = write_snapshots(frag, times, out_dir)
        extras = f", {len(snaps)} snapshots" if snaps else ""
        print(
            f"{name}: {frag.total_steps} steps, {len(frag.actions)} actions"
            f" -> {out_dir}{extras}"
        )
    return EXIT_OK


def _cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    built = build_scenario(scn)
    if not scn.checks:
        print("no [check] sections")
        return EXIT_FAIL
    results: list[CheckResult] = []
    for spec in scn.checks:
        try:
            result = run_check(built, spec, depth_override=args.depth)
        except BoundExceeded as exc:
            result = CheckResult(spec.name, spec.kind, None, f"bound exceeded: {exc}")
        results.append(result)
        print(f"{result.name}: {result.kind} {result.status} ({result.detail})")
    if any(r.ok is False for r in results):
        return EXIT_FAIL
    if any(r.ok is None for r in results):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hioaw",
        description="Hybrid automata with shared world variables: scenario tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file to load")

    p_validate = sub.add_parser("validate", help="structural checks on every automaton")
    common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="execute and dump traces/snapshots")
    common(p_run)
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--seed", type=int, default=0, help="scheduler seed (default: 0)")
    p_run.add_argument(
        "--snapshot-times",
        default="",
        metavar="T1,T2,...",
        help="comma-separated times at which to dump world-variable snapshots",
    )
    p_run.set_defaults(func=_cmd_run)

    p_compose = sub.add_parser("compose", help="compose pairs and report signatures")
    common(p_compose)
    p_compose.set_defaults(func=_cmd_compose)

    p_check = sub.add_parser("check", help="run the scenario's refinement checks")
    common(p_check)
    p_check.add_argument("--depth", type=int, default=None, help="override check depth")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HioawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
