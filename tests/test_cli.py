"""CLI surface: subcommands, outputs on disk, exit codes, determinism."""

import hashlib
import os

import pytest

from hioaw import cli
from hioaw.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, main, trace_rows
from hioaw.errors import BoundExceeded
from hioaw.scenario import CheckResult
from test_scenario import FULL, chain_text


@pytest.fixture
def full_path(tmp_path):
    path = tmp_path / "world.ini"
    path.write_text(FULL)
    return str(path)


def read_tree(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fname in files:
            full = os.path.join(dirpath, fname)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_validate_reports_every_automaton(full_path, capsys):
    assert main(["validate", "--scenario", full_path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines) == [
        "duo: ok",
        "impl: ok",
        "one: ok",
        "plan: ok",
        "two: ok",
    ]


def test_missing_scenario_is_a_clean_failure(tmp_path, capsys):
    missing = str(tmp_path / "gone.ini")
    assert main(["validate", "--scenario", missing]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario")


def test_run_writes_traces_and_snapshots(full_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "run",
            "--scenario",
            full_path,
            "--out",
            out,
            "--seed",
            "3",
            "--snapshot-times",
            "0,1",
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    # a closed-world composition exists, so only it runs
    assert sorted(os.listdir(out)) == ["duo"]
    assert "duo: 40 steps" in printed

    files = sorted(os.listdir(os.path.join(out, "duo")))
    snaps = [
        f"{name}_t{t}.csv"
        for t in ("0", "1")
        for name in ("color", "ground", "paint", "pressure")
    ]
    assert files == sorted(["trace.csv"] + snaps)

    with open(os.path.join(out, "duo", "trace.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "time,kind,name,value"
    assert lines[1] == "0,traj_sample,heading_one,0"
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds <= {"traj_sample", "action"}
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times)

    with open(os.path.join(out, "duo", "pressure_t0.csv")) as fh:
        header = fh.readline().strip()
    assert header == "x,y,value"


def test_reruns_are_byte_identical(full_path, tmp_path):
    args = ["run", "--scenario", full_path, "--seed", "7", "--snapshot-times", "0,2"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == EXIT_OK
    assert main(args + ["--out", out2]) == EXIT_OK
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert tree1 and tree1 == tree2


# What `sha256sum $(ls | sort) | sha256sum` prints inside the world directory
# of the committed two-car run below.
TWO_CARS_DIGEST = "8a3049cbf4c87808b6db1ed05c969c7512d6ad503964693e7c0bc097b0314af9"
TWO_CARS_SCENARIO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios", "two_cars.ini"
)


def test_two_car_artifacts_match_the_golden_digest(tmp_path):
    out = str(tmp_path / "out")
    args = ["run", "--scenario", TWO_CARS_SCENARIO, "--out", out, "--seed", "0"]
    assert main(args + ["--snapshot-times", "0,10,20"]) == EXIT_OK
    world = os.path.join(out, "world")
    names = sorted(os.listdir(world))
    assert len(names) == 13
    lines = []
    for name in names:
        with open(os.path.join(world, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == TWO_CARS_DIGEST


def test_run_without_compose_runs_each_automaton(tmp_path):
    text = "\n".join([chain_text("solo", 2), "[time]", "dt = 0.1", "horizon = 1"])
    path = tmp_path / "solo.ini"
    path.write_text(text)
    out = str(tmp_path / "out")
    assert main(["run", "--scenario", str(path), "--out", out]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["solo"]
    assert os.path.exists(os.path.join(out, "solo", "trace.csv"))


def test_run_rejects_off_lattice_snapshot_times(full_path, tmp_path, capsys):
    code = main(
        [
            "run",
            "--scenario",
            full_path,
            "--out",
            str(tmp_path / "o"),
            "--snapshot-times",
            "0.05",
        ]
    )
    assert code == EXIT_FAIL
    assert "no sample at time 0.05" in capsys.readouterr().err
    code = main(
        [
            "run",
            "--scenario",
            full_path,
            "--out",
            str(tmp_path / "o2"),
            "--snapshot-times",
            "soonish",
        ]
    )
    assert code == EXIT_FAIL
    assert "bad --snapshot-times" in capsys.readouterr().err


def test_compose_prints_the_composite_signature(full_path, capsys):
    assert main(["compose", "--scenario", full_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "duo: one || two" in out
    assert "world out: paint, pressure" in out
    assert "actions: collision_one, collision_two, level_one, level_two" in out


def test_compose_without_sections_fails(tmp_path, capsys):
    path = tmp_path / "none.ini"
    path.write_text(chain_text("a", 1))
    assert main(["compose", "--scenario", str(path)]) == EXIT_FAIL
    assert "no [compose] sections" in capsys.readouterr().out


def test_check_passes_and_prints_verdicts(full_path, capsys):
    assert main(["check", "--scenario", full_path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    verdicts = [ln for ln in lines if not ln.startswith(" ")]
    assert verdicts[0].startswith("pair-ok: compat pass")
    assert verdicts[1].startswith("refines: trace-inclusion pass")
    assert verdicts[2].startswith("sim: simulation pass")


def test_check_detects_failure(tmp_path, capsys):
    text = "\n".join(
        [
            chain_text("deep", 9),
            chain_text("flat", 0),
            "[check far]",
            "kind = trace-inclusion",
            "left = deep",
            "right = flat",
        ]
    )
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["check", "--scenario", str(path)]) == EXIT_FAIL
    assert "far: trace-inclusion fail" in capsys.readouterr().out
    # the same scenario passes when the depth override stops the search early
    assert main(["check", "--scenario", str(path), "--depth", "3"]) == EXIT_OK


def test_check_without_sections_fails(tmp_path, capsys):
    path = tmp_path / "none.ini"
    path.write_text(chain_text("a", 1))
    assert main(["check", "--scenario", str(path)]) == EXIT_FAIL
    assert "no [check] sections" in capsys.readouterr().out


def test_exhausted_search_is_inconclusive(full_path, capsys, monkeypatch):
    def give_up(built, spec, depth_override=None):
        raise BoundExceeded("out of budget")

    monkeypatch.setattr(cli, "run_check", give_up)
    assert main(["check", "--scenario", full_path]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "inconclusive (bound exceeded: out of budget)" in out


def test_failure_outranks_inconclusive(full_path, monkeypatch):
    results = iter(
        [
            CheckResult("a", "compat", False, "clash"),
            CheckResult("b", "trace-inclusion", None, "bound"),
            CheckResult("c", "simulation", True, "holds"),
        ]
    )
    monkeypatch.setattr(cli, "run_check", lambda *a, **kw: next(results))
    assert main(["check", "--scenario", full_path]) == EXIT_FAIL


def test_trace_rows_show_pre_and_post_action_states(full_path):
    from hioaw import build_scenario, load_scenario
    from hioaw.automaton import RandomScheduler

    built = build_scenario(load_scenario(full_path))
    duo = built.automata["duo"]
    frag = duo.execute(cli.GroundEnvironment(built.grid), 2.0, RandomScheduler(duo, seed=0))
    assert frag.actions  # the cars do react within two seconds
    rows = trace_rows(frag)
    action_rows = [r for r in rows if r[1] == "action"]
    assert [r[2] for r in action_rows] == list(frag.actions)
    # the junction instant appears in both the closing and opening trajectory
    t_first = action_rows[0][0]
    sample_times = [r[0] for r in rows if r[1] == "traj_sample"]
    assert sample_times.count(t_first) >= 2 * len(
        {r[2] for r in rows if r[1] == "traj_sample"}
    )
