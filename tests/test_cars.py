"""The two-car scenario: geometry-driven stigmergy and its ground truth."""

import numpy as np
import pytest

from corpus import CAR_GRID, DT, car_pair_params, region_cells
from hioaw import (
    CarParams,
    ConstantInputs,
    FieldKind,
    FieldSlice,
    GroundEnvironment,
    Valuation,
    build_car,
    build_scenario,
    build_two_car_world,
    first_action_step,
    first_risk_steps,
    footprint,
    load_scenario,
    occupancy_field,
    supervisor_oracle,
)
from hioaw.cars import COLOR, GROUND, PAINT, PRESSURE, SPEED_SLOW
from hioaw.errors import InvalidParams
from test_cli import TWO_CARS_SCENARIO


def test_params_validation():
    good = CarParams("a", 100.0, 2.0, 1.0, 2.0, (5.0, 5.0), 0.0)
    assert good.semi_diagonal == pytest.approx(np.hypot(2.0, 1.0) / 2.0)
    assert good.var("pos_x") == "pos_x_a"
    with pytest.raises(InvalidParams, match="mass"):
        CarParams("a", 0.0, 2.0, 1.0, 2.0, (5.0, 5.0), 0.0)
    with pytest.raises(InvalidParams, match="dimensions"):
        CarParams("a", 100.0, 2.0, -1.0, 2.0, (5.0, 5.0), 0.0)
    with pytest.raises(InvalidParams, match="sense radius"):
        CarParams("a", 100.0, 2.0, 1.0, 1.0, (5.0, 5.0), 0.0)


def test_build_warns_when_one_step_can_overshoot_the_ring():
    tight = CarParams("t", 100.0, 2.0, 1.0, 1.2, (5.0, 5.0), 0.0)
    with pytest.warns(UserWarning, match="barely exceeds"):
        build_car(tight, CAR_GRID, DT)


def test_car_automaton_validates():
    p1, p2 = car_pair_params(0)
    assert build_car(p1, CAR_GRID, DT).validate().ok
    assert build_car(p2, CAR_GRID, DT).validate().ok


SINGLE = CarParams("s", 400.0, 2.0, 1.0, 2.0, (6.0, 12.0), 0.0)


def test_open_world_car_just_drives():
    car = build_car(SINGLE, CAR_GRID, DT)
    frag = car.execute(ConstantInputs(car.default_inputs), 1.0)
    assert frag.actions == ()
    assert frag.lval["pos_x_s"] == pytest.approx(7.0)
    assert frag.lval["pos_y_s"] == 12.0
    assert frag.lval["speed_s"] == 1.0


def test_closed_world_car_slows_on_its_own_trail():
    car = build_car(SINGLE, CAR_GRID, DT)
    frag = car.execute(GroundEnvironment(CAR_GRID), 6.0)
    # the deformation trail enters the ring two steps in; paint never does,
    # because the sensing ring excludes the car's own footprint
    assert frag.actions == ("level_s",)
    assert first_action_step(frag, "level_s") == 3
    assert frag.lval["slow_s"] is True
    assert frag.lval["stop_s"] is False
    assert frag.lval["speed_s"] == SPEED_SLOW
    assert frag.lval["pos_x_s"] == pytest.approx(9.15)


def test_output_fields_carry_mass_and_occupancy():
    car = build_car(SINGLE, CAR_GRID, DT)
    out = car.gen.output(car.starts[0])
    cell_area = CAR_GRID.cell_size**2
    assert out[PRESSURE].values.sum() * cell_area == pytest.approx(400.0, rel=1e-12)
    fp = footprint(0.0, (6.0, 12.0), 2.0, 1.0, CAR_GRID)
    assert out[PAINT] == occupancy_field(fp, CAR_GRID)
    assert (out[PRESSURE].values > 0).sum() == len(fp)


def test_ground_environment_latches_deformation():
    env = GroundEnvironment(CAR_GRID, threshold=0.0)
    fp = footprint(0.0, (6.0, 12.0), 2.0, 1.0, CAR_GRID)
    pressed = Valuation(
        {PRESSURE: occupancy_field(fp, CAR_GRID), PAINT: occupancy_field(fp, CAR_GRID)}
    )
    first = env.observe(0.0, pressed)
    assert first[GROUND].values.sum() == len(fp)
    assert first[COLOR] == pressed[PAINT]
    quiet = Valuation(
        {
            PRESSURE: FieldSlice.zeros(CAR_GRID, FieldKind.REAL),
            PAINT: FieldSlice.zeros(CAR_GRID, FieldKind.COUNT),
        }
    )
    second = env.observe(0.1, quiet)
    assert second[GROUND].values.sum() == len(fp)  # still deformed
    assert second[COLOR].values.sum() == 0  # paint is not latched


def test_supervisor_oracle_geometry():
    p1, p2 = car_pair_params(0)
    assert supervisor_oracle((6, 12, 0.0), p1, (30, 12, np.pi), p2, CAR_GRID) == (
        False,
        False,
    )
    assert supervisor_oracle((10, 12, 0.0), p1, (12.6, 12, np.pi), p2, CAR_GRID) == (
        True,
        True,
    )
    keen = CarParams("b", 100.0, 2.0, 1.0, 4.0, (10.0, 12.0), 0.0)
    assert supervisor_oracle((10, 12, 0.0), keen, (13.2, 12, np.pi), p2, CAR_GRID) == (
        True,
        False,
    )


def test_two_car_world_needs_distinct_labels():
    p1, _ = car_pair_params(0)
    with pytest.raises(InvalidParams, match="distinct labels"):
        build_two_car_world(p1, p1, CAR_GRID, DT)


def head_on_run(horizon=12.0):
    p1, p2 = car_pair_params(0)
    world = build_two_car_world(p1, p2, CAR_GRID, DT)
    return world, world.run(horizon)


def test_head_on_approach_stops_both_cars_without_contact():
    world, frag = head_on_run()
    p1, p2 = world.params
    assert frag.actions == ("level_1", "level_2", "collision_1", "collision_2")
    assert first_action_step(frag, "level_1") == 3
    assert first_action_step(frag, "level_2") == 3
    last = frag.lval
    assert last["stop_1"] is True and last["stop_2"] is True
    assert last["speed_1"] == 0.0 and last["speed_2"] == 0.0
    gap = last["pos_x_2"] - last["pos_x_1"]
    assert gap == pytest.approx(2.5)
    assert gap > p1.length / 2 + p2.length / 2  # bodies never touch
    fp1 = footprint(
        last["heading_1"], (last["pos_x_1"], last["pos_y_1"]), p1.length, p1.width, CAR_GRID
    )
    fp2 = footprint(
        last["heading_2"], (last["pos_x_2"], last["pos_y_2"]), p2.length, p2.width, CAR_GRID
    )
    assert not (region_cells(fp1, CAR_GRID) & region_cells(fp2, CAR_GRID))


def test_implicit_stop_matches_the_supervisor_step_for_step():
    world, frag = head_on_run()
    p1, p2 = world.params
    risk1, risk2 = first_risk_steps(frag, p1, p2, CAR_GRID)
    assert first_action_step(frag, "collision_1") == risk1 == 92
    assert first_action_step(frag, "collision_2") == risk2 == 92


def test_composite_fields_sum_mass_and_union_occupancy():
    world, frag = head_on_run()
    p1, p2 = world.params
    last = frag.lval
    cell_area = CAR_GRID.cell_size**2
    assert last[PRESSURE].values.sum() * cell_area == pytest.approx(1800.0, rel=1e-9)
    fp1 = footprint(
        last["heading_1"], (last["pos_x_1"], last["pos_y_1"]), p1.length, p1.width, CAR_GRID
    )
    fp2 = footprint(
        last["heading_2"], (last["pos_x_2"], last["pos_y_2"]), p2.length, p2.width, CAR_GRID
    )
    union = np.zeros(CAR_GRID.shape, dtype=bool)
    for ix, iy in region_cells(fp1, CAR_GRID) | region_cells(fp2, CAR_GRID):
        union[iy, ix] = True
    assert np.array_equal(last[PAINT].values > 0, union)


def test_runs_are_reproducible():
    _, one = head_on_run(8.0)
    _, two = head_on_run(8.0)
    assert one == two


def test_first_action_step_absent_action():
    _, frag = head_on_run(0.5)
    assert first_action_step(frag, "collision_1") is None


def test_ground_environment_rejects_a_negative_threshold():
    with pytest.raises(InvalidParams, match="threshold"):
        GroundEnvironment(CAR_GRID, threshold=-0.5)


def test_one_ground_environment_serves_repeated_runs():
    built = build_scenario(load_scenario(TWO_CARS_SCENARIO))
    world = built.automata["world"]
    env = GroundEnvironment(built.grid)
    for _ in range(2):
        frag = world.execute(env, built.scenario.horizon)
        assert list(frag.junction_offsets()) == [2, 2, 171, 171]
