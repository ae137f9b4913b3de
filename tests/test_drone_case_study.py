"""The drone case study script: its counts are the oracle's, its table has
a row per swarm size and formula, and bad options are usage errors."""

import os
import subprocess
import sys

import pytest

from stlgo import DroneScenarioConfig, gen_drone
from stlgo.central import oracle_eval, oracle_eval_global
from stlgo.cli import drone_formulas, with_anchor_graphs

from conftest import SCRIPTS, load_script

DRONE = load_script("drone_case_study")


@pytest.mark.parametrize("seed", [0, 1])
def test_drone_rows_count_what_the_oracle_says(seed):
    sigma, steps, anchor = 4, 5, DRONE.ANCHOR
    run = with_anchor_graphs(
        gen_drone(DroneScenarioConfig(sigma=sigma, seed=seed, horizon=steps + 2)), anchor)
    want = []
    for name, f, kind in drone_formulas(run, sigma, anchor):
        if kind == "local":
            sat = sum(oracle_eval(run, f, anchor, t) for t in range(steps + 1))
        else:
            sat = sum(oracle_eval_global(run, f, t) for t in range(steps + 1))
        want.append((sigma, name, sat, steps + 1 - sat))
    counts = [[(r["sigma"], r["formula"], r["sat"], r["vio"]) for r in DRONE.drone_rows(
        sigma, steps, seed)] for _ in range(2)]
    assert counts == [want, want]


def test_the_script_prints_a_row_per_swarm_size_and_formula():
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "drone_case_study.py"), "--sigma", "4,6", "--steps", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["sigma", "formula", "sat", "vio", "mean", "ms/step"]
    assert [row.split()[:2] for row in rows] == [
        [sigma, name] for sigma in ("4", "6") for name in ("phi3", "phi4", "Phi3", "Phi4")]
    assert all(int(sat) + int(vio) == 4 for _, _, sat, vio, _ in map(str.split, rows))


@pytest.mark.parametrize("options, message", [
    (["--steps", "-1"], "argument --steps: expected an integer >= 0, got '-1'"),
    (["--sigma", "4,x"], "argument --sigma: expected a comma list of swarm sizes >= 2, got '4,x'"),
    (["--sigma", "4,1"], "argument --sigma: expected a comma list of swarm sizes >= 2, got '4,1'"),
])
def test_bad_options_are_usage_errors(capsys, options, message):
    with pytest.raises(SystemExit) as exc_info:
        DRONE.main(options)
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(message)
