import gc
import json
import warnings

import pytest

from stlgo.cli import main
from stlgo.serialization import load_signal, load_run, save_run, save_mask, save_labels
from stlgo import (
    BikeScenarioConfig,
    DroneScenarioConfig,
    KnowledgeMask,
    gen_bike,
    gen_drone,
)


@pytest.fixture
def bike_bundle(tmp_path):
    run = gen_bike(BikeScenarioConfig(stations=6, seed=3))
    run_path = tmp_path / "run.json"
    graphs_path = tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    return run, run_path, graphs_path


def write_formula(tmp_path, text, name="f.stlgo"):
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def test_parse_valid_formula(tmp_path, capsys):
    f = write_formula(
        tmp_path, "G[0,24]([x[0] < 5] -> Out{mt} E[5,inf] W[0,8] [x[0] >= 8])"
    )
    assert main(["parse", str(f)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("G[0,24]")


def test_parse_error_has_caret(tmp_path, capsys):
    f = write_formula(tmp_path, "G[0,24")
    assert main(["parse", str(f)]) == 1
    err = capsys.readouterr().err
    assert "^" in err


@pytest.mark.parametrize(
    "text, global_",
    [
        ("F[0,1E310] true", False),
        ("G[1E400,2] true", False),
        ("In{g} E[1E310,inf] true", False),
        ("@1E310.(true)", True),
    ],
)
def test_parse_bound_past_float_range_exits_one(tmp_path, capsys, text, global_):
    f = write_formula(tmp_path, text)
    assert main(["parse", str(f)] + (["--global"] if global_ else [])) == 1
    err = capsys.readouterr().err
    assert "too large" in err and "^" in err and "Traceback" not in err


def test_parse_too_deep_nesting_exits_one(tmp_path, capsys):
    f = write_formula(tmp_path, "!" * 3000 + "true")
    assert main(["parse", str(f)]) == 1
    err = capsys.readouterr().err
    assert "nesting deeper than" in err and "^" in err


@pytest.mark.parametrize("command", ["monitor", "monitor-dist"])
def test_monitor_parse_error_closes_formula_file(bike_bundle, tmp_path, capsys, command):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "G[0,24] [x[0] >=")
    argv = [command, "--formula", str(f), "--run", str(run_path), "--graphs", str(graphs_path)]
    argv += ["--agent", "1"] if command == "monitor" else ["--mask", str(tmp_path / "m.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
        gc.collect()
    assert "^" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_parse_empty_file_fails(tmp_path):
    f = write_formula(tmp_path, "")
    assert main(["parse", str(f)]) == 1


def test_monitor_constant_true(bike_bundle, tmp_path, capsys):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "true")
    out = tmp_path / "sig.json"
    code = main(
        ["monitor", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--agent", "1", "--out", str(out)]
    )
    assert code == 0
    sig = load_signal(out)
    assert all(v == 1 for v in sig.values)


def test_monitor_violation_exit_code(bike_bundle, tmp_path):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "false")
    code = main(
        ["monitor", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--agent", "1"]
    )
    assert code == 2


def test_monitor_missing_graph_tag_is_data_error(bike_bundle, tmp_path):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "In{nope} E[0,1] true")
    code = main(
        ["monitor", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--agent", "1"]
    )
    assert code == 3


def test_monitor_strict_horizon_insufficient_trace(bike_bundle, tmp_path):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "G[0,30] true")
    code = main(
        ["monitor", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--agent", "1", "--strict-horizon"]
    )
    assert code == 3


def test_monitor_global_formula(bike_bundle, tmp_path):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "FA{1,2,3}(true)")
    code = main(
        ["monitor", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--global"]
    )
    assert code == 0


def test_monitor_dist_full_mask_matches_monitor(bike_bundle, tmp_path):
    run, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "G[0,24] [x[0] >= 0]")
    mask_path = tmp_path / "mask.json"
    save_mask(KnowledgeMask.full(1, run.num_agents, run.length), mask_path)
    out_c = tmp_path / "c.json"
    out_d = tmp_path / "d.json"
    code_c = main(
        ["monitor", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--agent", "1", "--out", str(out_c)]
    )
    code_d = main(
        ["monitor-dist", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--mask", str(mask_path),
         "--subject", "1", "--out", str(out_d)]
    )
    assert code_c == code_d == 0
    assert load_signal(out_c).values == load_signal(out_d).values


def test_monitor_dist_unknown_and_report(bike_bundle, tmp_path, capsys):
    run, run_path, graphs_path = bike_bundle
    # subject 2's state is invisible to observer 1
    f = write_formula(tmp_path, "[x[0] >= 0]")
    mask_path = tmp_path / "mask.json"
    save_mask(KnowledgeMask.self_only(1), mask_path)
    report_path = tmp_path / "report.json"
    code = main(
        ["monitor-dist", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--mask", str(mask_path),
         "--subject", "2", "--report", str(report_path)]
    )
    assert code == 4  # undetermined
    report = json.loads(report_path.read_text())
    assert report["determinable"] is False
    assert report["failures"]


def test_report_files_are_one_line_of_compact_json(bike_bundle, tmp_path):
    from stlgo import is_determinable, parse_local

    run, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "F[0,2] [x[0] >= 3]")
    mask = KnowledgeMask(1, frozenset({(2, 0), (2, 2)}))
    save_mask(mask, tmp_path / "mask.json")
    report_path = tmp_path / "report.json"
    main(["monitor-dist", "--formula", str(f), "--run", str(run_path),
          "--graphs", str(graphs_path), "--mask", str(tmp_path / "mask.json"),
          "--subject", "2", "--tmax", "3", "--report", str(report_path)])
    report = is_determinable(run, mask, parse_local("F[0,2] [x[0] >= 3]"), 2, 3)
    assert report.failures
    want = {
        "schema": "stlgo/1",
        "determinable": False,
        "failures": [
            {"leaf": fl.leaf_index, "time": fl.time,
             "unknown_states": [list(p) for p in fl.unknown_states]}
            for fl in report.failures
        ],
    }
    assert report_path.read_text() == json.dumps(want, separators=(",", ":")) + "\n"
    bench_path = tmp_path / "bench.json"
    main(["bench", "--sigma", "4", "--steps", "2", "--out", str(bench_path)])
    text = bench_path.read_text()
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
    assert len(json.loads(text)["results"]) == 4


def test_monitor_dist_isolated_subject_below_threshold(tmp_path):
    # no knowledge at all, but the subject has no in-edges: the counting
    # property needing two neighbors is a determined violation
    from stlgo import GraphTrajectory, MasTrajectory, MasRun, MultigraphSnapshot
    from stlgo.serialization import save_run

    snap = MultigraphSnapshot.make("c", True, [(2, 3, 1, 1.0)])
    traj = MasTrajectory.from_states([[(1.0,)] * 3, [(1.0,)] * 3])
    run = MasRun(traj, GraphTrajectory(1, static={"c": snap}))
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    mask_path = tmp_path / "mask.json"
    save_mask(KnowledgeMask.self_only(1), mask_path)
    f = write_formula(tmp_path, "In{c} E[2,inf] [x[0] >= 0]")
    out = tmp_path / "sig.json"
    report_path = tmp_path / "rep.json"
    code = main(
        ["monitor-dist", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--mask", str(mask_path),
         "--subject", "1", "--out", str(out), "--report", str(report_path)]
    )
    assert code == 2  # determined violation
    assert all(v == 0 for v in load_signal(out).values)
    assert json.loads(report_path.read_text())["determinable"] is True


def test_monitor_dist_observer_mismatch(bike_bundle, tmp_path):
    run, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "true")
    mask_path = tmp_path / "mask.json"
    save_mask(KnowledgeMask.self_only(1), mask_path)
    code = main(
        ["monitor-dist", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--mask", str(mask_path),
         "--observer", "2"]
    )
    assert code == 3


def test_translate_sastl_end_to_end(tmp_path, capsys):
    from conftest import FIG_LABELS, make_fig_run

    run = make_fig_run()
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    labels_path = tmp_path / "labels.json"
    save_labels({k: set(v) for k, v in FIG_LABELS.items()}, labels_path)
    out_formula = tmp_path / "out.stlgo"
    out_graphs = tmp_path / "aug.json"
    args = [
        "translate", "--from", "sastl", "--run", str(run_path), "--graphs",
        str(graphs_path), "--labels", str(labels_path), "--psi", "H",
        "--anchor", "3", "--weights", "0,10", "--cmp", ">=", "--count", "2",
        "--inner", "[x[0] >= 0]", "--out-formula", str(out_formula),
        "--out-graphs", str(out_graphs),
    ]
    assert main(args) == 0
    text = out_formula.read_text()
    assert "@3.(In{psiH_3} E[2,inf] W[0,10] [x[0] >= 0])" in text
    first = out_formula.read_bytes(), out_graphs.read_bytes()
    assert main(args) == 0  # idempotent re-run
    assert (out_formula.read_bytes(), out_graphs.read_bytes()) == first
    # monitoring against the augmented bundle succeeds end to end
    code = main(
        ["monitor", "--formula", str(out_formula), "--run", str(run_path),
         "--graphs", str(out_graphs), "--global"]
    )
    assert code == 0


def test_translate_sstl_and_strel(tmp_path):
    from conftest import make_fig_run

    run = make_fig_run()
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    out_formula = tmp_path / "sw.stlgo"
    assert main(
        ["translate", "--from", "sstl", "--run", str(run_path), "--graphs",
         str(graphs_path), "--op", "somewhere", "--anchor", "3", "--weights",
         "0,10", "--inner", "[x[0] >= 0]", "--out-formula", str(out_formula)]
    ) == 0
    assert "In{ds} E[1,inf] W[0,10]" in out_formula.read_text()

    out_reach = tmp_path / "reach.stlgo"
    assert main(
        ["translate", "--from", "strel", "--run", str(run_path), "--graphs",
         str(graphs_path), "--op", "reach", "--anchor", "3", "--weights",
         "0,20", "--inner", "[x[0] >= 0]", "--inner2", "[x[0] >= 6]",
         "--out-formula", str(out_reach)]
    ) == 0
    assert "@3." in out_reach.read_text()


def test_translate_avg_without_n_prime_fails(tmp_path):
    from conftest import make_fig_run

    run = make_fig_run()
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    code = main(
        ["translate", "--from", "sastl", "--run", str(run_path), "--graphs",
         str(graphs_path), "--psi", "H", "--anchor", "3", "--weights", "0,10",
         "--cmp", ">=", "--count", "2", "--inner", "true", "--op", "avg"]
    )
    assert code == 3


def test_gen_and_reload(tmp_path):
    out_run, out_graphs = tmp_path / "r.json", tmp_path / "g.json"
    assert main(
        ["gen", "drone", "--sigma", "4", "--seed", "11", "--horizon", "6",
         "--out-run", str(out_run), "--out-graphs", str(out_graphs)]
    ) == 0
    run = load_run(out_run, out_graphs)
    assert run.num_agents == 4
    assert run.length == 6
    assert run == gen_drone(DroneScenarioConfig(sigma=4, seed=11, horizon=6))


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(
        ["bench", "--sigma", "4", "--steps", "5", "--seed", "1", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    rows = doc["results"]
    assert {r["formula"] for r in rows} == {"phi3", "phi4", "Phi3", "Phi4"}
    for r in rows:
        assert r["sat"] + r["vio"] == 6


def test_bench_counts_deterministic_per_seed():
    from stlgo.cli import bench_scenario

    a = bench_scenario(4, 5, seed=9)
    b = bench_scenario(4, 5, seed=9)
    assert [(r["formula"], r["sat"], r["vio"]) for r in a] == [
        (r["formula"], r["sat"], r["vio"]) for r in b
    ]


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc_info:
        main(["monitor", "--formula"])
    assert exc_info.value.code == 1


def test_translate_rejects_labels_for_unknown_agents(tmp_path):
    from conftest import make_fig_run

    run = make_fig_run()
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    labels_path = tmp_path / "labels.json"
    save_labels({9: {"H"}}, labels_path)
    code = main(
        ["translate", "--from", "sastl", "--run", str(run_path), "--graphs",
         str(graphs_path), "--labels", str(labels_path), "--psi", "H",
         "--anchor", "3", "--weights", "0,10", "--cmp", ">=", "--count", "2",
         "--inner", "true"]
    )
    assert code == 3
