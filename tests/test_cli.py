import gc
import json
import warnings

import pytest

from stlgo.cli import drone_formulas, main, with_anchor_graphs
from stlgo.parser import print_formula
from stlgo.serialization import (
    load_graphs,
    load_run,
    load_signal,
    save_labels,
    save_mask,
    save_run,
)
from stlgo.translators import (
    labeled_subgraph,
    normalize_labels,
    psi_graph_tag,
    shortest_distance_graph,
)
from stlgo import (
    BikeScenarioConfig,
    DroneScenarioConfig,
    GraphTrajectory,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
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


@pytest.mark.parametrize("command", ["parse", "monitor", "monitor-dist"])
def test_formula_file_that_is_not_utf8_exits_one_with_one_error_line(
    bike_bundle, tmp_path, capsys, command
):
    _, run_path, graphs_path = bike_bundle
    f = tmp_path / "f.stlgo"
    f.write_bytes(b"[x[0] >= 3] & \xff\n")
    argv = [command, str(f)]
    if command != "parse":
        argv = [command, "--formula", str(f), "--run", str(run_path), "--graphs",
                str(graphs_path), "--agent", "1"]
        if command == "monitor-dist":
            argv[-2:] = ["--mask", str(tmp_path / "m.json")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: {f}: ")


# chains the printer handles at any length but the pointwise evaluator
# follows one Python frame (or more) per term: a U chain below a graph
# operator, where cells stay pointwise, and an arithmetic chain
TOO_DEEP_TO_EVALUATE = {
    "until": "Out{d} E[0,inf] (" + " U[0,2] ".join(["[x[0] >= 0]"] * 1000) + ")",
    "sum": "[" + " + ".join(["x[0]"] * 1000) + " >= 0]",
}


@pytest.mark.parametrize("name", sorted(TOO_DEEP_TO_EVALUATE))
def test_parse_prints_chains_too_deep_to_evaluate(tmp_path, capsys, name):
    f = write_formula(tmp_path, TOO_DEEP_TO_EVALUATE[name])
    assert main(["parse", str(f)]) == 0
    assert capsys.readouterr().out == TOO_DEEP_TO_EVALUATE[name] + "\n"


@pytest.mark.parametrize("command", ["monitor", "monitor-dist"])
@pytest.mark.parametrize("name", sorted(TOO_DEEP_TO_EVALUATE))
def test_monitor_formula_too_deep_to_evaluate_is_data_error(
    bike_bundle, tmp_path, capsys, command, name
):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, TOO_DEEP_TO_EVALUATE[name])
    argv = [command, "--formula", str(f), "--run", str(run_path), "--graphs", str(graphs_path)]
    if command == "monitor":
        argv += ["--agent", "1"]
    else:
        save_mask(KnowledgeMask.self_only(1), tmp_path / "mask.json")
        argv += ["--mask", str(tmp_path / "mask.json")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "recursion limit" in err


def test_monitor_answers_when_nested_bounds_sum_past_float_range(bike_bundle, tmp_path):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "G[0,inf] F[0,1E308] F[0,1E308] true")
    code = main(["monitor", "--formula", str(f), "--run", str(run_path),
                 "--graphs", str(graphs_path), "--agent", "1"])
    assert code in (0, 2)


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


def test_monitor_dist_isolated_subject_below_threshold(tmp_path):
    # no knowledge at all, but the subject has no in-edges: the counting
    # property needing two neighbors is a determined violation
    from stlgo import GraphTrajectory, MasTrajectory, MasRun, MultigraphSnapshot
    from stlgo.serialization import save_run

    snap = MultigraphSnapshot("c", True, [(2, 3, 1, 1.0)])
    traj = MasTrajectory([[(1.0,)] * 3, [(1.0,)] * 3])
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


@pytest.mark.parametrize("observer, known, agent", [
    (99, [], 99),
    (1, [[77, 0, 3]], 77),
    (99, [[2, 0, 3], [77, 1, 2]], 99),
    (2, [[1, 0, 3], [7, 0, 0]], 7),
])
def test_monitor_dist_refuses_a_mask_naming_agents_outside_the_run(
        bike_bundle, tmp_path, capsys, observer, known, agent):
    run, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "true")
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(json.dumps({"schema": "stlgo/1", "observer": observer, "known": known}))
    report_path = tmp_path / "report.json"
    code = main(
        ["monitor-dist", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--mask", str(mask_path),
         "--subject", "1", "--report", str(report_path)]
    )
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {mask_path}: names agent {agent}, but the run has agents 1..6"]
    assert not report_path.exists()


def test_monitor_dist_refuses_a_subject_outside_the_run(bike_bundle, tmp_path, capsys):
    _, run_path, graphs_path = bike_bundle
    f = write_formula(tmp_path, "true")
    mask_path = tmp_path / "mask.json"
    save_mask(KnowledgeMask.self_only(1), mask_path)
    report_path = tmp_path / "report.json"
    code = main(
        ["monitor-dist", "--formula", str(f), "--run", str(run_path),
         "--graphs", str(graphs_path), "--mask", str(mask_path),
         "--subject", "99", "--report", str(report_path)]
    )
    assert code == 3
    assert capsys.readouterr().err.splitlines() == ["error: unknown agent 99"]
    assert not report_path.exists()


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


@pytest.mark.parametrize("op, inner", [
    ("escape", ["--inner", "[x[0] >= 0]"]),
    ("reach", ["--inner", "[x[0] >= 0]", "--inner2", "[x[0] >= 0]"]),
])
def test_translate_strel_along_a_long_path(tmp_path, op, inner):
    n = 1100
    path = MultigraphSnapshot("d", False, [(k, k + 1, 1, 1.0) for k in range(1, n)])
    run = MasRun(MasTrajectory([[(0.0,)] * n]),
                 GraphTrajectory(0, static={"d": path}))
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    out = tmp_path / "strel.stlgo"
    assert main(
        ["translate", "--from", "strel", "--run", str(run_path), "--graphs",
         str(graphs_path), "--op", op, "--anchor", "1", "--weights", "0,inf",
         *inner, "--out-formula", str(out)]
    ) == 0
    assert out.read_text().count(" | ") == n - 1


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


def test_gen_translate_and_monitor_the_augmented_graph_file(tmp_path):
    """A generated bundle names d in a descriptor; translate's graph file
    keeps it one, with its positions, and monitoring reads either."""
    out_run, out_graphs = tmp_path / "r.json", tmp_path / "g.json"
    assert main(["gen", "drone", "--sigma", "4", "--seed", "1", "--horizon", "6",
                 "--out-run", str(out_run), "--out-graphs", str(out_graphs)]) == 0
    assert '"d":{"directed":false,"derived":"distance"}' in out_graphs.read_text()
    aug, sw = tmp_path / "aug.json", tmp_path / "sw.stlgo"
    assert main(["translate", "--from", "sstl", "--op", "somewhere", "--anchor", "1",
                 "--weights", "0,3", "--inner", "[x[0] >= 4]", "--run", str(out_run),
                 "--graphs", str(out_graphs), "--out-formula", str(sw),
                 "--out-graphs", str(aug)]) == 0
    d = json.loads(aug.read_text())["types"]["d"]
    assert d["derived"] == "distance" and len(d["positions"]) == 7
    safe = write_formula(tmp_path, "G[0,2](Out{d} E[3,inf] W[0.3,inf] true)")
    codes = []
    for graphs in (out_graphs, aug):
        codes.append(main(["monitor", "--formula", str(safe), "--run", str(out_run),
                           "--graphs", str(graphs), "--agent", "1", "--tmax", "4"]))
    assert codes[0] == codes[1] and codes[0] in (0, 2)
    assert main(["monitor", "--formula", str(sw), "--run", str(out_run), "--graphs", str(aug),
                 "--global", "--tmax", "4"]) in (0, 2)


def test_augmented_graph_file_monitors_like_the_bundle(tmp_path, capsys):
    """Monitoring against translate's graph file gives the same answers and
    files as against the bundle's own, and the file loads back to the
    translated graphs."""
    sigma, anchor = 6, 2
    run = with_anchor_graphs(gen_drone(DroneScenarioConfig(sigma=sigma, seed=4, horizon=12)), 1)
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    labels = {1: {"H"}, 3: {"H"}, 5: {"H"}}
    save_labels(labels, tmp_path / "labels.json")
    save_mask(KnowledgeMask(1, frozenset((j, t) for j in (2, 4) for t in range(13))),
              tmp_path / "mask.json")
    aug = tmp_path / "aug.json"
    assert main(["translate", "--from", "sastl", "--labels", str(tmp_path / "labels.json"),
                 "--psi", "H", "--anchor", str(anchor), "--weights", "0,4", "--cmp", ">=",
                 "--count", "1", "--inner", "[x[1] >= 4]", "--time", "3",
                 "--run", str(run_path), "--graphs", str(graphs_path),
                 "--out-formula", str(tmp_path / "out.stlgo"), "--out-graphs", str(aug)]) == 0
    ds = shortest_distance_graph(run.graphs.at("d", 3), "ds", nodes=range(1, sigma + 1))
    want = run.graphs.with_graph("ds", ds).with_graph(
        psi_graph_tag("H", anchor),
        labeled_subgraph(ds, normalize_labels(labels, sigma), "H", anchor))
    assert load_graphs(aug, run.length) == want
    capsys.readouterr()

    def answers(graphs, argv):
        """Exit code, stdout and output files of one call against a graph file."""
        out, report = tmp_path / "sig.json", tmp_path / "report.json"
        for path in (out, report):
            path.unlink(missing_ok=True)
        code = main(argv[:1] + ["--run", str(run_path), "--graphs", str(graphs),
                                "--out", str(out)] + argv[1:])
        files = [out.read_bytes()] + ([report.read_bytes()] if "--report" in argv else [])
        return code, capsys.readouterr(), files

    dist = ["--mask", str(tmp_path / "mask.json"), "--report", str(tmp_path / "report.json")]
    for name, f, kind in drone_formulas(run, sigma, 1):
        path = write_formula(tmp_path, print_formula(f), f"{name}.stlgo")
        calls = ([["monitor", "--formula", str(path), "--global", "--tmax", "8"]]
                 if kind == "global" else
                 [["monitor", "--formula", str(path), "--agent", str(agent), "--tmax", "8"]
                  for agent in (1, 4)]
                 + [["monitor-dist", "--formula", str(path), "--tmax", "8"] + dist])
        for argv in calls:
            assert answers(aug, argv) == answers(graphs_path, argv), argv


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


def _fig_bundle(tmp_path):
    from conftest import FIG_LABELS, make_fig_run

    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(make_fig_run(), run_path, graphs_path)
    labels_path = tmp_path / "labels.json"
    save_labels({k: set(v) for k, v in FIG_LABELS.items()}, labels_path)
    return ["--run", str(run_path), "--graphs", str(graphs_path)], labels_path


@pytest.mark.parametrize("count, cmp, counts, exit_code", [
    ("inf", ">=", "E[]", 2),
    ("1e400", ">", "E[]", 2),
    ("inf", "=", "E[]", 2),
    ("inf", "<", "E[0,inf]", 0),
    ("-inf", "<=", "E[]", 2),
    ("-inf", ">", "E[0,inf]", 0),
])
def test_translate_infinite_count_threshold(tmp_path, count, cmp, counts, exit_code):
    bundle, labels_path = _fig_bundle(tmp_path)
    out_formula, out_graphs = tmp_path / "out.stlgo", tmp_path / "aug.json"
    assert main(
        ["translate", "--from", "sastl", *bundle, "--labels", str(labels_path), "--psi", "H",
         "--anchor", "3", "--cmp", cmp, f"--count={count}", "--out-formula", str(out_formula),
         "--out-graphs", str(out_graphs)]
    ) == 0
    assert f"In{{psiH_3}} {counts} true" in out_formula.read_text()
    assert main(
        ["monitor", "--formula", str(out_formula), "--run", bundle[1], "--graphs",
         str(out_graphs), "--global"]
    ) == exit_code


def test_translate_nan_count_threshold_is_data_error(tmp_path, capsys):
    bundle, labels_path = _fig_bundle(tmp_path)
    code = main(
        ["translate", "--from", "sastl", *bundle, "--labels", str(labels_path), "--psi", "H",
         "--anchor", "3", "--cmp", ">=", "--count", "nan"]
    )
    assert code == 3
    assert capsys.readouterr().err.strip() == "error: count threshold is NaN"


@pytest.mark.parametrize("options, message", [
    (["--op", "everywhere", "--count", "2"], "sastl op must be 'sum' or 'avg', not 'everywhere'"),
    (["--op", "avg", "--count", "inf", "--n-prime", "0"],
     "avg requires N' to be an int >= 1, not 0"),
])
def test_translate_sastl_bad_op_or_n_prime_is_data_error(tmp_path, capsys, options, message):
    bundle, labels_path = _fig_bundle(tmp_path)
    code = main(["translate", "--from", "sastl", *bundle, "--labels", str(labels_path),
                 "--psi", "H", "--anchor", "3", "--cmp", ">=", *options])
    assert code == 3
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("source", [
    ["--from", "sastl", "--psi", "H", "--cmp", ">=", "--count", "2"],
    ["--from", "sstl", "--op", "somewhere"],
    ["--from", "strel", "--op", "escape", "--inner", "true"],
])
@pytest.mark.parametrize("anchor", ["0", "-1", "8", "99"])
def test_translate_anchor_outside_the_run_is_data_error(tmp_path, capsys, source, anchor):
    bundle, _ = _fig_bundle(tmp_path)
    out_formula = tmp_path / "out.stlgo"
    code = main(["translate", *source, *bundle, "--anchor", anchor,
                 "--out-formula", str(out_formula)])
    assert code == 3
    assert capsys.readouterr().err.strip() == f"error: anchor {anchor} out of range 1..7"
    assert not out_formula.exists()


@pytest.mark.parametrize("weights", ["1,x", "1", "5,1", "nan,1", "1,2,3"])
def test_translate_bad_weights_is_usage_error(tmp_path, capsys, weights):
    bundle, _ = _fig_bundle(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main(["translate", "--from", "sstl", "--op", "somewhere", "--anchor", "1",
              *bundle, f"--weights={weights}"])
    assert exc_info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --weights: expected 'lo,hi' with numbers lo <= hi, got {weights!r}")


@pytest.mark.parametrize("weights, window", [("-1,5", " W[-1,5]"), ("-inf,inf", ""),
                                             ("-.5,2", " W[-0.5,2]"), ("-Inf,inf", "")])
@pytest.mark.parametrize("joined", [False, True])
def test_translate_weights_may_start_with_a_minus_sign(tmp_path, weights, window, joined):
    bundle, _ = _fig_bundle(tmp_path)
    out = tmp_path / "out.stlgo"
    option = [f"--weights={weights}"] if joined else ["--weights", weights]
    assert main(["translate", "--from", "sstl", "--op", "somewhere", "--anchor", "1",
                 *bundle, *option, "--out-formula", str(out)]) == 0
    assert out.read_text() == f"@1.(In{{ds}} E[1,inf]{window} true)\n"


def test_translate_bad_weights_as_a_separate_word_is_usage_error(tmp_path, capsys):
    bundle, _ = _fig_bundle(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main(["translate", "--from", "sstl", "--op", "somewhere", "--anchor", "1",
              *bundle, "--weights", "-1,x"])
    assert exc_info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --weights: expected 'lo,hi' with numbers lo <= hi, got '-1,x'")


@pytest.mark.parametrize("options, message", [
    (["--from", "sastl", "--anchor", "3", "--cmp", ">=", "--count", "2"],
     "sastl needs --psi, --anchor, --cmp, --count"),
    (["--from", "sastl", "--psi", "H", "--cmp", ">=", "--count", "2"],
     "sastl needs --psi, --anchor, --cmp, --count"),
    (["--from", "sastl", "--psi", "H", "--anchor", "3", "--count", "2"],
     "sastl needs --psi, --anchor, --cmp, --count"),
    (["--from", "sastl", "--psi", "H", "--anchor", "3", "--cmp", ">="],
     "sastl needs --psi, --anchor, --cmp, --count"),
    (["--from", "sstl", "--anchor", "1"], "sstl needs --op somewhere|everywhere and --anchor"),
    (["--from", "sstl", "--op", "reach", "--anchor", "1"],
     "sstl needs --op somewhere|everywhere and --anchor"),
    (["--from", "sstl", "--op", "somewhere"], "sstl needs --op somewhere|everywhere and --anchor"),
    (["--from", "strel", "--anchor", "1", "--inner", "true"],
     "strel needs --op reach|escape and --anchor"),
    (["--from", "strel", "--op", "escape", "--inner", "true"],
     "strel needs --op reach|escape and --anchor"),
    (["--from", "strel", "--op", "reach", "--anchor", "1", "--inner", "true"],
     "reach needs --inner (phi1) and --inner2 (phi2)"),
    (["--from", "strel", "--op", "reach", "--anchor", "1", "--inner2", "true"],
     "reach needs --inner (phi1) and --inner2 (phi2)"),
    (["--from", "strel", "--op", "escape", "--anchor", "1"], "escape needs --inner (phi)"),
])
def test_translate_missing_flags_are_usage_errors_before_any_file_is_read(
        tmp_path, capsys, options, message):
    # the bundle files do not exist: the flags are checked first
    code = main(["translate", *options, "--run", str(tmp_path / "no-run.json"),
                 "--graphs", str(tmp_path / "no-graphs.json")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("options, t", [
    (["monitor", "--agent", "1", "--t0", "9"], 9),
    (["monitor", "--agent", "1", "--tmax", "99"], 99),
    (["translate", "--from", "strel", "--op", "escape", "--anchor", "1", "--inner", "true",
      "--time", "99"], 99),
])
def test_time_out_of_range_names_the_time_and_the_range(tmp_path, capsys, options, t):
    run = gen_drone(DroneScenarioConfig(sigma=3, seed=1, horizon=6))
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    if options[0] == "monitor":
        options = [*options, "--formula", str(write_formula(tmp_path, "true"))]
    code = main([*options, "--run", str(run_path), "--graphs", str(graphs_path)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: time out of range: T={t} not in 0..{run.length}"]


@pytest.mark.parametrize("command", ["monitor", "monitor-dist"])
def test_t0_outside_the_signal_writes_no_file(tmp_path, capsys, command):
    # the signal of F[0,1] up to T=2 ends at 3, so t0=5 has no verdict
    run = gen_drone(DroneScenarioConfig(sigma=4, seed=1, horizon=6))
    run_path, graphs_path = tmp_path / "run.json", tmp_path / "graphs.json"
    save_run(run, run_path, graphs_path)
    outs = [tmp_path / "sig.json"]
    options = ["--out", str(outs[0])]
    if command == "monitor":
        options += ["--agent", "1"]
    else:
        mask_path = tmp_path / "mask.json"
        save_mask(KnowledgeMask(1, [(2, 0, 3)]), mask_path)
        outs.append(tmp_path / "report.json")
        options += ["--mask", str(mask_path), "--report", str(outs[1])]
    code = main([command, "--formula", str(write_formula(tmp_path, "F[0,1] [x[0] >= 1]")),
                 "--run", str(run_path), "--graphs", str(graphs_path),
                 "--t0", "5", "--tmax", "2", *options])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: time out of range: T=5 not in 0..3"]
    assert [p.name for p in outs if p.exists()] == []
