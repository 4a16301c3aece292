import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import envydiv
from envydiv import preferences, solver
from envydiv.cli import main
from envydiv.preferences import row_shuffled


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_prefs(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def hungry_new(tmp_path):
    return write_prefs(tmp_path, "hungry.json", {"r": 3, "kind": "new", "model": "hungry"})


def test_solve_success(capsys, tmp_path, hungry_new):
    out_file = tmp_path / "division.json"
    code, out = run(
        capsys,
        ["solve", "--r", "3", "--space", "c1", "--prefs", hungry_new, "--out", str(out_file)],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"point", "assignment", "residual", "matrix"}
    assert payload["residual"] <= 1e-6
    assert json.loads(out_file.read_text()) == payload


def test_solve_is_byte_identical_across_runs(capsys, hungry_new):
    code1, out1 = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", hungry_new, "--seed", "3"])
    code2, out2 = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", hungry_new, "--seed", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


#: breakpoint tables that score nothing up to length 0.02, as psi requires
PSI_TABLES = {
    str(player): {str(tile): [[0.0, 0.0], [0.02, 0.0], [1.0, 1.0]] for tile in (1, 2, 3)}
    for player in (1, 2, 3)
}


@pytest.mark.parametrize(
    "space, payload",
    [
        ("c1", {"r": 3, "kind": "old", "model": "hungry", "reduction": "psi"}),
        ("c2", {"r": 3, "kind": "old", "model": "hungry", "reduction": "phi"}),
        ("c1", {"r": 3, "model": "piecewise", "tables": PSI_TABLES, "reduction": "psi", "epsilon": 0.02}),
    ],
    ids=["psi", "phi", "piecewise-psi"],
)
def test_solve_old_style_via_reduction(capsys, tmp_path, space, payload):
    prefs = write_prefs(tmp_path, "lifted.json", payload)
    code, out = run(capsys, ["solve", "--r", "3", "--space", space, "--prefs", prefs])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-6


def test_solve_validation_failure_exits_3(capsys, tmp_path):
    prefs = write_prefs(
        tmp_path,
        "plain.json",
        {"r": 3, "kind": "new", "model": "gorbushka", "params": {"dte": False}},
    )
    code, out = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", prefs])
    assert code == 3
    assert json.loads(out)["validation_failed"]


def test_solve_budget_exhaustion_exits_2(capsys, tmp_path):
    prefs = write_prefs(
        tmp_path,
        "random.json",
        {"r": 3, "kind": "new", "model": "piecewise_random", "seed": 3},
    )
    code, out = run(
        capsys,
        ["solve", "--r", "3", "--space", "c1", "--prefs", prefs, "--coarse-budget", "100"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["budget_exhausted"] and payload["best_residual"] > 1e-6
    # deterministic counters of the search, only on this path
    assert payload["orbit_representatives"] == 3
    assert payload["denominator"] == 4
    assert payload["pl_zeros"] == [[4, 1]]
    assert payload["evaluations"] > 0


@pytest.mark.parametrize(
    "space, tol",
    [("c1", "0.5"), ("c1", "inf"), ("c2", "inf"), ("c3", "inf")],
)
def test_solve_without_an_acceptable_assignment_exits_3(capsys, hungry_new, space, tol):
    # a loose tolerance ends the search at a point where no assignment
    # hands every player a box they prefer
    code, out = run(capsys, ["solve", "--r", "3", "--space", space, "--prefs", hungry_new, "--tol", tol])
    assert code == 3
    assert json.loads(out)["matching_failed"]


def test_nan_tolerance_exits_4(capsys, hungry_new):
    code, out = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", hungry_new, "--tol", "nan"])
    assert code == 4
    assert json.loads(out)["input_error"]


def test_negative_coarse_budget_exits_4(capsys, hungry_new):
    # a negative budget is bad input, not a budget the search went past
    code, out = run(
        capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", hungry_new, "--coarse-budget", "-1"]
    )
    assert code == 4
    assert json.loads(out)["input_error"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["demo", "nosuch"],
        ["solve", "--r", "3", "--space", "c9", "--prefs", "p.json"],
        ["solve", "--r", "x", "--space", "c1", "--prefs", "p.json"],
        ["solve", "--r", "3", "--space", "c1"],
        # a negative cap is bad input, not a cap the computation went past
        ["topology", "--complex", "chessboard", "--m", "3", "--n", "3", "--max-simplices", "-5"],
    ],
    ids=["no-command", "demo", "space", "r", "prefs", "max-simplices"],
)
def test_usage_errors_exit_4(capsys, argv):
    # argparse's own exit code, 2, means an exhausted budget here
    code, out = run(capsys, argv)
    assert code == 4
    assert json.loads(out)["input_error"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_malformed_json_exits_4(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", str(path)])
    assert code == 4


@pytest.mark.parametrize(
    "space, payload",
    [
        ("c1", {"r": 3, "kind": "new", "model": "nougat"}),
        ("c2", {"r": 3, "kind": "old", "model": "hungry", "reduction": "psi"}),
        ("c1", {"r": 3, "kind": "old", "model": "hungry", "reduction": "phi"}),
        ("c1", {"r": 3, "kind": "old", "model": "hungry", "reduction": "sigma"}),
    ],
    ids=["model", "psi-on-c2", "phi-on-c1", "reduction"],
)
def test_unknown_model_exits_4(capsys, tmp_path, space, payload):
    prefs = write_prefs(tmp_path, "odd.json", payload)
    code, out = run(capsys, ["solve", "--r", "3", "--space", space, "--prefs", prefs])
    assert code == 4
    assert json.loads(out)["input_error"]


def test_r_mismatch_exits_4(capsys, hungry_new):
    code, _ = run(capsys, ["solve", "--r", "4", "--space", "c1", "--prefs", hungry_new])
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [["solve", "--space", "c1"], ["brute", "--space", "c1", "--grid", "9"]],
    ids=["solve", "brute"],
)
def test_r_may_come_from_the_file_alone(capsys, hungry_new, argv):
    # the board is sized by the loaded oracle's r, so --r only checks it
    code, out = run(capsys, argv + ["--prefs", hungry_new])
    assert code == 0
    assert (code, out) == run(capsys, argv + ["--r", "3", "--prefs", hungry_new])


@pytest.mark.parametrize("command", ["solve", "brute", "validate"])
def test_no_r_in_the_file_or_the_command_line_exits_4(capsys, tmp_path, command):
    prefs = write_prefs(tmp_path, "no_r.json", {"kind": "new", "model": "hungry"})
    argv = [command, "--space", "c1", "--prefs", prefs] + (["--property", "covering"] if command == "validate" else [])
    code, out = run(capsys, argv)
    assert code == 4
    assert json.loads(out) == {"input_error": True, "message": "preference file must declare r (or pass --r)"}


def test_module_entry_point_exits_with_the_command_code():
    src = str(Path(envydiv.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "envydiv.cli", "demo", "gale", "--r", "3"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True


def test_topology_chessboard(capsys):
    code, out = run(capsys, ["topology", "--complex", "chessboard", "--m", "3", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [0, 1]
    assert payload["euler"] == 0


def test_topology_three_by_five(capsys):
    code, out = run(capsys, ["topology", "--complex", "chessboard", "--m", "3", "--n", "5"])
    assert code == 0
    assert json.loads(out)["betti"][:2] == [0, 0]


def test_topology_pseudomanifold_flag(capsys):
    code, out = run(
        capsys, ["topology", "--complex", "gorbushka-join", "--r", "2", "--pseudomanifold"]
    )
    assert code == 0
    assert json.loads(out)["pseudomanifold"] is True


def test_topology_resource_cap_exits_5(capsys):
    code, out = run(
        capsys,
        ["topology", "--complex", "chessboard", "--m", "4", "--n", "4", "--max-simplices", "10"],
    )
    assert code == 5
    assert json.loads(out)["resource_cap"]


def test_topology_zero_cap_is_a_cap_exits_5(capsys):
    code, out = run(
        capsys,
        ["topology", "--complex", "chessboard", "--m", "3", "--n", "3", "--max-simplices", "0"],
    )
    assert code == 5
    assert json.loads(out)["resource_cap"]


def test_topology_missing_dimensions_exits_4(capsys):
    code, _ = run(capsys, ["topology", "--complex", "chessboard", "--m", "3"])
    assert code == 4


def test_topology_join_power(capsys):
    code, out = run(capsys, ["topology", "--complex", "join-power", "--r", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == {"kind": "join_power", "rows": 3, "cols": 3}
    assert payload["betti"] == [0, 0, 8]  # the join of three 3-point sets


def test_topology_gorbushka_join_without_r_exits_4(capsys):
    code, _ = run(capsys, ["topology", "--complex", "gorbushka-join"])
    assert code == 4


def test_brute_certificate(capsys, tmp_path):
    prefs = write_prefs(
        tmp_path,
        "plain.json",
        {"r": 3, "kind": "new", "model": "gorbushka", "params": {"dte": False}},
    )
    code, out = run(
        capsys, ["brute", "--r", "3", "--space", "c1", "--prefs", prefs, "--grid", "21"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["grid_resolution"] == 21
    assert payload["max_min_score"] <= 1e-9


def test_brute_row_shuffled_oracle_exits_3(capsys, tmp_path, monkeypatch):
    # no preference file describes a relabelled oracle, so shuffle the loaded one
    load = preferences.load_preference_file
    monkeypatch.setattr(
        preferences, "load_preference_file", lambda *a, **kw: row_shuffled(load(*a, **kw))
    )
    prefs = write_prefs(tmp_path, "random.json", {"r": 3, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, ["brute", "--r", "3", "--space", "c1", "--prefs", prefs, "--grid", "7"])
    assert code == 3
    assert json.loads(out)["validation_failed"]


def test_solve_row_shuffled_oracle_exits_3(capsys, tmp_path, monkeypatch):
    # a general-form oracle that sees box labels is sampled, and refused
    load = preferences.load_preference_file
    monkeypatch.setattr(
        preferences, "load_preference_file", lambda *a, **kw: row_shuffled(load(*a, **kw))
    )
    prefs = write_prefs(tmp_path, "random.json", {"r": 3, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", prefs])
    assert code == 3
    assert "fail equivariance" in json.loads(out)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--r", "3", "--space", "c1"],
        ["brute", "--r", "3", "--space", "c1", "--grid", "7"],
        ["validate", "--space", "c1", "--property", "covering", "--samples", "20"],
    ],
)
def test_nan_scores_exit_4(capsys, tmp_path, monkeypatch, argv):
    # no preference file describes a NaN score, so poison the loaded oracle
    load = preferences.load_preference_file

    def poisoned(*args, **kwargs):
        prefs = load(*args, **kwargs)
        raw = prefs.raw
        prefs.raw = lambda player, point: [float("nan")] + list(raw(player, point))[1:]
        return prefs

    monkeypatch.setattr(preferences, "load_preference_file", poisoned)
    prefs = write_prefs(tmp_path, "random.json", {"r": 3, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, argv + ["--prefs", prefs])
    assert code == 4
    assert "non-finite" in json.loads(out)["message"]


def test_overflowing_scores_exit_4(capsys, tmp_path, monkeypatch):
    # finite scores whose sum overflows: no preference file describes them
    load = preferences.load_preference_file

    def huge(*args, **kwargs):
        prefs = load(*args, **kwargs)
        prefs.raw = lambda player, point: [1e308] * prefs.r
        return prefs

    monkeypatch.setattr(preferences, "load_preference_file", huge)
    prefs = write_prefs(tmp_path, "random.json", {"r": 3, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, ["validate", "--space", "c1", "--property", "covering", "--samples", "5", "--prefs", prefs])
    assert code == 4
    assert "overflow" in json.loads(out)["message"]


def test_solve_over_eight_players_exits_5_before_the_oracle_is_called(capsys, tmp_path, monkeypatch):
    load = preferences.load_preference_file
    calls = []

    def counted(*args, **kwargs):
        prefs = load(*args, **kwargs)
        raw = prefs.raw
        prefs.raw = lambda player, point: calls.append(player) or raw(player, point)
        return prefs

    monkeypatch.setattr(preferences, "load_preference_file", counted)
    prefs = write_prefs(tmp_path, "random.json", {"r": 9, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, ["solve", "--r", "9", "--space", "c1", "--prefs", prefs])
    assert code == 5
    assert json.loads(out)["resource_cap"]
    assert calls == []


def _one_player_refuses(monkeypatch, calls):
    # no preference file describes it: player 2 of the loaded oracle
    # scores every box zero
    load = preferences.load_preference_file

    def refusing(*args, **kwargs):
        prefs = load(*args, **kwargs)
        raw = prefs.raw
        prefs.raw = lambda player, point: calls.append(player) or (
            [0.0] * prefs.r if player == 2 else raw(player, point)
        )
        return prefs

    monkeypatch.setattr(preferences, "load_preference_file", refusing)


def test_one_player_accepting_nothing_fails_covering_with_exit_3(capsys, tmp_path, monkeypatch):
    calls = []
    _one_player_refuses(monkeypatch, calls)
    searched = []
    search = solver.search
    monkeypatch.setattr(solver, "search", lambda *args: searched.append(args) or search(*args))
    prefs = write_prefs(tmp_path, "random.json", {"r": 3, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, ["validate", "--space", "c1", "--property", "covering", "--samples", "200", "--prefs", prefs])
    assert code == 3
    assert json.loads(out)["violation_count"] == 200
    code, out = run(capsys, ["solve", "--r", "3", "--space", "c1", "--prefs", prefs])
    assert code == 3
    assert json.loads(out) == {
        "validation_failed": True,
        "message": "preferences fail covering: 200 violations in 200 samples",
    }
    assert searched == []
    # the check solve runs is the one validate runs
    code, out = run(
        capsys,
        ["validate", "--space", "c1", "--property", "covering+equivariance", "--samples", "200", "--prefs", prefs],
    )
    assert code == 3
    assert json.loads(out)["violation_count"] == 200


@pytest.mark.parametrize("count", ["0", "-5"])
def test_validate_without_samples_exits_4(capsys, tmp_path, monkeypatch, count):
    calls = []
    _one_player_refuses(monkeypatch, calls)
    prefs = write_prefs(tmp_path, "random.json", {"r": 3, "kind": "new", "model": "piecewise_random"})
    code, out = run(capsys, ["validate", "--space", "c1", "--property", "covering", "--samples", count, "--prefs", prefs])
    assert code == 4
    assert json.loads(out) == {"input_error": True, "message": f"need at least one sample, got {count}"}
    assert calls == []


def test_validate_command(capsys, tmp_path, hungry_new):
    code, out = run(
        capsys,
        ["validate", "--prefs", hungry_new, "--space", "c1", "--property", "covering", "--samples", "200"],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    plain = write_prefs(
        tmp_path,
        "plain.json",
        {"r": 3, "kind": "new", "model": "gorbushka", "params": {"dte": False}},
    )
    code, out = run(
        capsys,
        ["validate", "--prefs", plain, "--space", "c1", "--property", "covering", "--samples", "400"],
    )
    assert code == 3
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("name", ["gale", "gorbushka", "burnt", "ppe"])
def test_demos_pass(capsys, name):
    code, out = run(capsys, ["demo", name])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["scenario"] == name


def test_demo_small_gale(capsys):
    code, out = run(capsys, ["demo", "gale", "--r", "2"])
    assert code == 0
    assert json.loads(out)["pass"] is True
