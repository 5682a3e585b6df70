"""End-to-end CLI checks: files, determinism, exit codes."""

import csv
import json
from pathlib import Path

import pytest

from hmpc.cli import main
from hmpc.kv import parse_kv, read_kv, write_kv


@pytest.fixture()
def workdir(tmp_path):
    """Data dir with pool.json, battery.kv and a small run config."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--steps", "2",
                 "--scenarios", "3", "--seed", "5", "--csv"]) == 0
    (data / "small.conf").write_text(
        "pool_file = pool.json\n"
        "params_file = battery.kv\n"
        "horizon = 12\n"
        "seed = 9\n"
        "sigma = 0.1\n"
    )
    return data


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_data_writes_loadable_files(workdir):
    from hmpc.battery import load_params
    from hmpc.scenarios import load_csv, load_pool

    pool = load_pool(workdir / "pool.json")
    assert pool.size == 3 and pool.support[0].n_steps == 2
    params = load_params(workdir / "battery.kv")
    assert params.cost_offset > 0
    assert len(load_csv(workdir / "sample.csv")) == 3


def test_run_single_period_writes_one_metrics_row(workdir, tmp_path):
    out = tmp_path / "one"
    rc = main(["run", "--config", str(workdir / "small.conf"),
               "--out", str(out), "--horizon", "1"])
    assert rc == 0
    rows = read_rows(out / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["period"] == "1"
    assert float(rows[0]["eps"]) >= -1e-6
    for name in ("targets.csv", "trajectories.csv", "cuts.jsonl", "gap.svg", "run.conf"):
        assert (out / name).exists()


def test_runs_with_the_same_seed_are_byte_identical(workdir, tmp_path):
    files = ("metrics.csv", "targets.csv", "trajectories.csv", "cuts.jsonl", "gap.svg")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(workdir / "small.conf"),
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_demo_sized_run_closes_the_gap(workdir, tmp_path):
    # mirrors the shipped demo.conf at a smaller step count
    out = tmp_path / "demo"
    rc = main(["run", "--config", str(workdir / "small.conf"),
               "--out", str(out), "--horizon", "80", "--seed", "3"])
    assert rc == 0
    rows = read_rows(out / "metrics.csv")
    assert len(rows) == 80
    assert float(rows[-1]["eps"]) < 0.01

    cuts = [json.loads(line) for line in (out / "cuts.jsonl").read_text().splitlines()]
    assert len(cuts) == 80
    assert [c["period"] for c in cuts] == list(range(1, 81))


def test_oracle_outputs_and_relaxation_order(workdir, tmp_path):
    out = tmp_path / "oracle"
    rc = main(["oracle", "--config", str(workdir / "small.conf"),
               "--out", str(out), "--periods", "6"])
    assert rc == 0
    saa = json.loads((out / "saa.json").read_text())
    nonp = json.loads((out / "nonperiodic.json").read_text())
    assert saa["periods"] == nonp["periods"] == 6
    assert nonp["value"] <= saa["value"] + 1e-6 * (1 + abs(saa["value"]))


def test_oracle_cap_exceeded_exits_one(workdir, tmp_path, capsys):
    rc = main(["oracle", "--config", str(workdir / "small.conf"),
               "--out", str(tmp_path / "x"), "--periods", "41"])
    assert rc == 1
    assert "cap" in capsys.readouterr().err


def test_malformed_config_exits_one(workdir, tmp_path, capsys):
    bad = workdir / "bad.conf"
    bad.write_text("pool_file = pool.json\nparams_file = battery.kv\nwhatever = 3\n")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "whatever" in capsys.readouterr().err

    bad.write_text("pool_file pool.json\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "y")]) == 1


def test_missing_pool_file_exits_one(workdir, tmp_path, capsys):
    conf = workdir / "missing.conf"
    conf.write_text("pool_file = nope.json\nparams_file = battery.kv\nhorizon = 2\n")
    rc = main(["run", "--config", str(conf), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_gap_recompute_is_idempotent_and_consistent(workdir, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--config", str(workdir / "small.conf"),
                 "--out", str(out)]) == 0
    assert main(["gap", "--run-dir", str(out)]) == 0
    first = (out / "gap.csv").read_bytes()
    assert main(["gap", "--run-dir", str(out)]) == 0
    assert (out / "gap.csv").read_bytes() == first

    # the recomputed column must be the gap formula applied to its own
    # row; lower_bound vs reference can go either way at small m, since
    # cuts bound the empirical average, not the true expectation
    rows = read_rows(out / "gap.csv")
    assert len(rows) == 12
    assert [r["period"] for r in rows] == [str(m) for m in range(1, 13)]
    for row in rows:
        ref = float(row["reference_cost"])
        want = (ref - float(row["lower_bound"])) / ref
        assert abs(float(row["epsbar_exact"]) - want) <= 1e-9 * (1 + abs(want))


def test_csv_pool_config_round_trips(workdir, tmp_path):
    conf = workdir / "csv.conf"
    conf.write_text(
        "pool_csv = sample.csv\nparams_file = battery.kv\nhorizon = 3\nseed = 1\n"
    )
    out = tmp_path / "csvrun"
    assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert len(read_rows(out / "metrics.csv")) == 3


def test_gap_refuses_a_pool_with_a_non_finite_weight(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(workdir / "small.conf"), "--out", str(out)]) == 0
    doc = json.loads((workdir / "pool.json").read_text())
    doc["weights"][0] = float("nan")
    (workdir / "pool.json").write_text(json.dumps(doc))
    assert main(["gap", "--run-dir", str(out)]) == 1
    assert "weights must be finite, nonnegative and sum to 1" in capsys.readouterr().err


def test_solver_breakdown_exits_one(workdir, tmp_path, monkeypatch, capsys):
    from hmpc.lp import NumericalBreakdown

    def breakdown(*args, **kwargs):
        raise NumericalBreakdown("basis factorization failed")

    monkeypatch.setattr("hmpc.cli.solve_saa", breakdown)
    rc = main(["oracle", "--config", str(workdir / "small.conf"),
               "--out", str(tmp_path / "x"), "--periods", "3"])
    assert rc == 1
    assert "basis factorization failed" in capsys.readouterr().err


def test_negative_stage_cost_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--steps", "6",
                 "--scenarios", "3", "--seed", "42"]) == 0
    params = read_kv(data / "battery.kv")
    params["cost_offset"] = "0.0"
    write_kv(data / "battery.kv", params)
    (data / "run.conf").write_text(
        "pool_file = pool.json\nparams_file = battery.kv\nseed = 3\nsigma = 0.1\n"
    )
    rc = main(["run", "--config", str(data / "run.conf"), "--out", str(tmp_path / "x"),
               "--horizon", "30"])
    assert rc == 1
    assert "cost_offset" in capsys.readouterr().err


def test_oracle_refuses_horizon(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(workdir / "small.conf"),
              "--out", str(tmp_path / "x"), "--periods", "3", "--horizon", "3"])
    assert exc.value.code == 2


def test_oracle_has_no_cap_option(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(workdir / "small.conf"),
              "--out", str(tmp_path / "x"), "--periods", "3", "--cap", "5"])
    assert exc.value.code == 2


def test_params_for_another_period_length_exit_one(workdir, tmp_path, capsys):
    # the pool's days have 2 steps, these params 3
    assert main(["gen-data", "--out", str(workdir / "three"), "--steps", "3",
                 "--scenarios", "3", "--seed", "5"]) == 0
    conf = workdir / "mixed.conf"
    conf.write_text("pool_file = pool.json\nparams_file = three/battery.kv\nhorizon = 2\n")
    for command in ("run", "oracle"):
        assert main([command, "--config", str(conf), "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert "period_length_n = 3" in err and "2 steps" in err


def test_every_hmpc_error_is_a_user_error():
    import ast
    import importlib
    import inspect
    import pkgutil

    import hmpc
    from hmpc.cli import USER_ERRORS

    modules = [importlib.import_module(f"hmpc.{info.name}")
               for info in pkgutil.iter_modules(hmpc.__path__)]
    errors = [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]
    assert {cls.__name__ for cls in errors} == {"LPError", "NumericalBreakdown", "BrokenInvariant"}
    assert [cls.__name__ for cls in errors if not issubclass(cls, USER_ERRORS)] == []

    # Every raise statement, resolved in its module, is one main catches.
    escapes = []
    for module in modules:
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = eval(ast.unparse(exc), vars(module))
            if not (isinstance(cls, type) and issubclass(cls, USER_ERRORS)):
                escapes.append(f"{module.__name__}:{node.lineno}: {ast.unparse(exc)}")
    assert escapes == []


def test_a_non_optimal_extensive_form_exits_one(workdir, tmp_path, monkeypatch, capsys):
    from hmpc.lp import LPSolution, LPStatus

    monkeypatch.setattr("hmpc.oracle.solve_general",
                        lambda lp: (LPSolution(LPStatus.INFEASIBLE), None))
    rc = main(["oracle", "--config", str(workdir / "small.conf"),
               "--out", str(tmp_path / "x"), "--periods", "3"])
    assert rc == 1
    assert "error: extensive form came back INFEASIBLE" in capsys.readouterr().err


def _drop_params_file(data, run_dir):
    (data / "small.conf").write_text("pool_file = pool.json\nhorizon = 2\n")
    return ["run", "--config", str(data / "small.conf"), "--out", str(run_dir)]


def _drop_pool_key(key):
    def drop(data, run_dir):
        doc = json.loads((data / "pool.json").read_text())
        del doc[key]
        (data / "pool.json").write_text(json.dumps(doc))
        return ["run", "--config", str(data / "small.conf"), "--out", str(run_dir)]
    return drop


def _drop_template_series(data, run_dir):
    doc = json.loads((data / "pool.json").read_text())
    del doc["templates"][1]["load"]
    (data / "pool.json").write_text(json.dumps(doc))
    return ["run", "--config", str(data / "small.conf"), "--out", str(run_dir)]


def _drop_metrics_column(data, run_dir):
    assert main(["run", "--config", str(data / "small.conf"), "--out", str(run_dir)]) == 0
    rows = read_rows(run_dir / "metrics.csv")
    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, [k for k in rows[0] if k != "E0_target"],
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return ["gap", "--run-dir", str(run_dir)]


@pytest.mark.parametrize("breaks, file, message", [
    (_drop_params_file, "small.conf", "missing key 'params_file'"),
    (_drop_pool_key("templates"), "pool.json", "missing key 'templates'"),
    (_drop_pool_key("weights"), "pool.json", "missing key 'weights'"),
    (_drop_template_series, "pool.json", "template 1: missing key 'load'"),
    (_drop_metrics_column, "metrics.csv", "missing column 'E0_target'"),
], ids=["params_file", "templates", "weights", "load", "E0_target"])
def test_a_missing_key_exits_one_naming_it_and_its_file(
    workdir, tmp_path, capsys, breaks, file, message
):
    argv = breaks(workdir, tmp_path / "run")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and file in err and message in err


def test_gap_names_a_metrics_cell_that_is_not_a_number(workdir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(workdir / "small.conf"), "--out", str(run_dir)]) == 0
    rows = read_rows(run_dir / "metrics.csv")
    rows[1]["lower_bound"] = ""
    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["gap", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "metrics.csv: period 2: lower_bound is ''" in err


def test_gen_data_that_refuses_its_parameters_writes_nothing(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gen-data", "--out", str(out), "--base-load", "0"]) == 1
    assert ("error: reserving energy for regulation needs positive capacity"
            in capsys.readouterr().err)
    assert not (out / "pool.json").exists()


def test_zero_audit_stride_exits_one(workdir, tmp_path, capsys):
    conf = workdir / "stride.conf"
    conf.write_text("pool_file = pool.json\nparams_file = battery.kv\nhorizon = 3\n"
                    "audit_full_until = 2\naudit_stride = 0\n")
    rc = main(["run", "--config", str(conf), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "audit_stride" in capsys.readouterr().err


def test_kv_keeps_a_hash_inside_a_value(tmp_path):
    doc = {"pool_file": "/data/hash#dir/pool.json", "seed": "3"}
    write_kv(tmp_path / "a.kv", doc)
    assert read_kv(tmp_path / "a.kv") == doc
    (tmp_path / "b.kv").write_text("# head\nseed = 3 # inline\nsigma = 0.1\t# tab\n")
    assert read_kv(tmp_path / "b.kv") == {"seed": "3", "sigma": "0.1"}


def test_kv_keeps_a_spaced_hash_inside_a_quoted_value(tmp_path):
    doc = {"pool_file": "/data/run #2/pool.json", "tag": "#1", "seed": "3"}
    write_kv(tmp_path / "a.kv", doc)
    assert read_kv(tmp_path / "a.kv") == doc
    text = 'a = "/data/run #2/pool.json" # c\nb = \'x #y\'\nc = /data/run #2/pool.json\n'
    assert parse_kv(text) == {"a": "/data/run #2/pool.json", "b": "x #y", "c": "/data/run"}


def test_kv_round_trips_either_quote_character(tmp_path):
    doc = {"a": 'x" #y', "b": "it's #1", "c": "3"}
    write_kv(tmp_path / "a.kv", doc)
    assert read_kv(tmp_path / "a.kv") == doc


def test_kv_refuses_a_value_needing_quotes_that_holds_both(tmp_path):
    with pytest.raises(ValueError, match="both"):
        write_kv(tmp_path / "a.kv", {"a": """x"' #y"""})


def test_kv_round_trips_values_that_look_quoted_or_spaced(tmp_path):
    doc = {"a": '"abc"', "b": " x ", "c": "'q' # c", "d": "\tz", "e": "plain"}
    write_kv(tmp_path / "a.kv", doc)
    assert read_kv(tmp_path / "a.kv") == doc


def _set(path, key, value):
    doc = read_kv(path)
    doc[key] = value
    write_kv(path, doc)


def test_integer_keys_take_an_integral_float(workdir, tmp_path):
    from hmpc.battery import load_params

    _set(workdir / "battery.kv", "period_length_n", "2.0")
    _set(workdir / "small.conf", "horizon", "3.0")
    assert load_params(workdir / "battery.kv").period_length_n == 2
    rc = main(["run", "--config", str(workdir / "small.conf"), "--out", str(tmp_path / "x")])
    assert rc == 0
    assert len(read_rows(tmp_path / "x" / "metrics.csv")) == 3


@pytest.mark.parametrize("file, key, value, message", [
    ("battery.kv", "period_length_n", "2.5", "period_length_n must be an integer, got '2.5'"),
    ("battery.kv", "capacity_Ebar", "big", "capacity_Ebar must be a number, got 'big'"),
    ("small.conf", "horizon", "5.5", "horizon must be an integer, got '5.5'"),
    ("small.conf", "sigma", "abc", "sigma must be a number, got 'abc'"),
    ("small.conf", "sigma", "nan", "sigma must be finite, got 'nan'"),
    ("small.conf", "sigma", "inf", "sigma must be finite, got 'inf'"),
    ("small.conf", "w1_state", "nan", "w1_state must be finite, got 'nan'"),
])
def test_a_number_that_does_not_coerce_exits_one_naming_its_key(
    workdir, tmp_path, capsys, file, key, value, message
):
    if key == "w1_state":
        _set(workdir / file, "w1_peak", "100")
    _set(workdir / file, key, value)
    rc = main(["run", "--config", str(workdir / "small.conf"), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_params_that_do_not_coerce_are_invalid_params(workdir):
    from hmpc.battery import load_params

    _set(workdir / "battery.kv", "period_length_n", "6.5")
    with pytest.raises(ValueError, match="period_length_n must be an integer"):
        load_params(workdir / "battery.kv")


def test_a_broken_invariant_exits_one(workdir, tmp_path, monkeypatch, capsys):
    import dataclasses

    import hmpc.stage

    solve = hmpc.stage.solve_lp

    def infeasible_dual(lp, start=None):
        sol = solve(lp, start=start)
        return dataclasses.replace(sol, dual=sol.dual + 1e3)

    monkeypatch.setattr(hmpc.stage, "solve_lp", infeasible_dual)
    rc = main(["run", "--config", str(workdir / "small.conf"), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "period 1: the stage dual is not dual feasible" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["capacity_Ebar", "demand_charge_piD"])
def test_non_finite_battery_param_exits_one_naming_it(workdir, tmp_path, capsys, name):
    params = read_kv(workdir / "battery.kv")
    params[name] = "nan"
    write_kv(workdir / "battery.kv", params)
    rc = main(["run", "--config", str(workdir / "small.conf"), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert f"{name} must be finite and nonnegative" in capsys.readouterr().err


def _gen_run_gap(data):
    """gen-data, run and gap with every file under ``data``."""
    assert main(["gen-data", "--out", str(data), "--steps", "2",
                 "--scenarios", "3", "--seed", "5"]) == 0
    (data / "small.conf").write_text(
        "pool_file = pool.json\nparams_file = battery.kv\nhorizon = 3\nseed = 9\n")
    out = data / "run"
    assert main(["run", "--config", str(data / "small.conf"), "--out", str(out)]) == 0
    assert main(["gap", "--run-dir", str(out)]) == 0
    assert len(read_rows(out / "gap.csv")) == 3


def test_gap_runs_in_a_directory_with_a_hash(tmp_path):
    _gen_run_gap(tmp_path / "hash#dir")


def test_gap_runs_in_a_directory_with_a_spaced_hash(tmp_path):
    _gen_run_gap(tmp_path / "run #2")
