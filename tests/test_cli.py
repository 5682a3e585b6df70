"""End-to-end CLI checks: files, determinism, exit codes."""

import csv
import json
from pathlib import Path

import pytest

from hmpc.cli import main
from hmpc.kv import read_kv, write_kv


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


def test_zero_audit_stride_exits_one(workdir, tmp_path, capsys):
    conf = workdir / "stride.conf"
    conf.write_text("pool_file = pool.json\nparams_file = battery.kv\nhorizon = 3\n"
                    "audit_full_until = 2\naudit_stride = 0\n")
    rc = main(["run", "--config", str(conf), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "audit_stride" in capsys.readouterr().err
