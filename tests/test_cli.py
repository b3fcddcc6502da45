import json

import pytest

from leoican.cli import main


def test_run_subcommand_writes_reports(tmp_path, capsys):
    config = {
        "n_satellites": 5,
        "n_cells": 2,
        "radio": {"nx": 2, "ny": 2},
        "serving_count": 3,
        "seeds": [1],
        "schemes": ["cfg-mrt", "gdop_greedy-dc"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "summary.csv").exists()
    captured = capsys.readouterr().out
    assert "cfg-mrt" in captured
    assert "Gbps" in captured


def test_run_seed_list_override(tmp_path):
    config = {"n_satellites": 4, "n_cells": 1, "radio": {"nx": 2, "ny": 2},
              "serving_count": 3, "seeds": [1, 2, 3], "schemes": ["cfg-mrt"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path), "--seeds", "5,7", "--out", str(tmp_path / "out")])
    assert code == 0
    per_ue = (tmp_path / "out" / "per_ue.csv").read_text().splitlines()
    seeds = {line.split(",")[1] for line in per_ue[1:]}
    assert seeds == {"5", "7"}


@pytest.mark.parametrize("seeds", ["0", ","])
def test_run_rejects_empty_seed_override(seeds, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--seeds", seeds])
    assert excinfo.value.code == 2
    assert "at least one seed" in capsys.readouterr().err


def test_run_rejects_repeated_seed_override(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--seeds", "1,1"])
    assert excinfo.value.code == 2
    assert "repeats a seed: 1,1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_rejects_fewer_than_one_job(jobs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--jobs", jobs])
    assert excinfo.value.code == 2
    assert f"must be at least 1: {jobs}" in capsys.readouterr().err


def test_validate_subcommand_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok") >= 8


def test_oracle_subcommand_prints_references(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "160.0520" in out
    assert "1.732050807569" in out
    assert "grid oracle" in out
