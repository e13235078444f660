import json

import pytest

from lyapcut.cli import main
from lyapcut.graphs import Graph


def test_gen_then_oracle_round_trip(tmp_path, capsys):
    out_file = tmp_path / "g.txt"
    assert main(["gen", "--family", "regular3", "--n", "4", "--seed", "0", "--out", str(out_file)]) == 0
    g = Graph.from_text(out_file.read_text())
    assert g.degrees == (3, 3, 3, 3)

    assert main(["oracle", "--graph", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "optimum 4" in out
    assert "maximizer" in out


def test_run_command_writes_trace_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main([
        "run", "--graph", "regular3:n=4,seed=0", "--rounds", "20",
        "--out", str(out_dir), "--graph-id", "k4",
    ])
    assert rc == 0
    assert (out_dir / "k4.csv").exists()
    summary = json.loads((out_dir / "k4.json").read_text())
    assert summary["final"]["step"] == 20
    header = (out_dir / "k4.csv").read_text().splitlines()[0]
    assert header == ("graph_id,n,m,step,t,beta,O,alpha,exp_hf,hf_over_m,"
                      "lambda_lb,two_param_lb,true_ratio,violation")


def test_run_lightcone_with_literal_beta(tmp_path):
    out_dir = tmp_path / "lc"
    rc = main([
        "run", "--graph", "regular3:n=8,seed=2", "--ansatz", "lightcone",
        "--rounds", "10", "--no-lightcone-feedback", "--out", str(out_dir),
    ])
    assert rc == 0
    rows = (out_dir / "run_n08.csv").read_text().splitlines()
    assert len(rows) == 11


def test_run_adaptive_mode(tmp_path):
    out_dir = tmp_path / "ad"
    rc = main([
        "run", "--graph", "regular3:n=4,seed=0", "--rounds", "5",
        "--adaptive", "--epsilon", "1e-3", "--out", str(out_dir),
    ])
    assert rc == 0
    summary = json.loads((out_dir / "run_n04.json").read_text())
    assert summary["config"]["adaptive_dt"] is True
    assert summary["final"]["t"] < 5 * 0.08  # adaptive steps are tighter than the cap


def test_suite_command(tmp_path, capsys):
    config = {
        "family": "bipartite",
        "n_list": [6],
        "instances_per_n": 2,
        "rounds": 15,
        "dt": 0.08,
        "seed": 5,
        "snapshot_steps": [1, 15],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "suite"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["instances"]) == 2
    assert "suite complete" in capsys.readouterr().out


def test_convergence_command(tmp_path, capsys):
    config = {
        "family": "regular3",
        "n_list": [6, 8],
        "instances_per_n": 2,
        "rounds": 3000,
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfg_path), "--targets", "0.6,0.8", "--out", str(out_dir)]) == 0
    records = (out_dir / "records.csv").read_text().splitlines()
    assert records[0] == "graph_id,n,target,rounds_to_target"
    assert len(records) == 1 + 8  # 4 instances x 2 targets
    fits = json.loads((out_dir / "fits.json").read_text())
    assert "0.6" in fits and "0.8" in fits
    assert (out_dir / "loglog_0.6.svg").exists()
    assert (out_dir / "loglog_0.6.csv").exists()


def test_bad_graph_spec_fails_cleanly(tmp_path):
    with pytest.raises(SystemExit):
        main(["oracle", "--graph", "nonexistent.txt"])


def test_graph_spec_typo_names_the_key(capsys):
    # A misspelt seed must not fall back to seed 0.
    with pytest.raises(SystemExit, match=r"unknown key\(s\) sed in"):
        main(["oracle", "--graph", "regular3:n=10,sed=7"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec, key, family", [
    ("er:n=10,d=4,seed=1", "d", "erdos_renyi"),
    ("regular3:n=10,seed=1,p=0.2", "p", "regular3"),
])
def test_graph_spec_key_the_family_ignores_names_key_and_family(capsys, spec, key, family):
    # make_graph reads d only for regular3 and p only for the random families.
    with pytest.raises(SystemExit, match=rf"unknown key\(s\) {key} in graph spec .* for family {family};"):
        main(["oracle", "--graph", spec])
    assert capsys.readouterr().out == ""


def test_run_builds_the_cut_table_once(tmp_path, cut_table_calls):
    assert main(["run", "--graph", "regular3:n=8,seed=1", "--rounds", "3", "--out", str(tmp_path)]) == 0
    assert cut_table_calls == [8]
    assert json.loads((tmp_path / "run_n08.json").read_text())["oracle"]["optimum"] > 0


def test_config_file_unknown_key_names_the_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "regular3", "n_list": [6], "rounds": 5, "instance_per_n": 2}))
    with pytest.raises(SystemExit, match=r"unknown key\(s\) instance_per_n in"):
        main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")])
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("key, value, message", [
    ("ansatz", "qaoaa", r"ansatz 'qaoaa' in .* is not one of: light_cone, lightcone, qaoa, qaoa_feedback$"),
    ("family", "cubic", r"family 'cubic' in .* is not one of: bipartite, er, erdos_renyi, regular3$"),
    # A JSON string is truthy: "false" must not switch adaptive mode on.
    ("adaptive_dt", "false", r"adaptive_dt 'false' in .* must be JSON true or false$"),
    ("lightcone_feedback", 0, r"lightcone_feedback 0 in .* must be JSON true or false$"),
    ("exhaustive_cubic", "true", r"exhaustive_cubic 'true' in .* must be JSON true or false$"),
], ids=["ansatz", "family", "adaptive_dt", "lightcone_feedback", "exhaustive_cubic"])
def test_config_file_bad_value_names_key_value_and_choices(tmp_path, key, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "regular3", "n_list": [6], "rounds": 5, key: value}))
    with pytest.raises(SystemExit, match=message):
        main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")])
    assert not (tmp_path / "suite").exists()
