import itertools
import json
import math
import re

import pytest

from lyapcut import cli, experiments
from lyapcut.cli import main
from lyapcut.dynamics import BetaParams, RunConfig
from lyapcut.experiments import SuiteSpec
from lyapcut.graphs import Graph, brute_force_max_cut, cut_table, make_graph


def test_gen_then_oracle_round_trip(tmp_path, capsys):
    out_file = tmp_path / "g.txt"
    assert main(["gen", "--family", "regular3", "--n", "4", "--seed", "0", "--out", str(out_file)]) == 0
    g = Graph.from_text(out_file.read_text())
    assert g.degrees == (3, 3, 3, 3)

    assert main(["oracle", "--graph", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "optimum 4" in out
    assert "maximizer" in out


@pytest.mark.parametrize("g, maximizers, lines", [
    (Graph.from_edges(6, itertools.combinations(range(6), 2)), 20, "optimum 9\nmaximizer 111000\n"),
    (make_graph("erdos_renyi", 9, seed=2), 6, "optimum 13\nmaximizer 011110000\n"),
], ids=["complete6", "erdos_renyi9"])
def test_oracle_prints_the_optimum_and_the_first_of_several_maximizers(tmp_path, capsys, g, maximizers, lines):
    assert int((cut_table(g) == brute_force_max_cut(g).optimum).sum()) == maximizers
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    assert main(["oracle", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == lines


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


@pytest.mark.parametrize("spec, message", [
    ("regular3:n=ten", r"n=ten in graph spec regular3:n=ten is not an integer$"),
    ("er:n=10,p=abc", r"p=abc in graph spec er:n=10,p=abc is not a number$"),
    ("regular3:n", r"key n in graph spec regular3:n has no value"),
    ("regular3:n=7,seed=1", r"graph spec regular3:n=7,seed=1: n\*d must be even"),
], ids=["int", "float", "no_equals", "family_check"])
def test_graph_spec_bad_value_names_spec_and_key(capsys, spec, message):
    with pytest.raises(SystemExit, match=message):
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
    ("rounds", "ten", r"rounds 'ten' in .*cfg\.json must be an integer$"),
    ("rounds", 0, r"rounds must be >= 1, got 0 in .*cfg\.json$"),
    ("n_list", 10, r"n_list 10 in .*cfg\.json must be a JSON list$"),
    ("n_list", [6, "8"], r"n_list '8' in .*cfg\.json must be an integer$"),
    ("n_list", [6, 6], r"^n_list repeats n=6, got \(6, 6\) in .*cfg\.json$"),
    ("beta", {"c": "x"}, r"c 'x' in .*cfg\.json \(beta\) must be a number$"),
    ("beta", 3, r"beta 3 in .*cfg\.json must be a JSON object$"),
    ("dt", True, r"dt True in .*cfg\.json must be a number$"),
    ("instances_per_n", 0, r"instances_per_n must be >= 1, got 0 in .*cfg\.json$"),
    ("state_cap", 1, r"^state_cap must be in \[2, 24\], got 1 in .*cfg\.json$"),
    ("state_cap", 25, r"^state_cap must be in \[2, 24\], got 25 in .*cfg\.json$"),
    ("dt", math.nan, r"^dt must be finite and positive, got nan in .*cfg\.json$"),
    ("epsilon", math.inf, r"^epsilon must be finite and positive, got inf in .*cfg\.json$"),
    ("beta", {"c": -0.04}, r"^beta c must be finite and >= 0, got -0\.04 in .*cfg\.json$"),
    ("beta", {"floor": 1.5}, r"^beta floor must be finite and in \[0, 1\], got 1\.5 in .*cfg\.json$"),
    ("beta", {"rate": math.nan}, r"^beta rate must be finite and >= 0, got nan in .*cfg\.json$"),
], ids=["ansatz", "family", "adaptive_dt", "lightcone_feedback", "exhaustive_cubic", "rounds_text",
        "rounds_zero", "n_list_scalar", "n_list_item", "n_list_repeat", "beta_c", "beta_scalar", "dt_bool", "instances_zero",
        "state_cap_below_two", "state_cap_above_the_default", "dt_nan", "epsilon_inf", "beta_c_negative",
        "beta_floor_above_one", "beta_rate_nan"])
def test_config_file_bad_value_names_key_value_and_choices(tmp_path, key, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "regular3", "n_list": [6], "rounds": 5, key: value}))
    with pytest.raises(SystemExit, match=message):
        main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")])
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "0", r"--dt must be finite and positive, got 0\.0$"),
    ("--dt", "nan", r"--dt must be finite and positive, got nan$"),
    ("--dt", "inf", r"--dt must be finite and positive, got inf$"),
    ("--epsilon", "nan", r"--epsilon must be finite and positive, got nan$"),
    ("--epsilon", "inf", r"--epsilon must be finite and positive, got inf$"),
    ("--rounds", "0", r"--rounds must be >= 1, got 0$"),
], ids=["dt", "dt_nan", "dt_inf", "epsilon_nan", "epsilon_inf", "rounds"])
def test_run_bad_option_value_names_the_flag(tmp_path, flag, value, message):
    with pytest.raises(SystemExit, match=message):
        main(["run", "--graph", "regular3:n=8,seed=1", flag, value, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_gen_family_check_names_family_and_reason(tmp_path, capsys):
    out_file = tmp_path / "g.txt"
    with pytest.raises(SystemExit, match=r"^lyapcut gen --family regular3 --n 7: n\*d must be even"):
        main(["gen", "--family", "regular3", "--n", "7", "--out", str(out_file)])
    assert not out_file.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("targets, message", [
    ("0.6,x", r"argument --targets: '0\.6,x': could not convert string to float: 'x'"),
    ("1.5", r"argument --targets: '1\.5': targets must lie in \(0, 1\), got \(1\.5,\)"),
    ("0.8,0.8", r"argument --targets: '0\.8,0\.8': targets repeat 0\.8, got \(0\.8, 0\.8\)"),
], ids=["not_a_number", "out_of_range", "repeated"])
def test_convergence_bad_targets_name_the_flag(tmp_path, capsys, targets, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [6], "rounds": 5}))
    with pytest.raises(SystemExit):
        main(["convergence", "--config", str(cfg_path), "--targets", targets, "--out", str(tmp_path / "conv")])
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "conv").exists()


@pytest.mark.parametrize("command", ["suite", "convergence"])
@pytest.mark.parametrize("config, message", [
    ({"family": "er", "exhaustive_cubic": True},
     r"^exhaustive enumeration only applies to the cubic family in .*cfg\.json$"),
    ({"n_list": [12], "exhaustive_cubic": True},
     r"^exhaustive cubic enumeration supports n in \[4, 6, 8, 10\], got \(12,\) in .*cfg\.json$"),
], ids=["family", "n_list"])
def test_exhaustive_cubic_config_checked_before_any_run(tmp_path, command, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=message):
        main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["suite", "convergence"])
@pytest.mark.parametrize("config, message", [
    ({"family": "regular3", "n_list": [7], "rounds": 3},
     r"^regular3 graphs of n=7 \(n_list\): n\*d must be even, got n=7, d=3 in .*cfg\.json$"),
    ({"family": "erdos_renyi", "n_list": [8], "p": 0.0},
     r"^erdos_renyi graphs of n=8 \(n_list\): need 0 < p <= 1, got p=0\.0 in .*cfg\.json$"),
    ({"family": "erdos_renyi", "n_list": [1]},
     r"^erdos_renyi graphs of n=1 \(n_list\): need at least 2 vertices, got n=1 in .*cfg\.json$"),
], ids=["odd_cubic_size", "zero_p", "one_vertex"])
def test_config_the_generator_refuses_stops_before_any_run(tmp_path, command, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=message):
        main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_config_key_the_family_ignores_names_key_and_family(tmp_path):
    # The cubic grid never reads p, as a regular3 graph spec refuses p=.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "regular3", "n_list": [6], "p": 0.2}))
    with pytest.raises(SystemExit, match=r"^unknown key\(s\) p in .*cfg\.json for family regular3; known: "):
        main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")])
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("family", ["er", "bipartite"])
def test_config_degree_is_refused_for_families_other_than_cubic(tmp_path, family):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": family, "n_list": [6], "degree": 4}))
    with pytest.raises(SystemExit, match=r"^unknown key\(s\) degree in .*cfg\.json for family (erdos_renyi|bipartite); "):
        main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")])
    assert not (tmp_path / "suite").exists()


def test_config_workers_runs_the_pool_with_the_serial_output(tmp_path):
    outputs = []
    for workers in (1, 2):
        cfg_path = tmp_path / f"cfg{workers}.json"
        cfg_path.write_text(json.dumps({"n_list": [6], "instances_per_n": 2, "rounds": 3, "degree": 4,
                                        "state_cap": 8, "workers": workers}))
        out = tmp_path / f"suite{workers}"
        assert main(["suite", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and len(outputs[0]) >= 4


@pytest.fixture
def suite_spec_of(tmp_path, monkeypatch):
    """The SuiteSpec that `lyapcut suite` builds from a config dict, captured instead of run."""
    built = []
    monkeypatch.setattr(cli, "run_suite", lambda spec, out: built.append(spec) or {"instances": [], "skipped": []})

    def build(config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")]) == 0
        return built.pop()
    return build


# For every config key: a file that sets it to a value other than its default, and the value
# the loader should build for it.
NON_DEFAULT = {
    "family": ({"family": "er"}, "erdos_renyi"),
    "n_list": ({"n_list": [6, 8]}, (6, 8)),
    "instances_per_n": ({"instances_per_n": 3}, 3),
    "dt": ({"dt": 0.05}, 0.05),
    "rounds": ({"rounds": 7}, 7),
    "beta": ({"beta": {"c": 0.07, "floor": 0.3, "rate": 1.5}}, BetaParams(c=0.07, floor=0.3, rate=1.5)),
    "epsilon": ({"epsilon": 0.002}, 0.002),
    "adaptive_dt": ({"adaptive_dt": True}, True),
    "lightcone_feedback": ({"lightcone_feedback": False}, False),
    "seed": ({"seed": 9}, 9),
    "ansatz": ({"ansatz": "lightcone"}, "light_cone"),
    "p": ({"family": "bipartite", "p": 0.3}, 0.3),
    "snapshot_steps": ({"snapshot_steps": [1, 5]}, (1, 5)),
    "exhaustive_cubic": ({"exhaustive_cubic": True}, True),
    "workers": ({"workers": 2}, 2),
    "state_cap": ({"state_cap": 20}, 20),
    "degree": ({"degree": 4}, 4),
}


def test_non_default_table_covers_every_config_key():
    assert NON_DEFAULT.keys() == cli._CONFIG_KEYS.keys()


@pytest.mark.parametrize("key", list(cli._CONFIG_KEYS))
def test_config_key_lands_in_the_built_settings(suite_spec_of, key):
    config, expected = NON_DEFAULT[key]
    spec, default = suite_spec_of(config), suite_spec_of({})
    read = (lambda s: getattr(s.config, key)) if hasattr(default.config, key) else (lambda s: getattr(s, key))
    assert read(spec) == expected
    assert read(default) != expected
    if key == "beta":
        assert all(getattr(spec.config.beta, f) != getattr(default.config.beta, f) for f in ("c", "floor", "rate"))


def test_empty_config_builds_the_defaults(suite_spec_of):
    assert suite_spec_of({}) == SuiteSpec(family="regular3", n_list=(10,), instances_per_n=1, config=RunConfig())


def test_config_targets_key_is_refused(tmp_path):
    # Convergence targets come from --targets only.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"targets": [0.5]}))
    with pytest.raises(SystemExit, match=r"^unknown key\(s\) targets in "):
        main(["convergence", "--config", str(cfg_path), "--out", str(tmp_path / "conv")])
    assert not (tmp_path / "conv").exists()


def test_run_has_no_seed_flag(tmp_path, capsys):
    # The master seed of RunConfig drives suite grids only; a single run draws nothing from it.
    with pytest.raises(SystemExit):
        main(["run", "--graph", "regular3:n=4", "--seed", "1", "--out", str(tmp_path / "out")])
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('{"n_list": [6],}', r"^.*cfg\.json is not valid JSON: Expecting property name enclosed in double quotes "
                          r"at line 1 column 16$"),
    ("[1]", r"^.*cfg\.json must hold a JSON object of config keys, got list$"),
], ids=["bad_json", "top_level_list"])
def test_config_file_shape_names_the_file(tmp_path, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with pytest.raises(SystemExit, match=message):
        main(["suite", "--config", str(cfg_path), "--out", str(tmp_path / "suite")])
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("family, flag, value, message", [
    ("er", "--d", "4", r"^lyapcut gen --family er: --d not read by family erdos_renyi; known: --n, --seed, --p$"),
    ("regular3", "--p", "0.3",
     r"^lyapcut gen --family regular3: --p not read by family regular3; known: --n, --seed, --d$"),
], ids=["d_for_er", "p_for_regular3"])
def test_gen_flag_the_family_ignores_names_flag_and_family(tmp_path, capsys, family, flag, value, message):
    # As the graph spec er:n=6,d=4 is refused.
    out_file = tmp_path / "g.txt"
    with pytest.raises(SystemExit, match=message):
        main(["gen", "--family", family, "--n", "6", flag, value, "--out", str(out_file)])
    assert not out_file.exists()
    assert capsys.readouterr().out == ""


def test_gen_passes_the_flags_the_family_reads(tmp_path):
    out_file = tmp_path / "g.txt"
    assert main(["gen", "--family", "regular3", "--n", "8", "--d", "4", "--seed", "2", "--out", str(out_file)]) == 0
    assert Graph.from_text(out_file.read_text()).degrees == (4,) * 8


def test_convergence_size_above_state_cap_names_size_cap_and_file(tmp_path, monkeypatch):
    # Refused before any run: the n=6 instances must not run first.
    monkeypatch.setattr(experiments, "solve_instance", lambda *args, **kwargs: pytest.fail("ran an instance"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_list": [6, 26], "rounds": 5}))
    with pytest.raises(SystemExit, match=rf"^n_list: n=26 is above state cap {RunConfig.state_cap} in .*cfg\.json$"):
        main(["convergence", "--config", str(cfg_path), "--out", str(tmp_path / "conv")])
    assert not (tmp_path / "conv").exists()


def test_run_above_twenty_qubits_reports_the_true_ratio(tmp_path, capsys):
    assert main(["run", "--graph", "er:n=21,seed=1", "--rounds", "1", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "run_n21.json").read_text())
    assert summary["oracle"]["optimum"] > 0 and len(summary["oracle"]["one_maximizer"]) == 21
    row = (tmp_path / "run_n21.csv").read_text().splitlines()[1].split(",")
    ratio = float(row[-2])  # true_ratio, the column before violation
    assert ratio == pytest.approx(summary["final"]["true_ratio"]) and 0 < ratio <= 1
    assert f"true_ratio={ratio:.6f}" in capsys.readouterr().out


# A 25-vertex path is above the 24-qubit cap of both the oracle and the Hamiltonian.
PATH_25 = Graph.from_edges(25, [(i, i + 1) for i in range(24)]).to_text()
TWO_EDGES_APART = Graph.from_edges(4, [(0, 1), (2, 3)]).to_text()


@pytest.mark.parametrize("name, text, command, message", [
    ("g.txt", "3 3\n0 1\n1 2\n", "oracle", r"graph file {path}: header promises 3 edges, found 2$"),
    ("g.txt", "3 2\n0 x\n1 2\n", "run", r"graph file {path}: invalid literal for int\(\) with base 10: 'x'$"),
    ("g.txt", "3 2\n0 1 2\n1 2\n", "oracle", r"graph file {path}: edge line '0 1 2' needs two vertex numbers$"),
    ("g.json", '{"n": 3}', "run", r"graph file {path}: no 'edges' key$"),
    ("g.json", '{"n": 3, "edges": [[0, 1]', "oracle", r"graph file {path}: Expecting ',' delimiter"),
    ("g.txt", "3 2\n0 1\n1 5\n", "run", r"graph file {path}: bad edge \(1, 5\) for n=3"),
    ("path25.txt", PATH_25, "oracle", r"^lyapcut oracle --graph {path}: n=25 is above state cap 24$"),
    ("path25.txt", PATH_25, "run", r"^lyapcut run --graph {path}: n=25 is above state cap 24$"),
    ("apart.txt", TWO_EDGES_APART, "lightcone", r"^lyapcut run --graph {path}: graph is disconnected"),
    # None makes the path a directory; bytes are written as they are.
    ("graphs", None, "run", r"^lyapcut run --graph: graph file {path}: cannot read: Is a directory$"),
    ("graphs", None, "oracle", r"^lyapcut oracle --graph: graph file {path}: cannot read: Is a directory$"),
    ("latin1.txt", b"3 2\n0 1\n1 2 \xe9\n", "run",
     r"^lyapcut run --graph: graph file {path}: 'utf-8' codec can't decode byte 0xe9"),
], ids=["edge_count", "token", "three_numbers", "json_no_edges", "bad_json", "edge_range", "oracle_cap",
        "run_cap", "lightcone_disconnected", "run_directory", "oracle_directory", "not_utf8"])
def test_graph_the_command_cannot_take_names_the_graph(tmp_path, capsys, name, text, command, message):
    path = tmp_path / name
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    argv = {"oracle": ["oracle", "--graph", str(path)],
            "run": ["run", "--graph", str(path), "--rounds", "2", "--out", str(tmp_path / "out")],
            "lightcone": ["run", "--graph", str(path), "--ansatz", "lightcone", "--rounds", "2",
                          "--out", str(tmp_path / "out")]}[command]
    with pytest.raises(SystemExit, match=message.format(path=re.escape(str(path)))):
        main(argv)
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


# The arguments of each command but --out, with a config small enough to run.
PATH_CASE_ARGS = {"run": ["--graph", "regular3:n=4,seed=0", "--rounds", "2"], "suite": ["--config", "{config}"],
                  "convergence": ["--config", "{config}", "--targets", "0.5"], "gen": ["--family", "regular3", "--n", "4"]}


@pytest.mark.parametrize("command, flag, kind, message", [
    ("run", "--out", "file", r"^lyapcut run --out {path}: cannot make the directory: File exists$"),
    ("run", "--out", "under_a_file", r"^lyapcut run --out {path}: cannot make the directory: Not a directory$"),
    ("suite", "--out", "file", r"^lyapcut suite --out {path}: cannot make the directory: File exists$"),
    ("convergence", "--out", "file", r"^lyapcut convergence --out {path}: cannot make the directory: File exists$"),
    ("gen", "--out", "directory", r"^lyapcut gen --out {path}: cannot write: Is a directory$"),
    ("suite", "--config", "missing", r"^--config {path}: cannot read: No such file or directory$"),
    ("convergence", "--config", "directory", r"^--config {path}: cannot read: Is a directory$"),
    ("suite", "--config", "not_utf8", r"^--config {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9"),
], ids=["run_out_file", "run_out_under_a_file", "suite_out_file", "convergence_out_file", "gen_out_directory",
        "suite_config_missing", "convergence_config_directory", "suite_config_not_utf8"])
def test_path_the_command_cannot_read_or_write_names_flag_and_path(tmp_path, capsys, command, flag, kind, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_list": [6], "rounds": 3}))
    bad = tmp_path / "bad"
    if kind == "file":
        bad.write_text("kept\n")
    elif kind == "under_a_file":
        bad.write_text("kept\n")
        bad = bad / "out"
    elif kind == "directory":
        bad.mkdir()
    elif kind == "not_utf8":
        bad.write_bytes(b'{"n_list": [6], "family": "\xe9"}')
    out = tmp_path / "out"
    args = [arg.format(config=bad if flag == "--config" else config) for arg in PATH_CASE_ARGS[command]]
    argv = [command, *args, "--out", str(bad if flag == "--out" else out)]
    with pytest.raises(SystemExit, match=message.format(path=re.escape(str(bad)))):
        main(argv)
    assert capsys.readouterr().out == ""
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"cfg.json", *(("bad",) if kind != "missing" else ())})
    if kind in ("file", "under_a_file"):
        assert (tmp_path / "bad").read_text() == "kept\n"
    if kind == "directory":
        assert not any(bad.iterdir())


@pytest.mark.parametrize("command", ["run", "convergence"])
@pytest.mark.parametrize("kind, reason", [("file", "File exists"), ("under_a_file", "Not a directory")])
def test_an_out_that_cannot_be_a_directory_stops_before_any_run(tmp_path, capsys, monkeypatch, command, kind,
                                                                reason):
    monkeypatch.setattr(experiments, "solve_instance", lambda *args, **kwargs: pytest.fail("ran an instance"))
    monkeypatch.setattr(cli, "solve_instance", lambda *args, **kwargs: pytest.fail("ran the instance"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_list": [6], "rounds": 3}))
    (tmp_path / "bad").write_text("kept\n")
    bad = tmp_path / "bad" if kind == "file" else tmp_path / "bad" / "out"
    args = [arg.format(config=config) for arg in PATH_CASE_ARGS[command]]
    with pytest.raises(SystemExit, match=rf"^lyapcut {command} --out {re.escape(str(bad))}: "
                                         rf"cannot make the directory: {reason}$"):
        main([command, *args, "--out", str(bad)])
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "cfg.json"]
    assert (tmp_path / "bad").read_text() == "kept\n"


def test_graph_id_with_a_path_separator_is_refused_before_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "solve_instance", lambda *args, **kwargs: pytest.fail("ran the instance"))
    with pytest.raises(SystemExit, match=r"^lyapcut run: --graph-id 'a/b' must be a file name without a path sep"):
        main(["run", "--graph", "regular3:n=4,seed=0", "--rounds", "2", "--graph-id", "a/b",
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
