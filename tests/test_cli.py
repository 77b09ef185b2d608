"""Command line driver: configs, subcommands, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvforge.cli import ConfigError, main, parse_run_config
from cvforge.mbqc import MeasurementPlan, extract_gate


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


WIRE = {"kind": "1d", "n_max": 1, "n_bins": 4, "r": 1.0}
BILAYER = {"kind": "3d", "n_max": 1, "n_bins": 4, "r": 1.0}


# --- config parsing -------------------------------------------------------


def test_parse_minimal_wire_config():
    run = parse_run_config({"kind": "1d", "n_max": 0, "n_bins": 4, "r": 0.5})
    assert run.pipeline.kind == "1d"
    assert run.pipeline.nopas[0].pump_offset == 0
    assert run.seed is None


def test_parse_bilayer_defaults_to_opposite_pumps():
    run = parse_run_config({"kind": "3d", "n_max": 1, "n_bins": 4, "r": 0.5,
                            "seed": 9})
    assert [s.pump_offset for s in run.pipeline.nopas] == [1, -1]
    assert run.seed == 9


def test_parse_explicit_nopa_list():
    run = parse_run_config(
        {
            "kind": "3d",
            "n_max": 1,
            "n_bins": 4,
            "nopas": [
                {"pump_offset": 1, "r_signal": 0.5, "r_idler": 0.7},
                {"pump_offset": -1, "r_signal": 0.5},
            ],
        }
    )
    assert run.pipeline.nopas[0].r_p == 0.7
    assert run.pipeline.nopas[1].r_p == 0.5


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"kind": "1d", "n_max": 0, "n_bins": 4, "r": 0.5, "colour": "red"},
        {"kind": "1d", "n_max": 0, "r": 0.5},
        {"kind": "1d", "n_max": True, "n_bins": 4, "r": 0.5},
        {"kind": "1d", "n_max": 0, "n_bins": 4, "r": "high"},
        {"kind": "1d", "n_max": 0, "n_bins": 4, "r": 0.5,
         "nopas": [{"pump_offset": 0, "r_signal": 0.5}]},
        {"kind": "1d", "n_max": 0, "n_bins": 4, "nopas": []},
        {"kind": "1d", "n_max": 0, "n_bins": 4,
         "nopas": [{"pump_offset": 0, "r_signal": 0.5, "gain": 2}]},
        {"kind": "1d", "n_max": 0, "n_bins": 4, "r": 0.5, "seed": 1.5},
        {"kind": "1d", "n_max": 0, "n_bins": 4, "r": 0.5, "metadata": 7},
        {"kind": "1d", "n_max": 0, "n_bins": 4, "r": 0.5,
         "allow_same_pump": "yes"},
        {"kind": "3d", "n_max": 1, "n_bins": 4,
         "nopas": [{"pump_offset": 0, "r_signal": 0.5},
                   {"pump_offset": 0, "r_signal": 0.5}]},
        {"kind": "2d", "n_max": 1, "n_bins": 4, "r": 0.5},
    ],
)
def test_bad_configs_are_rejected(doc):
    with pytest.raises(ConfigError):
        parse_run_config(doc)


# --- build ----------------------------------------------------------------


def test_build_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, WIRE)
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    for name in ("covariance.csv", "registry.json", "trace.json",
                 "hgraph_edges.csv"):
        assert (out / name).exists()
    message = capsys.readouterr().out
    assert "built 1d lattice: 24 modes, 25 operations, 12 squeezing edges" in message
    trace = json.loads((out / "trace.json").read_text())
    assert trace["stage"] == "full"
    registry = json.loads((out / "registry.json").read_text())
    assert len(registry["modes"]) == 24


def test_build_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, BILAYER)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("covariance.csv", "registry.json", "trace.json",
                 "hgraph_edges.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_build_stage_flag(tmp_path):
    cfg = write_config(tmp_path, WIRE)
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out),
                 "--stage", "squeezed"]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["stage"] == "squeezed"
    assert all(rec["kind"] == "tms" for rec in trace["records"])


# --- sweep ----------------------------------------------------------------


def test_sweep_passes_above_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "1d", "n_max": 0, "n_bins": 4,
                                  "r": 1.0})
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out),
                 "--r-min", "0.1", "--r-max", "0.6", "--steps", "3"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "r,db,family,k,variance,bound"
    assert len(lines) == 1 + 3 * 6
    vlf = json.loads((out / "vlf.json").read_text())
    assert vlf["all_pass"] is True
    found = json.loads((out / "threshold.json").read_text())
    assert abs(found["r"] - math.log(2) / 2) < 1e-5
    assert found["evaluations"] > 0
    assert "threshold at r=0.34657" in capsys.readouterr().out


def test_sweep_fails_below_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "1d", "n_max": 0, "n_bins": 4,
                                  "r": 1.0})
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out),
                 "--r-min", "0.05", "--r-max", "0.2", "--steps", "2"])
    assert code == 2
    assert not (out / "threshold.json").exists()
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    assert "no threshold in range" in stdout


def test_sweep_rejects_bad_range(tmp_path, capsys):
    cfg = write_config(tmp_path, WIRE)
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out),
                 "--r-min", "0.5", "--r-max", "0.2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, source", [
    ({"kind": "1d", "n_max": 0, "n_bins": 4, "r": 1.0, "r_p": 0.5}, 0),
    ({"kind": "3d", "n_max": 1, "n_bins": 4, "nopas": [
        {"pump_offset": 1, "r_signal": 1.0},
        {"pump_offset": -1, "r_signal": 1.0, "r_idler": 0.4}]}, 1),
    ({"kind": "1d", "n_max": 0, "n_bins": 4, "r": 1.0, "r_p": 1.0}, None),
])
def test_sweep_refuses_asymmetric_squeezing(tmp_path, capsys, doc, source):
    # the grid sets r_p = r, so a configured r_p != r would be dropped
    out = tmp_path / "out"
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--r-min", "0.5", "--r-max", "1.0",
                 "--steps", "2"])
    if source is None:
        assert code == 0
        return
    assert code == 1
    assert f"source {source}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


# --- mbqc -----------------------------------------------------------------


def write_plan(tmp_path, steps, rail=0, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"rail": rail, "steps": steps}))
    return str(path)


def test_mbqc_runs_pinned_plan(tmp_path):
    cfg = write_config(tmp_path, {"kind": "1d", "n_max": 0, "n_bins": 3,
                                  "r": 1.0, "seed": 7})
    plan = write_plan(tmp_path, [
        {"theta_a": 0.3, "theta_b": -0.8, "outcome": [0.0, 0.0]},
        {"theta_a": 1.0, "theta_b": 0.2, "outcome": [0.0, 0.0]},
    ])
    out = tmp_path / "out"
    assert main(["mbqc", "--config", cfg, "--out", str(out),
                 "--plan", plan]) == 0
    records = [json.loads(line)
               for line in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert records[0]["outcome_a"] == 0.0
    gate = json.loads((out / "gate.json").read_text())
    assert gate["steps"] == 2
    assert gate["seed"] == 7
    assert gate["logical_mode"] == "n1:i[+0]@1"
    assert gate["extracted"]["residual"] < 1.0


def test_mbqc_gate_uses_the_configured_momentum_squeezing(tmp_path):
    cfg = write_config(tmp_path, {"kind": "1d", "n_max": 0, "n_bins": 3,
                                  "r": 1.2, "r_p": 0.5, "seed": 7})
    steps = [{"theta_a": 0.3, "theta_b": -0.8, "outcome": [0.0, 0.0]},
             {"theta_a": 1.0, "theta_b": 0.2, "outcome": [0.0, 0.0]}]
    out = tmp_path / "out"
    assert main(["mbqc", "--config", cfg, "--out", str(out),
                 "--plan", write_plan(tmp_path, steps)]) == 0
    extracted = json.loads((out / "gate.json").read_text())["extracted"]
    assert extracted["metadata"]["r_p"] == 0.5
    plan = MeasurementPlan.from_json(steps)
    asymmetric = extract_gate(1.2, plan, r_p=0.5).noise
    symmetric = extract_gate(1.2, plan).noise
    assert np.max(np.abs(np.array(extracted["noise"]) - asymmetric)) < 1e-12
    assert np.max(np.abs(asymmetric - symmetric)) > 0.1


def test_mbqc_seed_override_and_determinism(tmp_path):
    cfg = write_config(tmp_path, {"kind": "1d", "n_max": 0, "n_bins": 3,
                                  "r": 1.0, "seed": 7})
    plan = write_plan(tmp_path, [{"theta_a": 0.3, "theta_b": -0.8}])
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        seed = "12" if name in ("a", "b") else "13"
        assert main(["mbqc", "--config", cfg, "--out", str(out),
                     "--plan", plan, "--seed", seed]) == 0
        outs.append(out)
    rec_a = (outs[0] / "records.jsonl").read_bytes()
    rec_b = (outs[1] / "records.jsonl").read_bytes()
    rec_c = (outs[2] / "records.jsonl").read_bytes()
    assert rec_a == rec_b
    assert rec_a != rec_c
    assert json.loads((outs[0] / "gate.json").read_text())["seed"] == 12


def test_mbqc_records_a_drawn_seed(tmp_path):
    # no seed in the config or on the command line: one is drawn and
    # written to gate.json, and rerunning with it repeats the samples
    cfg = write_config(tmp_path, {"kind": "1d", "n_max": 0, "n_bins": 4,
                                  "r": 1.0})
    plan = write_plan(tmp_path, [{"theta_a": 0.3, "theta_b": -0.8},
                                 {"theta_a": 1.0, "theta_b": 0.2}])
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["mbqc", "--config", cfg, "--out", str(first),
                 "--plan", plan]) == 0
    seed = json.loads((first / "gate.json").read_text())["seed"]
    assert isinstance(seed, int)
    assert main(["mbqc", "--config", cfg, "--out", str(again),
                 "--plan", plan, "--seed", str(seed)]) == 0
    assert (again / "records.jsonl").read_bytes() == \
        (first / "records.jsonl").read_bytes()
    assert json.loads((again / "gate.json").read_text())["seed"] == seed


def test_mbqc_rejects_bilayer_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BILAYER)
    plan = write_plan(tmp_path, [{"theta_a": 0.3, "theta_b": -0.8}])
    code = main(["mbqc", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--plan", plan])
    assert code == 1
    assert "wire lattices only" in capsys.readouterr().err


def test_mbqc_rejects_broken_plan(tmp_path, capsys):
    cfg = write_config(tmp_path, WIRE)
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    code = main(["mbqc", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--plan", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# --- graph ----------------------------------------------------------------


def test_graph_wire_components(tmp_path):
    cfg = write_config(tmp_path, WIRE)
    out = tmp_path / "out"
    assert main(["graph", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "components.json").read_text())
    # three independent wires of 2 modes per time bin
    assert doc["mode_level"] == {"count": 3, "sizes": [8, 8, 8]}
    assert doc["cell_level"] == {"count": 2, "sizes": [2, 4]}
    assert (out / "cluster_edges.csv").exists()
    assert (out / "cluster.json").exists()


def test_graph_bilayer_is_cell_connected(tmp_path):
    cfg = write_config(tmp_path, BILAYER)
    out = tmp_path / "out"
    assert main(["graph", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "components.json").read_text())
    assert doc["mode_level"]["count"] == 2
    assert doc["cell_level"] == {"count": 1, "sizes": [6]}


# --- entry point ----------------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    code = main(["build", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "cannot read configuration" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    code = main(["build", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {**WIRE, "octaves": 2})
    code = main(["build", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown configuration keys" in capsys.readouterr().err


def test_module_entry_point_has_no_runtime_warning():
    # the package must not import cvforge.cli, or running it with -m warns
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cvforge.cli",
         "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: cvforge" in proc.stdout
