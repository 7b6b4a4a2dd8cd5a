import json
import re

import numpy as np
import pytest

from backstep.cli import main
from backstep.spectrum import Kind, make_spectrum, make_tabulated, model_to_json


def run(tmp_path, *argv):
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def test_spectrum_check(tmp_path):
    assert run(tmp_path, "spectrum-check", "--alpha", "2", "--n-max", "200") == 0
    doc = json.loads((tmp_path / "gap_report.json").read_text())
    assert doc["passed"] is True


def test_spectrum_check_alpha_guard(tmp_path, capsys):
    assert run(tmp_path, "spectrum-check", "--alpha", "1") == 2
    assert "alpha must exceed 1" in capsys.readouterr().err


def test_spectrum_check_degenerate_model_exits_3(tmp_path):
    bad = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-1.0, -1.0, -4.0])
    (tmp_path / "bad.json").write_text(model_to_json(bad))
    assert run(tmp_path, "spectrum-check", "--model", "bad.json") == 3


def test_tabulated_spectrum_past_table_exits_3(tmp_path, capsys):
    tab = make_tabulated(Kind.SELF_ADJOINT, 2.0, [-float(n * n) for n in range(1, 9)])
    (tmp_path / "tab.json").write_text(model_to_json(tab))
    for lam in ("20.5", "19.5"):
        assert run(tmp_path, "synth", "--model", "tab.json", "--lambda", lam, "--trunc", "8") == 3
        assert "only the tabulated modes" in capsys.readouterr().err


def test_malformed_model_exits_2(tmp_path):
    (tmp_path / "junk.json").write_text("{not json")
    assert run(tmp_path, "synth", "--model", "junk.json") == 2


def _law_doc(**changes):
    doc = json.loads(model_to_json(make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 4)))
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text,reason", [
    (_law_doc(alpha=None), "'alpha'"),
    (_law_doc(n_max=None), "'n_max'"),
    (_law_doc().replace('"alpha": 2.0', '"alpha": 1e400'), "alpha must exceed 1 and be finite"),
    (_law_doc(scale="x"), "'scale'"),
    (_law_doc(eigenvalues=[[None, 0], [-4, 0], [-9, 0], [-16, 0]]), "'eigenvalues'"),
    (_law_doc(b={"a": 1}), "'b'"),
    (_law_doc(b=[None, 1, 1, 1]), "b must be finite"),
    (_law_doc().replace('"b": [1.0', '"b": [1e400'), "b must be finite"),
    (_law_doc().replace("[-1.0, 0.0]", "[-1e400, 0.0]"), "eigenvalues must be finite"),
    ("[1, 2]", "must be a JSON object"),
], ids=["alpha-null", "n_max-null", "alpha-overflow", "scale-text", "eigenvalue-null", "b-object", "b-null",
        "b-overflow", "eigenvalue-overflow", "not-an-object"])
def test_malformed_model_document_exits_2(tmp_path, capsys, text, reason):
    (tmp_path / "m.json").write_text(text)
    assert run(tmp_path, "synth", "--model", "m.json", "--lambda", "0.5", "--trunc", "4") == 2
    assert reason in capsys.readouterr().err


def test_tabulated_synth_reports_exact_distance(tmp_path):
    tab = -np.cumsum(np.random.default_rng(14).uniform(0.5, 9.0, 120)) - 0.25
    (tmp_path / "tab.json").write_text(model_to_json(make_tabulated(Kind.SELF_ADJOINT, 2.0, tab)))
    assert run(tmp_path, "synth", "--model", "tab.json", "--lambda", "0.30246121477323656",
               "--trunc", "4") == 0
    assert json.loads((tmp_path / "synthesis.json").read_text())["dist"] == 0.23912908410421535


def test_cost_sweep_grid_past_index_limit_exits_2(tmp_path, capsys):
    assert run(tmp_path, "cost-sweep", "--alpha", "1.05", "--n-range", "5:5", "--trunc", "8") == 2
    assert "exceeds index limit" in capsys.readouterr().err


def test_cauchy_verify(tmp_path):
    assert run(tmp_path, "cauchy-verify", "--n-base", "1",
               "--sizes", "2,4,8,16,32,64", "--n-max", "64") == 0
    lines = (tmp_path / "cauchy_verify.csv").read_text().splitlines()
    assert lines[0] == "N,lambda,residual_identity,residual_oracle"
    body = [l for l in lines if not l.startswith(("N,", "#"))]
    assert len(body) == 6
    assert all(float(l.split(",")[2]) <= 1e-8 for l in body)


def test_cauchy_verify_resonant_exits_3(tmp_path, capsys):
    assert run(tmp_path, "cauchy-verify", "--lambda", "3.0", "--sizes", "4") == 3
    assert "witness" in capsys.readouterr().err


def test_synth_output(tmp_path):
    assert run(tmp_path, "synth", "--lambda", "0.5", "--trunc", "2") == 0
    doc = json.loads((tmp_path / "synthesis.json").read_text())
    assert doc["k"] == pytest.approx([-7 / 12, -5 / 12])
    assert doc["tb_residual_max"] <= 1e-9
    assert run(tmp_path, "synth", "--kind", "skew_adjoint", "--lambda", "1.0",
               "--trunc", "1", "--out", "sk.json") == 0
    sk = json.loads((tmp_path / "sk.json").read_text())
    assert sk["k"] == [-1.0]          # zero imaginary part serializes as a plain float


def test_synth_near_resonance_exits_3(tmp_path):
    assert run(tmp_path, "synth", "--lambda", "3.0", "--trunc", "8") == 3


def test_synth_gain_overflow_exits_3(tmp_path, capsys):
    # the gain products overflow float64: a mathematical failure, not usage
    assert run(tmp_path, "synth", "--lambda", "300000.5", "--trunc", "300") == 3
    assert "gain k[1] = -inf" in capsys.readouterr().err


@pytest.mark.parametrize("command,out", [("synth", "synthesis.json"),
                                         ("simulate", "trajectory.csv")])
def test_tb_bound_exits_3(tmp_path, capsys, command, out):
    # the certified damping near N = 64 at truncation 48 leaves TB=B at 4.43e-8
    assert run(tmp_path, command, "--n-base", "64", "--trunc", "48") == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: TB=B residual 4\.43\d*e-08 exceeds the acceptance bound 1e-09\n",
                        err), err
    assert not (tmp_path / out).exists()


def test_cost_sweep_skips_points_past_tb_bound(tmp_path):
    assert run(tmp_path, "cost-sweep", "--n-range", "63:65", "--trunc", "48") == 0
    lines = (tmp_path / "cost_sweep.csv").read_text().splitlines()
    assert lines[0] == "N,lambda,dist,norm_T,norm_Tinv,k_sup,k_inf,F_inf,fit_exponent"
    assert len(lines) == 4
    for base, line in zip((63, 64, 65), lines[1:]):
        assert re.fullmatch(rf"# skipped N={base}: CertificationError: TB=B residual \S+e-08 "
                            r"exceeds the acceptance bound 1e-09", line), line


def test_cost_sweep_csv(tmp_path):
    assert run(tmp_path, "cost-sweep", "--n-range", "1:4", "--trunc", "48") == 0
    lines = (tmp_path / "cost_sweep.csv").read_text().splitlines()
    assert len([l for l in lines if not l.startswith(("N,", "#"))]) == 4
    assert lines[-1].startswith("# fit:")


def test_cost_sweep_empty_range_exits_2(tmp_path):
    assert run(tmp_path, "cost-sweep", "--n-range", "5:4", "--trunc", "48") == 2


def test_simulate_trajectory(tmp_path):
    assert run(tmp_path, "simulate", "--lambda", "0.5", "--trunc", "16",
               "--y0-modes", "1", "--t-max", "2", "--t-steps", "4") == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,norm_H,norm_s,u"
    assert len(lines) == 6


@pytest.mark.parametrize("y0,reason", [
    ("[null, 1, 0, 0]", "finite"),
    ("[1e400, 0, 0, 0]", "finite"),
    ('{"a": 1}', "JSON list of 4 numbers"),
    ("[[1], [2], [3], [4]]", "shape (4, 1)"),
], ids=["null-entry", "overflow", "object", "column"])
def test_simulate_bad_y0_exits_2(tmp_path, capsys, y0, reason):
    (tmp_path / "y0.json").write_text(y0)
    assert run(tmp_path, "simulate", "--lambda", "0.5", "--trunc", "4", "--y0-file", "y0.json") == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_simulate_negative_t_steps_exits_2(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--lambda", "0.5", "--trunc", "4", "--t-steps", "-1") == 2
    assert "t_steps" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_null_control_outputs(tmp_path):
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "3",
               "--trunc", "48") == 0
    lines = (tmp_path / "null_control_trajectory.csv").read_text().splitlines()
    assert any(l.startswith("# final_ratio=") for l in lines)
    doc = json.loads((tmp_path / "null_control_manifest.json").read_text())
    assert [st["N"] for st in doc["stages"]] == [1, 2, 3]


def test_null_control_tb_bound_exits_3(tmp_path, capsys):
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "12",
               "--trunc", "48") == 3
    err = capsys.readouterr().err
    assert "stage 11" in err and "TB=B residual" in err
    assert not (tmp_path / "null_control_trajectory.csv").exists()


def test_null_control_zero_growth_constant_exits_3(tmp_path, capsys):
    # an explicit 0 is a bound of 0, not a request for the default 10
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "3", "--trunc", "48",
               "--growth-c-hat", "0", "--growth-C-hat", "0") == 3
    assert "beyond the certified factor 0.0" in capsys.readouterr().err


def test_null_control_bad_y0_exits_2(tmp_path):
    (tmp_path / "y0.json").write_text("[1.0, 2.0]")
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "2",
               "--trunc", "48", "--y0-file", "y0.json") == 2


@pytest.mark.parametrize("y0,reason", [
    (json.dumps([None] + [0.0] * 47), "finite"),
    ('{"a": 1}', "JSON list of 48 numbers"),
], ids=["null-entry", "object"])
def test_null_control_non_numeric_y0_exits_2(tmp_path, capsys, y0, reason):
    (tmp_path / "y0.json").write_text(y0)
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "2",
               "--trunc", "48", "--y0-file", "y0.json") == 2
    assert reason in capsys.readouterr().err


def test_null_control_zero_stages_exits_2(tmp_path):
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "0") == 2


def test_null_control_bad_sigma_exits_2(tmp_path):
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "2",
               "--sigma", "1.5") == 2


def test_config_file_with_flag_override(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"n_range": "1:3", "trunc": 40}))
    assert run(tmp_path, "cost-sweep", "--config", "cfg.json") == 0
    rows = [l for l in (tmp_path / "cost_sweep.csv").read_text().splitlines()
            if not l.startswith(("N,", "#"))]
    assert len(rows) == 3
    assert run(tmp_path, "cost-sweep", "--config", "cfg.json", "--n-range", "1:2",
               "--out", "o2.csv") == 0
    rows2 = [l for l in (tmp_path / "o2.csv").read_text().splitlines()
             if not l.startswith(("N,", "#"))]
    assert len(rows2) == 2


def test_unknown_config_key_exits_2(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"bogus": 1}))
    assert run(tmp_path, "cost-sweep", "--config", "cfg.json") == 2


@pytest.mark.parametrize("key,argv", [
    ("trunc", ("synth", "--lambda", "0.5")),
    ("growth_C_hat", ("null-control", "--scale", "32", "--stages", "2")),
])
def test_null_config_value_exits_2(tmp_path, capsys, key, argv):
    (tmp_path / "cfg.json").write_text(json.dumps({key: None}))
    assert run(tmp_path, *argv, "--config", "cfg.json") == 2
    assert f"must not be null: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("key,argv", [
    ("lam", ("synth", "--lambda", "inf", "--trunc", "8")),
    ("gamma", ("null-control", "--scale", "32", "--stages", "2", "--sigma", "inf",
               "--gamma", "inf")),
    ("t_max", ("simulate", "--lambda", "0.5", "--trunc", "8", "--t-max", "nan")),
    ("horizon", ("null-control", "--scale", "32", "--stages", "2", "--horizon", "inf")),
    ("alpha", ("cost-sweep", "--n-range", "1:2", "--trunc", "40", "--alpha", "inf")),
    ("scale", ("synth", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json")),
])
def test_non_finite_setting_exits_2(tmp_path, capsys, key, argv):
    (tmp_path / "cfg.json").write_text(json.dumps({"scale": -float("inf")}))   # -Infinity
    assert run(tmp_path, *argv) == 2
    assert f"setting {key} must be finite" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]     # nothing written


def test_null_config_value_for_unset_key(tmp_path):
    # a key whose default is itself unset may be null: synth falls back to --n-base
    (tmp_path / "cfg.json").write_text(json.dumps({"lam": None, "trunc": 4}))
    assert run(tmp_path, "synth", "--config", "cfg.json") == 0


def test_determinism_cost_sweep(tmp_path):
    run(tmp_path, "cost-sweep", "--n-range", "1:3", "--trunc", "40", "--out", "a.csv")
    run(tmp_path, "cost-sweep", "--n-range", "1:3", "--trunc", "40", "--out", "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_determinism_null_control_with_seed(tmp_path):
    for prefix in ("r1", "r2"):
        assert run(tmp_path, "null-control", "--scale", "32", "--stages", "3",
                   "--trunc", "48", "--y0-random", "--seed", "42",
                   "--out-prefix", prefix) == 0
    assert ((tmp_path / "r1_trajectory.csv").read_bytes()
            == (tmp_path / "r2_trajectory.csv").read_bytes())
    assert ((tmp_path / "r1_manifest.json").read_bytes()
            == (tmp_path / "r2_manifest.json").read_bytes())
    # a different seed changes the trajectory but not the schedule
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "3",
               "--trunc", "48", "--y0-random", "--seed", "7",
               "--out-prefix", "r3") == 0
    assert ((tmp_path / "r3_trajectory.csv").read_bytes()
            != (tmp_path / "r1_trajectory.csv").read_bytes())
    assert ((tmp_path / "r3_manifest.json").read_bytes()
            == (tmp_path / "r1_manifest.json").read_bytes())


def test_model_file_roundtrip_through_cli(tmp_path):
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 32)
    (tmp_path / "model.json").write_text(model_to_json(m))
    assert run(tmp_path, "synth", "--model", "model.json", "--lambda", "0.5",
               "--trunc", "8") == 0
    doc = json.loads((tmp_path / "synthesis.json").read_text())
    assert doc["N"] == 8
