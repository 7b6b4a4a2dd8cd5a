import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from backstep import cli, transform
from backstep.cli import main
from backstep.spectrum import Kind, make_spectrum, make_tabulated, model_to_json
from backstep.transform import unit_gaussian


def run(tmp_path, *argv):
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def test_spectrum_check(tmp_path):
    # a law model stores the n_check modes that the report checks
    assert run(tmp_path, "spectrum-check", "--alpha", "2", "--n-check", "300") == 0
    doc = json.loads((tmp_path / "gap_report.json").read_text())
    assert doc["passed"] is True and doc["n_checked"] == 300


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


@pytest.mark.parametrize("key", ["kind", "alpha", "n_max", "b", "eigenvalues"])
def test_model_document_names_a_missing_field(tmp_path, capsys, key):
    doc = json.loads(_law_doc())
    del doc[key]
    (tmp_path / "m.json").write_text(json.dumps(doc))
    assert run(tmp_path, "synth", "--model", "m.json", "--lambda", "0.5", "--trunc", "4") == 2
    assert capsys.readouterr().err == f"error: model field {key!r} is missing\n"


@pytest.mark.parametrize("command", [("spectrum-check",), ("synth", "--lambda", "0.5", "--trunc", "8")])
def test_tabulated_alpha_past_the_gap_normalizers_exits_2(tmp_path, capsys, command):
    # levels n^2 with alpha 1000: the gap normalizers n**(alpha - 1) overflow,
    # which made every gap constant 0 (three RuntimeWarnings, then exit 3)
    doc = json.loads(model_to_json(make_tabulated(
        Kind.SELF_ADJOINT, 2.0, [-float(n * n) for n in range(1, 200)])))
    doc["alpha"] = 1000.0
    (tmp_path / "m.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *command, "--model", "m.json") == 2
    assert capsys.readouterr().err == ("error: alpha 1000.0 is too large for 199 modes: the gap "
                                       "normalizers n**(alpha - 1) and |k - n|**alpha overflow "
                                       "float64\n")
    assert [f.name for f in tmp_path.iterdir()] == ["m.json"]


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
               "--sizes", "2,4,8,16,32,64") == 0
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
    # the certified damping near N = 64 at truncation 48 leaves TB=B at 3.90e-8
    assert run(tmp_path, command, "--n-base", "64", "--trunc", "48") == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: TB=B residual 3\.89\d*e-08 exceeds the acceptance bound 1e-09\n",
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


@pytest.mark.parametrize("kind", list(Kind))
def test_simulate_past_the_float_range_of_rate_times_t(tmp_path, kind):
    # (lambda_n - lambda) t overflows: the self-adjoint run warned of it, the
    # skew-adjoint one wrote nan rows, as e^{-lambda t} times a nan phase
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "simulate", "--kind", kind.value, "--lambda", "0.5", "--trunc", "8",
                   "--t-max", "1e308") == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    fields = [complex(f.replace("i", "j")) for row in rows for f in row.split(",")]
    assert len(rows) == 51 and all(np.isfinite(z) for z in fields)
    assert rows[-1] == "1e+308,0,0,0"


def test_certificates_do_not_depend_on_truncation(tmp_path):
    # the witness pair of N = 11's damping at alpha 1.5 lies past 8 modes:
    # its levels are the bits of the stored ones, so trunc 8 and 60 agree
    dists = []
    for trunc in ("8", "60"):
        assert run(tmp_path, "synth", "--alpha", "1.5", "--n-base", "11", "--trunc", trunc) == 0
        dists.append(json.loads((tmp_path / "synthesis.json").read_text())["dist"])
    assert dists == [0.04960585664684203] * 2


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_n_max_is_gone_from_every_command(tmp_path, capsys, command):
    # a law model stores the modes its command needs: neither a flag nor a
    # config key sets how many
    with pytest.raises(SystemExit) as exc:         # argparse's own usage error
        run(tmp_path, command, "--n-max", "60")
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-max 60" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"n_max": 60}))
    assert run(tmp_path, command, "--config", "cfg.json") == 2
    assert f"unknown config keys for {command}: ['n_max']" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]     # nothing written


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
    assert lines[-2].startswith("# final_ratio=") and lines[-1].startswith("# t_end=")
    doc = json.loads((tmp_path / "null_control_manifest.json").read_text())
    assert [st["N"] for st in doc["stages"]] == [1, 2, 3]


def test_null_control_tb_bound_exits_3(tmp_path, capsys):
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "12",
               "--trunc", "48") == 3
    err = capsys.readouterr().err
    assert "stage 11" in err and "TB=B residual" in err
    assert not (tmp_path / "null_control_trajectory.csv").exists()


# the certification frontier: each input's exit code and the guard that fires
# first, with its stage; the residual's digits are not pinned
_TB = r"TB=B residual \S+ exceeds the acceptance bound 1e-09"
_TT = r"T \. T\^-1 residual \S+ exceeds assembly tolerance"
_SCALE32 = ("--scale", "32", "--trunc", "48", "--stages", "12")
_SKEW = ("--kind", "skew_adjoint")
FRONTIER_INPUTS = [
    (("null-control",), rf"stage 4 \(lambda 64\.5\): {_TB}"),
    (("null-control", *_SKEW), rf"stage 4 \(lambda 64\.5\): {_TT}"),
    (("null-control", *_SCALE32), rf"stage 11 \(lambda \S+\): {_TB}"),
    (("null-control", *_SCALE32, *_SKEW), rf"stage 12 \(lambda \S+\): {_TT}"),
    (("synth", "--lambda", "50000.5", "--trunc", "150"),
     r"T \. T\^-1 residual inf: float64 overflow at lambda 50000\.5"),
    (("synth", "--lambda", "50000.5", "--trunc", "150", *_SKEW),
     r"T \. T\^-1 residual nan: float64 overflow at lambda 50000\.5"),
    (("synth", "--lambda", "20000.5", "--trunc", "150"), _TT),
    (("synth", "--lambda", "20000.5", "--trunc", "150", *_SKEW), _TT),
    (("synth", "--n-base", "64", "--trunc", "48"), _TB),
    (("synth", "--n-base", "64", "--trunc", "48", *_SKEW), _TT),
]


@pytest.mark.parametrize("argv,guard", FRONTIER_INPUTS,
                         ids=[" ".join(case[0]) for case in FRONTIER_INPUTS])
def test_frontier_inputs_keep_their_exit_code_and_first_guard(tmp_path, capsys, argv, guard):
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {guard}\n", err), err
    assert not any(tmp_path.iterdir())         # nothing written


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


@pytest.mark.parametrize("trunc", ["0", "-5"])
def test_null_control_truncation_below_one_exits_2(tmp_path, capsys, trunc):
    # as in synth, simulate and cost-sweep; the schedule would otherwise run
    # at stage_truncation's 4 ceil(lambda^(1/alpha)) modes
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "2",
               "--trunc", trunc) == 2
    assert f"truncation {trunc} below 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_null_control_bad_sigma_exits_2(tmp_path):
    assert run(tmp_path, "null-control", "--scale", "32", "--stages", "2",
               "--sigma", "1.5") == 2


@pytest.mark.parametrize("argv,reason", [
    (("--gamma", "1000"), "stages ** gamma + scale, the deepest stage's damping bound, "
                          "overflows float64 (stages 6, gamma 1000.0)"),
    (("--stages", "40", "--gamma", "300"), "overflows float64 (stages 40, gamma 300.0)"),
    (("--alpha", "0"), "alpha must exceed 1"),
    (("--scale", "-100", "--stages", "2"), "scale must be positive"),
], ids=["gamma-1000", "stages-40-gamma-300", "alpha-0", "negative-scale"])
def test_null_control_sizes_its_model_from_checked_settings(tmp_path, capsys, argv, reason):
    # the deepest stage's truncation is computed from alpha, scale, stages and
    # gamma before any model exists: it must not overflow, divide by zero or
    # take a root of a negative number
    assert run(tmp_path, "null-control", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("synth", "--lambda", "0.5"), ("cost-sweep", "--n-range", "1:1"),
                                  ("simulate", "--lambda", "0.5")])
def test_truncation_too_large_to_hold_exits_2(tmp_path, capsys, argv):
    # one 5,000,000 x 5,000,000 float64 block is 182 TiB, past a 128 TiB user
    # address space, so the allocation fails whatever the overcommit policy
    assert run(tmp_path, *argv, "--trunc", "5000000") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "TiB" in err
    assert list(tmp_path.iterdir()) == []


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
    ("s_weight", ("null-control", "--scale", "32", "--stages", "2")),
])
def test_null_config_value_exits_2(tmp_path, capsys, key, argv):
    (tmp_path / "cfg.json").write_text(json.dumps({key: None}))
    assert run(tmp_path, *argv, "--config", "cfg.json") == 2
    assert f"must not be null: ['{key}']" in capsys.readouterr().err


NEG_INF_SCALE = json.dumps({"scale": -float("inf")})      # -Infinity

BAD_SETTINGS = [
    ("lam", ("synth", "--lambda", "inf", "--trunc", "8"), NEG_INF_SCALE, "setting lam must be finite"),
    ("gamma", ("null-control", "--scale", "32", "--stages", "2", "--sigma", "inf", "--gamma", "inf"),
     NEG_INF_SCALE, "setting gamma must be finite"),
    ("t_max", ("simulate", "--lambda", "0.5", "--trunc", "8", "--t-max", "nan"), NEG_INF_SCALE,
     "setting t_max must be finite"),
    ("horizon", ("null-control", "--scale", "32", "--stages", "2", "--horizon", "inf"), NEG_INF_SCALE,
     "setting horizon must be finite"),
    ("alpha", ("cost-sweep", "--n-range", "1:2", "--trunc", "40", "--alpha", "inf"), NEG_INF_SCALE,
     "setting alpha must be finite"),
    ("scale", ("synth", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json"), NEG_INF_SCALE,
     "setting scale must be finite"),
    # a JSON integer past the float range is no finite number either
    ("gamma", ("null-control", "--scale", "32", "--stages", "2", "--config", "cfg.json"),
     '{"gamma": 1' + "0" * 400 + "}", "setting gamma must be finite, got inf"),
    # each value has its setting's type: these used to end in a traceback
    # (exit 1) or run as something else (true as lambda 1.0, "no" as a random
    # state, 3 as the range 3:3)
    ("alpha", ("synth", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json"), '{"alpha": "2"}',
     "setting alpha must be a number, got '2'"),
    ("alpha", ("null-control", "--config", "cfg.json"), '{"alpha": "2"}',
     "setting alpha must be a number, got '2'"),
    ("scale", ("cost-sweep", "--n-range", "1:2", "--trunc", "40", "--config", "cfg.json"),
     '{"scale": "1"}', "setting scale must be a number, got '1'"),
    ("scale", ("null-control", "--config", "cfg.json"), '{"scale": "1"}',
     "setting scale must be a number, got '1'"),
    ("sigma", ("null-control", "--scale", "32", "--stages", "2", "--config", "cfg.json"),
     '{"sigma": "1"}', "setting sigma must be a number, got '1'"),
    ("lam", ("synth", "--trunc", "8", "--config", "cfg.json"), '{"lam": true}',
     "setting lam must be a number, got True"),
    ("out", ("synth", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json"), '{"out": 5}',
     "setting out must be a string, got 5"),
    ("model", ("synth", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json"), '{"model": 5}',
     "setting model must be a string, got 5"),
    ("y0_file", ("simulate", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json"),
     '{"y0_file": 3}', "setting y0_file must be a string, got 3"),
    ("y0_random", ("simulate", "--lambda", "0.5", "--trunc", "8", "--config", "cfg.json"),
     '{"y0_random": "no"}', "setting y0_random must be true or false, got 'no'"),
    ("n_range", ("cost-sweep", "--trunc", "40", "--config", "cfg.json"), '{"n_range": 3}',
     "setting n_range must be a string, got 3"),
    ("sizes", ("cauchy-verify", "--config", "cfg.json"), '{"sizes": 4}',
     "setting sizes must be a string, got 4"),
    # a config document that is not an object: 5 and null used to end in a
    # traceback, "abc" to be read as the keys a, b and c
    ("config", ("synth", "--lambda", "0.5", "--config", "cfg.json"), "5",
     "config file cfg.json must hold a JSON object"),
    ("config", ("synth", "--lambda", "0.5", "--config", "cfg.json"), "null",
     "config file cfg.json must hold a JSON object"),
    ("config", ("synth", "--lambda", "0.5", "--config", "cfg.json"), '"abc"',
     "config file cfg.json must hold a JSON object"),
    ("config", ("null-control", "--config", "cfg.json"), "[1, 2]",
     "config file cfg.json must hold a JSON object"),
    # null-control's user growth constants are gone, so are their keys
    ("config", ("null-control", "--config", "cfg.json"), '{"growth_c_hat": 1, "growth_C_hat": 10}',
     "unknown config keys for null-control: ['growth_C_hat', 'growth_c_hat']"),
]


@pytest.mark.parametrize("key,argv,config,reason", BAD_SETTINGS,
                         ids=[f"{case[0]}-argv{i}" for i, case in enumerate(BAD_SETTINGS)])
def test_non_finite_setting_exits_2(tmp_path, capsys, key, argv, config, reason):
    # a non-finite or wrong-typed setting, in a flag or a config file, is a
    # usage error; so is a config document that is not a JSON object
    (tmp_path / "cfg.json").write_text(config)
    assert run(tmp_path, *argv) == 2
    assert reason in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]     # nothing written


# inputs at the ends of the float range, each with its exit code and a part of
# its one error line; m.json is a scale-32 power law of 200 modes
EXTREME_INPUTS = [
    # a law whose levels overflow float64: cauchy-verify passed on nan rows,
    # synth and simulate blamed a gain (exit 3), spectrum-check and cost-sweep
    # ended in a traceback
    (("cauchy-verify", "--alpha", "1000"), 2, "level 3 of the law 1.0 * n**1000.0 overflows"),
    (("synth", "--alpha", "1000"), 2, "level 3 of the law"),
    (("simulate", "--alpha", "1000"), 2, "level 3 of the law"),
    (("spectrum-check", "--scale", "1e308"), 2, "level 2 of the law 1e+308 * n**2.0"),
    (("spectrum-check", "--kind", "skew_adjoint", "--alpha", "1000"), 2, "level 3 of the law"),
    (("cost-sweep", "--alpha", "1e308", "--scale", "1e-8", "--n-range", "5", "--trunc", "2"), 2,
     "level 2 of the law"),
    # two finite stored levels, then an overflowing one from the law
    (("cauchy-verify", "--alpha", "1000", "--sizes=-3"), 2, "level 3 of the law"),
    # lambda^2 and the Lagrange products overflow: refused by cauchy-verify,
    # and by synth's gain check, with no warning from the products
    (("cauchy-verify", "--kind", "skew_adjoint", "--scale", "1e-300", "--lambda", "1e300",
      "--n-base", "5"), 3, "N=2: identity residual nan: float64 overflow"),
    (("synth", "--kind", "skew_adjoint", "--scale", "1e-300", "--lambda", "1e300", "--trunc", "4"),
     3, "gain k[1] = (nan+nanj): float64 overflow"),
    # counts past the index limit, which used to print every digit
    (("cauchy-verify", "--lambda", "1e300"), 2, "enumeration bound 2e+300 exceeds index limit"),
    (("cauchy-verify", "--scale", "1e-300"), 2, "candidate grid size 1e+300"),
    (("null-control", "--model", "m.json", "--gamma", "1000"), 2,
     "candidate grid size 3.3484644e+299"),
    # removed flags: a law's levels do not depend on how many the model stores
    (("null-control", "--growth-c-hat", "1"), 2, "unrecognized arguments: --growth-c-hat 1"),
    (("synth", "--n-max", "60"), 2, "unrecognized arguments: --n-max 60"),
    # s-norm weights |lambda_j|^s past the float range: these exited 0 on
    # nan and inf norms
    (("simulate", "--lambda", "0.5", "--trunc", "8", "--s-weight", "1e308"), 2,
     "s_weight 1e+308: the s-norm weights |lambda_j|^s overflow float64"),
    (("null-control", "--scale", "32", "--stages", "2", "--s-weight", "1e308"), 2,
     "s_weight 1e+308: the s-norm weights |lambda_j|^s overflow float64"),
    # a phase ell_n t past the float range at a modulus e^(-lambda t) of about
    # e^(-3): this wrote nan rows and exited 0
    (("simulate", "--kind", "skew_adjoint", "--scale", "1e300", "--lambda", "1e-6", "--trunc", "8",
      "--t-max", "1e7"), 2, "phase ell_8 t = 6.4e+301 * 3000000.0 overflows float64"),
]


@pytest.mark.parametrize("argv,code,reason", EXTREME_INPUTS,
                         ids=[" ".join(case[0]) for case in EXTREME_INPUTS])
def test_extreme_input_exits_with_one_error_line(tmp_path, capsys, argv, code, reason):
    (tmp_path / "m.json").write_text(model_to_json(make_spectrum(Kind.SELF_ADJOINT, 2.0, 32.0, 200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")         # no RuntimeWarning may escape either
        try:
            got = run(tmp_path, *argv)
        except SystemExit as exc:              # argparse's own usage error
            got = exc.code
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert got == code and len(errors) == 1, errors
    assert reason in errors[0] and len(errors[0]) <= 200, errors[0]
    assert [f.name for f in tmp_path.iterdir()] == ["m.json"]     # nothing written


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


def test_random_state_is_the_seeded_unit_gaussian():
    def draw(n, seed):
        return cli._initial_state({"y0_file": None, "y0_random": True, "seed": seed}, n)
    for n, seed in ((48, 0), (48, 42), (300, 2 ** 70)):
        y = draw(n, seed)
        assert y.tobytes() == unit_gaussian(n, seed).tobytes() == draw(n, seed).tobytes()
        assert y.shape == (n,) and abs(np.linalg.norm(y) - 1.0) <= 4e-16
        assert not np.array_equal(y, draw(n, seed + 1))
    # seed 0 is the Lanczos start vector's draw
    assert draw(48, 0).tobytes() == transform._start_vector(48).tobytes()


def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys):
    args = ("simulate", "--lambda", "0.5", "--trunc", "8", "--y0-random")
    assert run(tmp_path, *args, "--seed", "-1") == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:         # argparse's own usage error
        run(tmp_path, *args, "--seed", "3.5")
    assert exc.value.code == 2
    assert not (tmp_path / "trajectory.csv").exists()
    assert run(tmp_path, *args, "--seed", "3") == 0


@pytest.mark.parametrize("seed", [-1, 3.5, 3.0, True, False, "3", [3]])
def test_config_seed_must_be_a_non_negative_integer(tmp_path, capsys, seed):
    # random.Random would run -1 as 1, 3.5 as its hash and true as 1
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": seed, "y0_random": True}))
    for command in ("simulate", "null-control"):
        assert run(tmp_path, command, "--config", "cfg.json", "--trunc", "8") == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]     # nothing written


@pytest.mark.parametrize("key,argv", [
    ("trunc", ("synth", "--lambda", "0.5")),
    ("stages", ("null-control", "--scale", "32", "--trunc", "16")),
    ("n_base", ("synth", "--trunc", "8")),
    ("trunc", ("cost-sweep", "--n-range", "1:1")),
    ("n_check", ("spectrum-check",)),
    ("t_steps", ("simulate", "--lambda", "0.5", "--trunc", "8")),
])
@pytest.mark.parametrize("value", [8.7, 40.0, True])
def test_config_integer_settings_refuse_floats_and_bools(tmp_path, capsys, key, argv, value):
    # int() would run 8.7 as 8 and true as 1; the flags refuse 8.7 already
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert run(tmp_path, *argv, "--config", "cfg.json") == 2
    assert f"setting {key} must be an integer, got {value!r}" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]     # nothing written


def test_config_seed_matches_the_flag(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 3, "y0_random": True}))
    args = ("simulate", "--lambda", "0.5", "--trunc", "8")
    assert run(tmp_path, *args, "--config", "cfg.json", "--out", "a.csv") == 0
    assert run(tmp_path, *args, "--y0-random", "--seed", "3", "--out", "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_model_file_roundtrip_through_cli(tmp_path):
    m = make_spectrum(Kind.SELF_ADJOINT, 2.0, 1.0, 32)
    (tmp_path / "model.json").write_text(model_to_json(m))
    assert run(tmp_path, "synth", "--model", "model.json", "--lambda", "0.5",
               "--trunc", "8") == 0
    doc = json.loads((tmp_path / "synthesis.json").read_text())
    assert doc["N"] == 8


def test_parser_is_built_once_and_keeps_no_values(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    assert run(tmp_path, "synth", "--lambda", "0.5", "--trunc", "8", "--out", "a.json") == 0
    assert run(tmp_path, "synth", "--lambda", "0.5", "--out", "b.json") == 0
    assert json.loads((tmp_path / "a.json").read_text())["N"] == 8
    assert json.loads((tmp_path / "b.json").read_text())["N"] == 32     # the default again


MODEL_FLAGS = [("--model", "model", None), ("--kind", "kind", "self_adjoint"),
               ("--alpha", "alpha", 2.0), ("--scale", "scale", 1.0)]
STATE_FLAGS = [("--y0-file", "y0_file", None), ("--y0-random", "y0_random", False),
               ("--seed", "seed", 0), ("--s-weight", "s_weight", 0.0)]

# each subcommand's flags in --help order, with their dests and defaults;
# every subcommand also takes --config
CLI_SURFACE = {
    "spectrum-check": [*MODEL_FLAGS, ("--n-check", "n_check", None),
                       ("--out", "out", "gap_report.json")],
    "cauchy-verify": [*MODEL_FLAGS, ("--sizes", "sizes", "2,4,8,16,32,64"), ("--lambda", "lam", None),
                      ("--n-base", "n_base", 1), ("--out", "out", "cauchy_verify.csv")],
    "synth": [*MODEL_FLAGS, ("--lambda", "lam", None), ("--n-base", "n_base", 1),
              ("--trunc", "trunc", 32), ("--out", "out", "synthesis.json")],
    "cost-sweep": [*MODEL_FLAGS, ("--n-range", "n_range", "1:25"), ("--trunc", "trunc", 300),
                   ("--out", "out", "cost_sweep.csv")],
    "simulate": [*MODEL_FLAGS, ("--lambda", "lam", None), ("--n-base", "n_base", 1),
                 ("--trunc", "trunc", 32), ("--y0-modes", "y0_modes", "1"), *STATE_FLAGS,
                 ("--t-max", "t_max", 10.0), ("--t-steps", "t_steps", 50),
                 ("--out", "out", "trajectory.csv")],
    "null-control": [*MODEL_FLAGS, ("--gamma", "gamma", 3.0), ("--sigma", "sigma", 2.5),
                     ("--horizon", "horizon", 1.0), ("--stages", "stages", 6),
                     ("--trunc", "trunc", 48), ("--y0-modes", "y0_modes", "1,2"), *STATE_FLAGS,
                     ("--out-prefix", "out_prefix", "null_control")],
}


def test_cli_surface_keeps_every_flag_dest_and_default():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_SURFACE)
    for command, flags in CLI_SURFACE.items():
        actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
        assert ([(a.option_strings, a.dest) for a in actions]
                == [([flag], dest) for flag, dest, _ in flags] + [(["--config"], "config")])
        cfg = cli._merge(parser.parse_args([command]))
        assert [(k, type(v), v) for k, v in cfg.items()] == [
            (dest, type(default), default) for _, dest, default in flags]
        assert [a.dest for a in actions if a.nargs == 0] == (
            ["y0_random"] if "y0_random" in cfg else [])       # --y0-random takes no value
        assert [list(a.choices) for a in actions if a.choices] == [[k.value for k in Kind]]


TWO_SWEEPS = """
import resource, sys
from backstep import cli
argv = ["cost-sweep", "--n-range", "1:3", "--trunc", "300", "--out", sys.argv[1]]
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(not cli._glibc(), reason="the allocator policy is set through glibc's mallopt")
def test_second_sweep_in_one_process_reuses_its_memory(tmp_path):
    """Without the heap policy each sweep point faults its N x N temporaries in
    again (about 4,000 minor faults for these three points)."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TWO_SWEEPS, str(tmp_path / "s.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.splitlines()[-1].split())
    assert second < 100, (first, second)
