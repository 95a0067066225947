import json
import math
from pathlib import Path

import numpy as np
import pytest

from eig_mlmc.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run_estimate,
    run_rate_study,
)


def minimal(**extra):
    base = {"model": "linear", "estimator": "mlmc", "eps": [0.01], "seed": 1}
    base.update(extra)
    return json.dumps(base)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_defaults_applied():
    cfg = parse_config(minimal())
    assert cfg.omega == 0.25
    assert cfg.l0 == 2
    assert cfg.n_star == 1000
    assert cfg.m0 == 1
    assert cfg.is_enabled is True
    assert cfg.diagnostics_levels == 8
    assert cfg.diagnostics_samples == 20000


def test_syntax_error_reports_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{not json}")


def test_negative_eps_names_key():
    for eps in ([-0.01], [float("inf")]):  # json reads Infinity
        with pytest.raises(ConfigError, match="eps"):
            parse_config(minimal(eps=eps))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="accuracy"):
        parse_config(minimal(accuracy=0.1))


def test_unknown_model_param_rejected():
    with pytest.raises(ConfigError, match="dose"):
        parse_config(minimal(model_params={"dose": 1.0}))  # pk key on linear model


def test_eps_sorted_descending():
    cfg = parse_config(minimal(eps=[0.005, 0.02, 0.01]))
    assert cfg.eps == (0.02, 0.01, 0.005)


def test_reference_linear_config_fields():
    params = {
        "A": [[1, 2], [2, 3], [3, 4]],
        "mu_theta": [1, 0],
        "Sigma_theta": [[2, -1], [-1, 2]],
        "Sigma_eps": [[0.1, -0.05, 0], [-0.05, 0.1, -0.05], [0, -0.05, 0.1]],
        "N_e": 1,
    }
    cfg = parse_config(minimal(model_params=params, eps=[0.005, 0.02], seed=77, omega=0.3))
    assert cfg == RunConfig(model="linear", estimator="mlmc", eps=(0.02, 0.005), seed=77,
                            model_params=params, omega=0.3)


def test_pk_config_builds_model():
    cfg = parse_config(minimal(model="pk", model_params={"scheme": "geometric"}))
    model = cfg.build_model()
    assert model.forward.out_dim == 15
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(minimal(model="pk", model_params={"scheme": "log"}))


# ---------------------------------------------------------------------------
# Rate study output
# ---------------------------------------------------------------------------


def test_rate_study_constant_map_zero_columns(tmp_path):
    cfg = parse_config(minimal(
        model_params={"A": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        is_enabled=False,
        output_dir=str(tmp_path),
        diagnostics_levels=3,
        diagnostics_samples=50,
    ))
    paths = run_rate_study(cfg)
    rows = Path(tmp_path, "levels.csv").read_text().strip().splitlines()
    assert rows[0] == "level,mean_P,var_P,mean_Z,var_Z,kurt_Z,cost"
    assert len(rows) == 1 + 4
    for line in rows[1:]:
        parts = line.split(",")
        assert float(parts[3]) == 0.0  # mean_Z
        assert float(parts[4]) == 0.0  # var_Z
    summary = json.loads(Path(tmp_path, "rate_summary.json").read_text())
    assert math.isnan(summary["alpha_hat"])
    assert {p.name for p in paths} == {"levels.csv", "rate_summary.json"}


def test_rate_study_row_count_and_summary(tmp_path):
    cfg = parse_config(minimal(
        output_dir=str(tmp_path), diagnostics_levels=4, diagnostics_samples=3000,
    ))
    run_rate_study(cfg)
    rows = Path(tmp_path, "levels.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 5
    summary = json.loads(Path(tmp_path, "rate_summary.json").read_text())
    assert 0.5 <= summary["alpha_hat"] <= 1.5
    assert 1.0 <= summary["beta_hat"] <= 2.5


# ---------------------------------------------------------------------------
# Estimate output
# ---------------------------------------------------------------------------


def test_estimate_files_and_row_counts(tmp_path):
    cfg = parse_config(minimal(eps=[0.05, 0.02], output_dir=str(tmp_path)))
    run_estimate(cfg)
    runs = Path(tmp_path, "runs.csv").read_text().strip().splitlines()
    assert runs[0] == "eps,estimate,total_cost,L,alpha_hat,beta_hat,nmc_model_cost"
    assert len(runs) == 3
    alloc = Path(tmp_path, "allocation.csv").read_text().strip().splitlines()
    assert alloc[0] == "eps,level,N_level,var_level,cost_level"
    # one allocation row per level per eps, levels 0..L for that run
    for line in runs[1:]:
        eps, est, cost, top = line.split(",")[:4]
        level_rows = [r for r in alloc[1:] if r.startswith(eps + ",")]
        assert len(level_rows) == int(top) + 1
        assert abs(float(est) - 4.4574) < 0.2
    assert not list(Path(tmp_path).glob("*.tmp*"))


def test_estimate_nmc_mode(tmp_path):
    cfg = parse_config(minimal(
        model_params={"A": [[1.0]], "mu_theta": [0.0], "Sigma_theta": [[1.0]], "Sigma_eps": [[1.0]]},
        estimator="nmc",
        eps=[0.05],
        output_dir=str(tmp_path),
    ))
    run_estimate(cfg)
    runs = Path(tmp_path, "runs.csv").read_text().strip().splitlines()
    assert len(runs) == 2
    est = float(runs[1].split(",")[1])
    assert abs(est - 0.5 * math.log(2.0)) <= 0.05
    alloc = Path(tmp_path, "allocation.csv").read_text().strip().splitlines()
    assert len(alloc) == 2


@pytest.mark.parametrize("estimator", ["mlmc", "nmc"])
def test_estimate_no_information_model(tmp_path, capsys, estimator):
    # Y does not depend on theta: every level value is 0, the decay rates
    # cannot be fitted and var(P_L) is 0.
    cfgfile = write_cfg(tmp_path, minimal(
        model_params={"A": [[0.0, 0.0]] * 3}, estimator=estimator, eps=[0.05],
        is_enabled=False, output_dir=str(tmp_path / "out"),
    ))
    assert main(["--config", cfgfile]) == 0
    lines = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["estimate"] == "0.0"
    assert row["alpha_hat"] == "nan"
    assert row["nmc_model_cost"] == "0.0"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI entry point and exit codes
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text, name="cfg.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_main_success_and_seed_override(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfgfile = write_cfg(tmp_path, minimal(eps=[0.05]))
    assert main(["--config", cfgfile, "--output-dir", str(out1), "--seed", "11"]) == 0
    assert main(["--config", cfgfile, "--output-dir", str(out2), "--seed", "12"]) == 0
    a = (out1 / "runs.csv").read_text()
    b = (out2 / "runs.csv").read_text()
    assert a != b  # seed override took effect
    capsys.readouterr()


def test_main_config_error_exit_2(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path, minimal(eps=[0.0]))
    assert main(["--config", cfgfile]) == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("value, argv", [
    (None, []),
    ("", []),
    (3, []),
    ("out", ["--output-dir", ""]),
], ids=["null", "empty", "number", "override-empty"])
def test_main_output_dir_not_a_string_exit_2(tmp_path, monkeypatch, capsys, value, argv):
    monkeypatch.chdir(tmp_path)
    cfgfile = write_cfg(tmp_path, minimal(eps=[0.05], output_dir=value))
    assert main(["--config", cfgfile] + argv) == 2
    assert "invalid value for 'output_dir'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_main_missing_config_exit_4(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "none.json")]) == 4
    capsys.readouterr()


def test_main_unwritable_output_exit_4(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path, minimal(eps=[0.05], output_dir="/dev/null/x"))
    assert main(["--config", cfgfile]) == 4
    capsys.readouterr()


def test_main_nonconvergence_exit_3_with_trace(tmp_path, capsys):
    cfgfile = write_cfg(
        tmp_path,
        minimal(eps=[0.02], L0=1, L_max=1, N_star=200, output_dir=str(tmp_path / "out")),
    )
    assert main(["--config", cfgfile]) == 3
    trace = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert isinstance(trace, list) and trace
    capsys.readouterr()


def test_byte_identical_across_thread_counts(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path, minimal(
        eps=[0.05, 0.02],
        diagnostics_levels=3,
        diagnostics_samples=2000,
    ))
    outs = {}
    for mode in ("estimate", "rate-study"):
        for threads in (1, 8):
            out = tmp_path / f"{mode}-{threads}"
            assert main([
                "--config", cfgfile, "--mode", mode,
                "--output-dir", str(out), "--threads", str(threads),
            ]) == 0
            outs[(mode, threads)] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
    assert outs[("estimate", 1)] == outs[("estimate", 8)]
    assert outs[("rate-study", 1)] == outs[("rate-study", 8)]
    capsys.readouterr()


@pytest.mark.parametrize("extra, argv", [
    ({"L0": "two"}, []),
    ({"omega": None}, []),
    ({"diagnostics_samples": 2.9}, []),
    ({"N_star": True}, []),
    ({"seed": True}, []),
    ({}, ["--seed", "-3"]),
], ids=["L0-string", "omega-null", "samples-fraction", "N_star-bool", "seed-bool", "seed-override-negative"])
def test_main_malformed_number_exit_2(tmp_path, capsys, extra, argv):
    cfgfile = write_cfg(tmp_path, minimal(eps=[0.05], output_dir=str(tmp_path / "out"), **extra))
    assert main(["--config", cfgfile] + argv) == 2
    assert "invalid value for" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, params", [
    ("linear", {"N_e": "two"}),
    ("linear", {"N_e": 2.5}),
    ("linear", {"A": [[1, 2]]}),
    ("linear", {"A": [[1, 2], [3]]}),
    ("linear", {"Sigma_theta": [[1, 2], [2, 1]]}),
    ("linear", {"Sigma_eps": [[0.1, 0.05, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]}),
    ("pk", {"J": 2.5}),
    ("pk", {"schedule": [3, 1]}),
    ("pk", {"dose": -1}),
    ("pk", {"noise_var": "0.01"}),
], ids=["N_e-string", "N_e-fraction", "A-shape", "A-ragged", "Sigma_theta-indefinite",
        "Sigma_eps-asymmetric", "J-fraction", "schedule-decreasing", "dose-negative", "noise_var-string"])
def test_main_malformed_model_params_exit_2(tmp_path, capsys, model, params):
    cfgfile = write_cfg(tmp_path, minimal(model=model, model_params=params, eps=[0.05],
                                          output_dir=str(tmp_path / "out")))
    assert main(["--config", cfgfile]) == 2
    assert "invalid value for" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
