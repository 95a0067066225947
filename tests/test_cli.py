import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from eig_mlmc import RandomStream, cli, estimate_rates, sample_level_values
from eig_mlmc.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run_estimate,
    run_rate_study,
)
from eig_mlmc.estimators import stats_from_values


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
    assert RunConfig(model="linear", estimator="mlmc", eps=(0.005, 0.02, 0.01), seed=1) == cfg


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


@pytest.mark.parametrize("extra, key", [
    ({"model": "lineer"}, "model"),
    ({"estimator": "MLMC"}, "estimator"),
    ({"l0": 4, "l_max": 2}, "L_max"),
], ids=["model", "estimator", "l_max-below-l0"])
def test_run_config_in_code_is_checked(extra, key):
    # A config built in code runs the checks of a JSON config, and the error
    # names the JSON key.
    fields = {"model": "linear", "estimator": "mlmc", "eps": (0.01,), "seed": 1, **extra}
    with pytest.raises(ConfigError, match=f"invalid value for {key!r}"):
        RunConfig(**fields)


def test_replace_reruns_the_checks():
    cfg = parse_config(minimal())
    with pytest.raises(ConfigError, match="invalid value for 'seed'"):
        dataclasses.replace(cfg, seed=-1)
    with pytest.raises(ConfigError, match="invalid value for 'output_dir'"):
        dataclasses.replace(cfg, output_dir="")


def test_model_params_converted_once_per_config(monkeypatch):
    calls = []
    convert = cli._model_spec
    monkeypatch.setattr(cli, "_model_spec", lambda *args: calls.append(args) or convert(*args))
    cfg = parse_config(minimal(model="pk", model_params={"scheme": "even", "J": 4}))
    assert len(calls) == 1
    cfg.build_model()
    cfg.build_model()
    assert len(calls) == 1


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
    summary = strict_json(Path(tmp_path, "rate_summary.json").read_text())
    assert summary["alpha_hat"] is None  # nan, written as null
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


@pytest.mark.parametrize("is_enabled", [True, False])
def test_rate_study_z_columns_are_the_level_values(tmp_path, is_enabled):
    # One draw per level gives both variables: the Z columns and the fitted
    # rates are those of sample_level_values on the same seed, bit for bit,
    # and at level 0 the P columns repeat the Z columns.
    cfg = parse_config(minimal(
        model_params={"N_e": 3}, is_enabled=is_enabled, output_dir=str(tmp_path),
        diagnostics_levels=3, diagnostics_samples=400,
    ))
    run_rate_study(cfg)
    lines = Path(tmp_path, "levels.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    model, est = cfg.build_model(), cfg.estimator_config()
    means, variances = [], []
    for level, row in enumerate(rows):
        zs = stats_from_values(sample_level_values(model, est, level, 0, 400, RandomStream(cfg.seed)))
        assert [row["mean_Z"], row["var_Z"], row["kurt_Z"]] == [repr(zs.mean), repr(zs.variance), repr(zs.kurtosis)]
        if level >= 1:
            means.append(zs.mean)
            variances.append(zs.variance)
    summary = strict_json(Path(tmp_path, "rate_summary.json").read_text())
    assert (summary["alpha_hat"], summary["beta_hat"]) == estimate_rates(means, variances)
    assert (rows[0]["mean_P"], rows[0]["var_P"]) == (rows[0]["mean_Z"], rows[0]["var_Z"])


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


def test_rate_study_no_information_model_writes_strict_json(tmp_path, capsys):
    # The decay rates cannot be fitted, and rate_summary.json writes the nan
    # rates as null: NaN is not a JSON token.
    cfgfile = write_cfg(tmp_path, minimal(
        model_params={"A": [[0.0, 0.0]] * 3}, is_enabled=False, diagnostics_levels=3,
        diagnostics_samples=200, output_dir=str(tmp_path / "out"),
    ))
    assert main(["--config", cfgfile, "--mode", "rate-study"]) == 0
    summary = strict_json((tmp_path / "out" / "rate_summary.json").read_text())
    assert summary["alpha_hat"] is None
    assert summary["beta_hat"] is None
    assert summary["levels"] == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI entry point and exit codes
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text, name="cfg.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not define."""
    def refuse(token):
        raise ValueError(f"not a JSON token: {token}")
    return json.loads(text, parse_constant=refuse)


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
    trace = strict_json((tmp_path / "out" / "trace.json").read_text())
    assert isinstance(trace, list) and trace
    # one correction level gives no decay-rate fit: nan, written as null
    assert all(rec["alpha_hat"] is None for rec in trace)
    capsys.readouterr()


def test_main_allocation_overflow_exit_3_with_trace(tmp_path, capsys):
    # eps = 1e-200 passes validation, but eps^2 underflows and the first
    # round's sample counts do not fit an integer: exit 3 and an empty trace.
    cfgfile = write_cfg(tmp_path, minimal(eps=[1e-200], N_star=100, output_dir=str(tmp_path / "out")))
    assert main(["--config", cfgfile]) == 3
    assert strict_json((tmp_path / "out" / "trace.json").read_text()) == []
    assert "64-bit integer" in capsys.readouterr().err


def test_main_inner_underflow_exit_3_without_trace(tmp_path, capsys):
    # A dose this large passes validation, but without importance sampling
    # every inner weight of the first outer sample underflows: a one-line
    # error and exit 3.
    cfgfile = write_cfg(tmp_path, minimal(
        model="pk", model_params={"dose": 1e160}, is_enabled=False, diagnostics_levels=1,
        diagnostics_samples=10, output_dir=str(tmp_path / "out"),
    ))
    assert main(["--config", cfgfile, "--mode", "rate-study"]) == 3
    err = capsys.readouterr().err
    assert err == "error: all inner log-weights are -inf for outer sample 0\n"
    assert not (tmp_path / "out" / "trace.json").exists()


@pytest.mark.parametrize("mode", ["estimate", "rate-study"])
def test_main_overflowing_moments_are_nan(tmp_path, capsys, recwarn, mode):
    # Without importance sampling and with noise_var 1e-300 the level values
    # are of order 1e300 and their squares leave the float range.  Those
    # moments are nan, never an OverflowError or a 0: the estimate stops at
    # the allocation check (exit 3), the rate study writes them.
    cfgfile = write_cfg(tmp_path, minimal(
        model="pk", model_params={"noise_var": 1e-300}, is_enabled=False, diagnostics_levels=2,
        diagnostics_samples=200, output_dir=str(tmp_path / "out"),
    ))
    code = main(["--config", cfgfile, "--mode", mode])
    err = capsys.readouterr().err
    assert not recwarn.list
    if mode == "estimate":
        assert code == 3
        assert "no sample allocation in round 0" in err
    else:
        assert code == 0
        lines = (tmp_path / "out" / "levels.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [r["var_Z"] for r in rows] == ["nan"] * 3
        assert all(r["kurt_Z"] == "nan" for r in rows)
        strict_json((tmp_path / "out" / "rate_summary.json").read_text())


def test_main_nmc_tiny_eps_exit_3_with_trace(tmp_path, capsys):
    # eps = 1e-200: no level up to L_max passes the nested pilot's bias
    # test, and the run stops before any pilot above level 4.
    cfgfile = write_cfg(tmp_path, minimal(
        estimator="nmc", eps=[1e-200], L_max=4, output_dir=str(tmp_path / "out"),
    ))
    assert main(["--config", cfgfile]) == 3
    assert strict_json((tmp_path / "out" / "trace.json").read_text()) == []
    err = capsys.readouterr().err
    assert err.startswith("error: nested pilot: bias test failing up to the level cap 4")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("eps, code", [(0.2, 0), (0.05, 3)])
def test_main_nmc_respects_l_max(tmp_path, capsys, eps, code):
    # With L_max = 2 the nested run is at level 2 or does not run: the bias
    # test passes there at eps 0.2 and fails at eps 0.05.
    out = tmp_path / "out"
    cfgfile = write_cfg(tmp_path, minimal(estimator="nmc", eps=[eps], L_max=2, output_dir=str(out)))
    assert main(["--config", cfgfile]) == code
    if code == 0:
        lines = (out / "runs.csv").read_text().splitlines()
        assert dict(zip(lines[0].split(","), lines[1].split(",")))["L"] == "2"
    else:
        assert not (out / "runs.csv").exists()
        assert "level cap 2" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("model, integral, whole", [
    ("linear", {"N_e": 2.0}, {"N_e": 2}),
    ("pk", {"J": 4.0, "scheme": "beta"}, {"J": 4, "scheme": "beta"}),
], ids=["N_e", "J"])
def test_integral_float_model_params_run_as_integers(tmp_path, capsys, model, integral, whole):
    files = []
    for name, params in (("float", integral), ("int", whole)):
        out = tmp_path / name
        cfgfile = write_cfg(tmp_path, minimal(
            model=model, model_params=params, diagnostics_levels=2, diagnostics_samples=200,
        ), name=f"{name}.json")
        assert main(["--config", cfgfile, "--mode", "rate-study", "--output-dir", str(out)]) == 0
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert files[0] == files[1]
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
    ({"N_star": 1}, []),
    ({"seed": 2 ** 64}, []),
    ({}, ["--seed", str(2 ** 64)]),
], ids=["L0-string", "omega-null", "samples-fraction", "N_star-bool", "seed-bool", "seed-override-negative",
        "N_star-one", "seed-2**64", "seed-override-2**64"])
def test_main_malformed_number_exit_2(tmp_path, capsys, extra, argv):
    cfgfile = write_cfg(tmp_path, minimal(eps=[0.05], output_dir=str(tmp_path / "out"), **extra))
    assert main(["--config", cfgfile] + argv) == 2
    assert "invalid value for" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, extra", [
    ("linear", {"eps": ["BIG"]}),
    ("linear", {"model_params": {"A": [["BIG", 0.0], [0.0, 1.0], [1.0, 1.0]]}}),
    ("pk", {"model_params": {"dose": "BIG"}}),
    ("pk", {"model_params": {"noise_var": "BIG"}}),
    ("linear", {"M0": "BIG"}),
    ("linear", {"model_params": {"N_e": "BIG"}}),
    ("pk", {"model_params": {"J": "BIG"}}),
    ("linear", {"diagnostics_samples": "BIG"}),
], ids=["eps", "A", "dose", "noise_var", "M0", "N_e", "J", "diagnostics_samples"])
def test_main_integer_beyond_float_range_exit_2(tmp_path, capsys, model, extra):
    # JSON reads 1 followed by 400 zeros as a Python int that no float holds
    # and no numpy index reaches
    key = next(iter(extra))
    if key == "model_params":
        key = next(iter(extra[key]))
    text = minimal(**{"model": model, "eps": [0.05], "output_dir": str(tmp_path / "out"), **extra})
    cfgfile = write_cfg(tmp_path, text.replace('"BIG"', "1" + "0" * 400))
    assert main(["--config", cfgfile]) == 2
    assert f"invalid value for {key!r}" in capsys.readouterr().err
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
    ("pk", {"schedule": []}),
    ("pk", {"noise_var": 0}),
    ("pk", {"dose": "1e400"}),
    ("pk", {"noise_var": 1e-320}),
    ("linear", {"Sigma_eps": (1e-320 * np.eye(3)).tolist()}),
], ids=["N_e-string", "N_e-fraction", "A-shape", "A-ragged", "Sigma_theta-indefinite",
        "Sigma_eps-asymmetric", "J-fraction", "schedule-decreasing", "dose-negative", "noise_var-string",
        "schedule-empty", "noise_var-zero", "dose-overflow", "noise_var-precision-overflow",
        "Sigma_eps-precision-overflow"])
def test_main_malformed_model_params_exit_2(tmp_path, capsys, model, params):
    # a JSON number beyond the float range reads as inf: write it unquoted
    text = minimal(model=model, model_params=params, eps=[0.05], output_dir=str(tmp_path / "out"))
    cfgfile = write_cfg(tmp_path, text.replace('"1e400"', "1e400"))
    assert main(["--config", cfgfile]) == 2
    assert "invalid value for" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
