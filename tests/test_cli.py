"""CLI surface: exit codes, report shape, reproducibility, formats."""

import json
import math

import jsonschema
import numpy as np
import pytest

import cuspdim as cd
from cuspdim import cli

SCHEMA = json.load(open("docs/report.schema.json"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--no-timestamp")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_delta_report(capsys):
    code, rep = run_json(capsys, "delta")
    assert code == 0
    assert rep["results"]["delta_euclid"] == 1.0
    assert rep["results"]["min_vec_euclid"]["coeffs"] == [1, 0]
    assert rep["constants"] == {"K3": None}


def test_delta_brute_mode(capsys):
    code, rep = run_json(capsys, "delta", "--brute")
    assert code == 0
    assert all(rep["results"]["brute_agrees"].values())


def test_bad_verdicts(capsys):
    code, rep = run_json(capsys, "bad", "--A", "0.6180339887498949", "--c", "0.3")
    assert code == 0
    assert rep["results"]["classification"] == "Bad"
    assert abs(rep["results"]["c_direct"] - 0.381966011250) <= 1e-9
    code, rep = run_json(capsys, "bad", "--A", "0.5", "--c", "0.1")
    assert code == 0
    assert rep["results"]["classification"] == "NotBad"
    # the default q-bound, ceil(sqrt(c) e^{t_max}), matches the orbit window:
    # the t_max = 15 orbit dips via a denominator above 1e4
    A = "0.6369616873214543"
    code, rep = run_json(capsys, "bad", "--A", A, "--c", "0.05")
    assert code == 0
    assert rep["results"]["classification"] == "NotBad"
    assert rep["results"]["c_direct"] < 0.05
    assert rep["results"]["agree"] is True
    # an explicit q-bound is kept as given and misses that denominator
    code, rep = run_json(capsys, "bad", "--A", A, "--c", "0.05", "--q-bound", "10000")
    assert abs(rep["results"]["c_direct"] - 0.072364165896) <= 1e-9
    assert rep["results"]["agree"] is False


def test_bad_boundary_exit_2(capsys):
    # c placed at the squared orbit minimum lands inside the margin band
    code, rep = run_json(capsys, "bad", "--A", "0.6180339887498949", "--c", "0.3829")
    assert code == 2
    assert rep["results"]["classification"] == "Boundary"
    assert rep["warnings"]


def test_validation_exit_1_names_field(capsys):
    code = cli.main(["bad", "--A", "0.5", "--c", "abc"])
    err = capsys.readouterr().err
    assert code == 1 and "c" in err
    code = cli.main(["mu", "--eps", "-1"])
    err = capsys.readouterr().err
    assert code == 1 and "eps" in err
    code = cli.main(["bad", "--c", "0.1"])
    err = capsys.readouterr().err
    assert code == 1 and "A" in err
    code = cli.main(["orbit", "--A", "0.5", "--config", "/nonexistent.json"])
    err = capsys.readouterr().err
    assert code == 1 and "config" in err


@pytest.mark.parametrize("command", ["bad", "orbit"])
@pytest.mark.parametrize(
    "flags, field",
    [
        (["--A", "nan", "--t-max", "5"], "A"),
        (["--A", "inf", "--t-max", "5"], "A"),
        (["--A", "0.3", "--t-max", "800"], "t-max"),
        (["--A", "0.3", "--t-max", "20", "--dt", "0.0001"], "t-max"),
    ],
)
def test_orbit_window_and_A_validated(capsys, command, flags, field):
    extra = ["--c", "0.1"] if command == "bad" else []
    code = cli.main([command, *flags, *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err


def test_orbit_reaches_t30(capsys):
    code, rep = run_json(capsys, "orbit", "--A", "0.3", "--t-max", "30")
    assert code == 0
    deltas = [d for _, d in rep["results"]["samples"]]
    assert len(deltas) == 3001
    assert all(0.0 < d <= 1.0 for d in deltas)


_WEIGHTED = {"weights": {"i": [1.0], "j": [0.3, 0.7]}, "A": [[0.41, 0.77]]}


def test_weighted_orbit_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_WEIGHTED, "t-max": 9.0, "dt": 0.5}))
    code, rep = run_json(capsys, "orbit", "--config", str(cfg))
    assert code == 0
    prof = cd.orbit_profile(np.array([[0.41, 0.77]]), cd.WeightVector((1.0,), (0.3, 0.7)), 9.0, 0.5)
    assert rep["results"]["samples"] == [[float(f"{t:.12g}"), float(f"{d:.12g}")] for t, d in prof.samples]
    assert rep["results"]["min_delta"] == float(f"{prof.min_delta:.12g}")


@pytest.mark.parametrize("A", [[0.41, 0.77], [[0.41], [0.77]], 0.5, [[0.41, 0.77, 0.1]], [[0.41, "x"]]])
@pytest.mark.parametrize("command", ["bad", "orbit"])
def test_weighted_A_shape_checked(tmp_path, capsys, command, A):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_WEIGHTED, "A": A, "c": 0.05, "t-max": 2.0}))
    code = cli.main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: A:")


def test_weighted_bad_matches_direct_constant(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    A = [[math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]]
    cfg.write_text(json.dumps({**_WEIGHTED, "A": A, "c": 0.05, "t-max": 6.0, "q-bound": 60}))
    code, rep = run_json(capsys, "bad", "--config", str(cfg))
    assert code == 0 and rep["results"]["agree"] is True
    want = cd.direct_bad_constant(np.array(A), cd.WeightVector((1.0,), (0.3, 0.7)), 60)
    assert want > 0.0
    assert rep["results"]["c_direct"] == float(f"{want:.12g}")


def test_orbit_csv_header(capsys):
    code, out = run(capsys, "orbit", "--A", "0.5", "--t-max", "1", "--dt", "0.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,delta_w"
    assert len(lines) == 4


def test_mu_report(capsys):
    code, rep = run_json(capsys, "mu", "--eps", "0.05", "--n-samples", "20000")
    assert code == 0
    r = rep["results"]
    assert r["n_samples"] == 20000
    assert abs(r["prediction"] - 12 * 0.05**2 / math.pi**2) <= 1e-9
    assert abs(r["z"]) < 5.0


def test_nondiv_report(capsys):
    code, rep = run_json(capsys, "nondiv", "--t", "4", "--n-samples", "20000")
    assert code == 0
    assert rep["results"]["slope_ok"] is True


def test_nondiv_degenerate_exit_2(capsys):
    code = cli.main(
        ["nondiv", "--t", "0", "--eps-grid", "0.3,0.5,0.7", "--n-samples", "500"]
    )
    err = capsys.readouterr().err
    assert code == 2 and "degenerate" in err.lower()


def test_cover_default_emits_six_levels(capsys):
    code, rep = run_json(capsys, "cover")
    assert code == 0
    assert len(rep["results"]["levels"]) >= 6
    assert rep["results"]["truncated"] is False
    sweep = rep["results"]["count_bound_sweep"]
    assert all(row["bound"] >= row["count"] for row in sweep)


def test_cover_csv(capsys):
    code, out = run(capsys, "cover", "--t", "1.5", "--k-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,box_size,count"
    assert lines[1].startswith("0,")


def test_cover_budget_exit_3(capsys):
    code, rep = run_json(capsys, "cover", "--t", "2", "--k-max", "8", "--budget", "50000")
    assert code == 3
    assert rep["results"]["truncated"] is True


def test_cover_deep_cusp_exit_3(tmp_path, capsys):
    """Reduction coefficients past the exact-int64 range end in exit 3, not a traceback."""
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"basis": [[math.exp(-12.0), 0.0], [0.0, math.exp(12.0)]]}))
    code = cli.main(["cover", "--c", "0.1", "--r", "0.5", "--t", "1", "--k-max", "2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("budget exceeded:")
    assert captured.out == ""


def test_dim_synthetic_cantor(tmp_path, capsys):
    cfg = tmp_path / "cantor.json"
    cfg.write_text(
        json.dumps(
            {
                "synthetic": {
                    "counts": [2**k for k in range(1, 7)],
                    "sizes": [3.0**-k for k in range(1, 7)],
                }
            }
        )
    )
    code, rep = run_json(capsys, "dim", "--config", str(cfg))
    assert code == 0
    assert abs(rep["results"]["slope"] - math.log(2) / math.log(3)) <= 1e-9


def test_dim_degenerate_exit_2(tmp_path, capsys):
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps({"synthetic": {"counts": [2, 4], "sizes": [0.5, 0.25]}}))
    code = cli.main(["dim", "--config", str(cfg)])
    assert code == 2


def test_dim_oracle_comparison(capsys):
    code, rep = run_json(capsys, "dim", "--t", "2", "--k-max", "3", "--oracle")
    assert code == 0
    assert abs(rep["results"]["oracle"]["estimate"] - 0.7889) <= 0.003
    assert rep["results"]["oracle_gap"] >= 0.0


def test_oracle_cf_csv(capsys):
    code, out = run(capsys, "oracle-cf", "--n-digit", "4", "--depth", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,depth,estimate"
    assert lines[1].startswith("4,10,0.7889")


def test_oracle_cf_validation(capsys):
    code = cli.main(["oracle-cf", "--n-digit", "0"])
    assert code == 1
    code = cli.main(["oracle-cf", "--n-digit", "10", "--depth", "9"])
    assert code == 3  # budget


def test_reproducibility_byte_identical(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    base = ["mu", "--eps", "0.05", "--n-samples", "30000", "--no-timestamp"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.main(base + ["--threads", "4", "--out", str(c)]) == 0
    ra, rc = json.loads(a.read_text()), json.loads(c.read_text())
    assert ra["results"] == rc["results"]


def test_config_file_merge_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"A": 0.5, "c": 0.1, "constants": {"K3": 0.8}}))
    code, rep = run_json(capsys, "bad", "--config", str(cfg))
    assert code == 0 and rep["results"]["classification"] == "NotBad"
    assert rep["constants"]["K3"] == 0.8
    # CLI flag beats the config value
    code, rep = run_json(capsys, "bad", "--config", str(cfg), "--A", "0.6180339887498949", "--c", "0.3")
    assert rep["results"]["classification"] == "Bad"


def test_unknown_constant_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"A": 0.5, "c": 0.1, "constants": {"K9": 1.0}}))
    code = cli.main(["bad", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and "K9" in err


def test_timestamp_fields_present_without_flag(capsys):
    code = cli.main(["oracle-cf", "--n-digit", "2", "--depth", "6"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "timestamp" in rep and "wall_time_s" in rep
    jsonschema.validate(rep, SCHEMA)


def test_twelve_significant_digits(capsys):
    code, out = run(capsys, "oracle-cf", "--n-digit", "3", "--depth", "8", "--format", "csv")
    est = out.strip().splitlines()[1].split(",")[2]
    assert len(est.replace(".", "").lstrip("0")) <= 12
    assert abs(float(est) - 0.7056) <= 0.003
