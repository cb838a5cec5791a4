"""CLI surface: exit codes, report shape, reproducibility, formats."""

import json
import math

import jsonschema
import numpy as np
import pytest

import cuspdim as cd
from cuspdim import cli

with open("docs/report.schema.json") as f:
    SCHEMA = json.load(f)


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
    code = cli.main(["mu", "--eps", "nan"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: eps:")
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
    assert rep["results"]["samples"] == [[float(f"{t:.12g}"), float(f"{d:.12g}")] for t, d in zip(prof.ts, prof.deltas)]
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


def _refuse(*args, **kwargs):
    raise AssertionError("the costly stage ran before the checks")


@pytest.mark.parametrize("c, code", [(1.5, 1), (0.05, 3)])
def test_weighted_bad_checks_before_the_orbit(tmp_path, capsys, monkeypatch, c, code):
    """c, the window and the default q-bound's budget are refused before the orbit is computed."""
    monkeypatch.setattr(cli.flows, "orbit_profile", _refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_WEIGHTED, "c": c}))
    assert cli.main(["bad", "--config", str(cfg)]) == code
    assert capsys.readouterr().out == ""


def test_dim_oracle_budget_before_the_cover(capsys, monkeypatch):
    monkeypatch.setattr(cli.covering, "survivor_cover", _refuse)
    assert cli.main(["dim", "--oracle", "--oracle-n", "10", "--oracle-depth", "9"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded:")


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


@pytest.mark.filterwarnings("error")
def test_nondiv_t_beyond_float_range_exit_1(capsys):
    """A t at which a squared norm of g_t u_h Z^2 can overflow is refused before any sampling."""
    code = cli.main(["nondiv", "--t", "800", "--n-samples", "100"])
    err = capsys.readouterr().err
    assert code == 1 and "t:" in err
    code = cli.main(["nondiv", "--t", "709", "--n-samples", "2000"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: t:")
    code, _ = run_json(capsys, "nondiv", "--t", "300", "--n-samples", "2000")
    assert code == 0


def test_nondiv_threads_invariant_and_warning(capsys):
    argv = ("nondiv", "--t", "5", "--n-samples", "30000", "--seed", "9")
    _, one = run_json(capsys, *argv, "--threads", "1")
    _, two = run_json(capsys, *argv, "--threads", "2")
    assert one["results"] == two["results"] and one["warnings"] == two["warnings"] == []
    code, deep = run_json(capsys, "nondiv", "--t", "20", "--n-samples", "2000")
    assert code == 0 and len(deep["warnings"]) == 1


def test_version_falls_back_to_package_version(monkeypatch):
    def missing(name):
        raise cli.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(cli.metadata, "version", missing)
    cli._version.cache_clear()
    try:
        assert cli._version().startswith(f"cuspdim {cd.__version__}")
    finally:
        cli._version.cache_clear()


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


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("delta", {"basis": [1, 2, 3]}, "basis"),
        ("delta", {"basis": [["x", 0], [0, 1]]}, "basis"),
        ("delta", {"basis": "zz"}, "basis"),
        ("delta", {"weights": {"i": "ab", "j": [1]}}, "weights"),
        ("dim", {"synthetic": [1]}, "synthetic"),
        ("dim", {"synthetic": {"counts": [2, 4, 8], "sizes": "abc"}}, "synthetic"),
        ("dim", {"synthetic": {"counts": [2, 4, 8], "sizes": [0.5, 0.0, 0.125]}}, "sizes"),
        ("dim", {"synthetic": {"counts": [2, 4, 8], "sizes": [0.5, -0.25, 0.125]}}, "sizes"),
        ("delta", {"constants": [1]}, "constants"),
    ],
)
def test_malformed_config_exit_1(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize(
    "command, field, extra",
    [
        ("bad", "q-bound", ["--A", "0.5", "--c", "0.1"]),
        ("mu", "n-samples", ["--eps", "0.1"]),
        ("cover", "k-max", []),
        ("cover", "budget", []),
        ("oracle-cf", "n-digit", []),
        ("oracle-cf", "depth", ["--n-digit", "2"]),
        ("dim", "oracle-n", ["--oracle"]),
        ("dim", "oracle-depth", ["--oracle"]),
        ("oracle-cf", "seed", ["--n-digit", "2"]),
        ("oracle-cf", "threads", ["--n-digit", "2"]),
    ],
)
def test_non_integral_int_exit_1(tmp_path, capsys, command, field, extra, form):
    """4.5 for an integer field exits 1, from a flag and from the config alike (never truncated to 4)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: 4.5} if form == "config" else {}))
    flag = [f"--{field}", "4.5"] if form == "flag" else []
    code = cli.main([command, *flag, *extra, "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_unknown_constant_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"A": 0.5, "c": 0.1, "constants": {"K9": 1.0}}))
    code = cli.main(["bad", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and "K9" in err


def test_usage_error_exit_1(capsys):
    """A misspelt flag exits 1 like any invalid input, not 2, the code of a degenerate result; --help exits 0."""
    code = cli.main(["cover", "--kmax", "3"])
    assert code == 1 and capsys.readouterr().err.startswith("error: usage:")
    with pytest.raises(SystemExit) as stop:
        cli.main(["cover", "--help"])
    assert stop.value.code == 0


@pytest.mark.parametrize("form", ["flag", "config"])
def test_format_decoded_from_flag_and_config(tmp_path, capsys, form):
    """--format and the config key `format` take json or csv; anything else exits 1 naming `format`."""
    for fmt, code_want in [("csv", 0), ("xml", 1)]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt} if form == "config" else {}))
        flag = ["--format", fmt] if form == "flag" else []
        code = cli.main(["oracle-cf", "--n-digit", "2", "--depth", "5", *flag, "--config", str(cfg)])
        out = capsys.readouterr()
        assert code == code_want
        if code_want:
            assert out.err.startswith("error: format:") and out.out == ""
        else:
            assert out.out.startswith("N,depth,estimate\n")


def test_eps_grid_config_list_matches_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps-grid": [0.02, 0.04, 0.08]}))
    argv = ("nondiv", "--n-samples", "20000")
    code, from_config = run_json(capsys, *argv, "--config", str(cfg))
    assert code == 0
    _, from_flag = run_json(capsys, *argv, "--eps-grid", "0.02,0.04,0.08")
    assert from_config["results"] == from_flag["results"]


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


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["cover", "--t", "inf"], {}, "t"),
        (["dim", "--t", "inf"], {}, "t"),
        (["cover", "--t", "1000"], {}, "t"),
        (["mu", "--eps", "inf"], {}, "eps"),
        (["nondiv", "--eps-grid", "nan,0.1,0.2,0.3"], {}, "eps-grid"),
        (["nondiv", "--eps-grid", "inf,0.1,0.2"], {}, "eps-grid"),
        (["cover"], {"constants": {"K3": math.nan}}, "constants"),
        (["cover"], {"t": math.inf}, "t"),
        (["mu"], {"eps": math.nan}, "eps"),
        (["nondiv"], {"eps-grid": [math.inf, 0.1, 0.2]}, "eps-grid"),
        (["bad", "--A", "0.5"], {"c": math.nan}, "c"),
        (["delta"], {"basis": [[1.0, math.nan], [0.0, 1.0]]}, "basis"),
    ],
)
def test_non_finite_reals_exit_1(tmp_path, capsys, argv, config, field):
    """The strings nan/inf and JSON's NaN/Infinity exit 1 naming the field: no traceback, no warning, no report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([*argv, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["mu", "--eps", "0.1", "--n-samples", "2000"], {"eps", "n_samples", "hits", "mean", "stderr", "prediction", "z"}),
        (["nondiv", "--n-samples", "20000"], {"t", "eps_grid", "fractions", "slope", "slope_ci", "slope_ok"}),
        (["dim", "--k-max", "5", "--t", "1.0", "--c", "0.1"], {"levels_used", "log_counts", "slope", "intercept", "r2"}),
        (
            ["delta", "--brute"],
            {"delta_euclid", "delta_sup", "delta_weighted", "min_vec_euclid", "min_vec_sup", "min_vec_weighted", "brute", "brute_agrees"},
        ),
    ],
    ids=["mu", "nondiv", "dim", "delta"],
)
def test_results_keys_pinned(capsys, argv, keys):
    """Reports are built from the result dataclasses: a new field cannot enter a report unnoticed."""
    code, rep = run_json(capsys, *argv)
    assert code == 0
    assert set(rep["results"]) == keys
