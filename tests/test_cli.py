"""CLI surface: exit codes, report shape, reproducibility, formats."""

import gc
import inspect
import json
import math

import jsonschema
import numpy as np
import pytest

import cuspdim as cd
from cuspdim import cli, covering

with open("docs/report.schema.json") as f:
    SCHEMA = json.load(f)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--no-timestamp")
    report = json.loads(out)
    # one line of JSON with sorted keys, as json.dumps writes it without indent
    assert out == json.dumps(report, sort_keys=True) + "\n"
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_delta_report(capsys):
    code, rep = run_json(capsys, "delta")
    assert code == 0
    assert rep["results"]["delta_euclid"] == 1.0
    assert rep["results"]["min_vec_euclid"]["coeffs"] == [1, 0]
    assert "constants" not in rep


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


def test_weighted_bad_default_q_bound_is_the_window(tmp_path, capsys):
    """Without --q-bound, `bad` takes the smallest cube holding the window's box |q_l| <= (c^(n/d) e^{t_max})^{j_l}:
    q-bound 271 for (1; 0.3, 0.7) at c = 0.05 and t_max = 10."""
    cfg = tmp_path / "cfg.json"
    A = [[math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]]
    cfg.write_text(json.dumps({**_WEIGHTED, "A": A, "c": 0.05, "t-max": 10.0, "dt": 0.25}))
    code, rep = run_json(capsys, "bad", "--config", str(cfg))
    assert code == 2  # a Boundary verdict at this coarse dt
    want = cd.direct_bad_constant(np.array(A), cd.WeightVector((1.0,), (0.3, 0.7)), 271)
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


def test_version_falls_back_to_package_version(capsys, monkeypatch):
    """The report's version is `cuspdim.__version__`, its one source: the tree it runs from plays no part."""
    argv = ("oracle-cf", "--n-digit", "2", "--depth", "5")
    assert run_json(capsys, *argv)[1]["version"] == f"cuspdim {cd.__version__}"
    monkeypatch.setattr(cli, "__version__", "9.9.9")
    assert run_json(capsys, *argv)[1]["version"] == "cuspdim 9.9.9"


def test_ill_conditioned_basis_exit_3(tmp_path, capsys):
    """A det-1 basis past float64's condition limit exits 3 naming the cap, from `delta` on g_18 Z^2
    and from a weighted `orbit` that flows a sample that far; a singular basis still exits 1."""
    cases = [
        (["delta"], {"basis": [[math.exp(18), 0.0], [0.0, math.exp(-18)]]}),
        (["orbit", "--t-max", "21", "--dt", "0.5"], {"weights": {"i": [1.0], "j": [0.3, 0.7]}, "A": [[0.41, 0.77]]}),
    ]
    for argv, config in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main([*argv, "--config", str(cfg)])
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert out.err.startswith("budget exceeded: basis is too ill-conditioned for float64 enumeration: ")
    cfg.write_text(json.dumps({"basis": [[1.0, 1.0], [1.0, 1.0]]}))
    assert cli.main(["delta", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: basis: basis matrix is singular\n"


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


def test_cover_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(covering, "BOX_BUDGET", 50000)
    code, rep = run_json(capsys, "cover", "--t", "2", "--k-max", "8")
    assert code == 3
    assert rep["results"]["truncated"] is True


def test_cover_and_dim_past_int64_children(tmp_path, capsys):
    """At t = 30 a box has more than 2^64 children per axis: the cover stops at the box budget
    (exit 3, as at t = 22) and so does `dim`, left with too few levels to fit, with no traceback."""
    cfg = tmp_path / "w3.json"
    cfg.write_text(json.dumps({"weights": {"i": [1.0], "j": [0.3, 0.7]}}))
    for extra in (["--k-max", "2"], ["--config", str(cfg)]):
        code, rep = run_json(capsys, "cover", "--t", "30", *extra)
        assert code == 3
        assert rep["results"]["truncated"] is True and rep["warnings"] == ["cover truncated at the box budget"]
        assert [lv["k"] for lv in rep["results"]["levels"]] == [0]
    code = cli.main(["dim", "--t", "30", "--k-max", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("budget exceeded: ")


def test_dim_too_few_levels(capsys, monkeypatch):
    """Too few levels to fit exit 3 when the box budget truncated the cover, 2 when every box died."""
    monkeypatch.setattr(covering, "BOX_BUDGET", 1000)
    code = cli.main(["dim", "--t", "2", "--k-max", "8"])  # one level, then the budget
    assert code == 3
    assert capsys.readouterr().err == "budget exceeded: cover truncated at the box budget: 1 usable levels, need >= 3\n"
    monkeypatch.undo()
    code = cli.main(["dim", "--c", "0.99", "--t", "2", "--k-max", "4"])  # every box dies at level 1
    assert code == 2
    assert capsys.readouterr().err == "degenerate: 0 usable levels, need >= 3\n"


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


def test_oracle_cf_walks_the_cylinders_once(capsys, monkeypatch):
    """Both depths of `oracle-cf` come from one walk, with the roots of two separate oracle calls."""
    walks = []
    lengths = covering._cf_lengths
    monkeypatch.setattr(covering, "_cf_lengths", lambda *a: walks.append(a) or lengths(*a))
    code, rep = run_json(capsys, "oracle-cf", "--n-digit", "3", "--depth", "9")
    assert code == 0 and len(walks) == 1
    monkeypatch.undo()
    assert rep["results"]["estimate"] == float(f"{cd.cf_digit_oracle(3, 9):.12g}")
    assert rep["results"]["estimate_prev_depth"] == float(f"{cd.cf_digit_oracle(3, 8):.12g}")


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
    cfg.write_text(json.dumps({"A": 0.5, "c": 0.1}))
    code, rep = run_json(capsys, "bad", "--config", str(cfg))
    assert code == 0 and rep["results"]["classification"] == "NotBad"
    assert rep["config"] == {"seed": 0, "threads": 1, "A": 0.5, "c": 0.1}
    # CLI flag beats the config value
    code, rep = run_json(capsys, "bad", "--config", str(cfg), "--A", "0.6180339887498949", "--c", "0.3")
    assert rep["results"]["classification"] == "Bad"
    assert rep["config"] == {"seed": 0, "threads": 1, "A": 0.61803398875, "c": 0.3}  # 12 digits, as every float
    # the echo holds the values the run used, from a flag or the config, not the config file
    cfg.write_text(json.dumps({"seed": 3, "depth": 6}))
    code, rep = run_json(capsys, "oracle-cf", "--n-digit", "2", "--depth", "5", "--seed", "7", "--config", str(cfg))
    assert code == 0 and rep["results"]["depth"] == 5
    assert rep["config"] == {"depth": 5, "n-digit": 2, "seed": 7, "threads": 1}
    _, direct = run_json(capsys, "oracle-cf", "--n-digit", "2", "--depth", "5")
    assert rep["results"] == direct["results"]


def test_unknown_config_key_rejected(tmp_path, capsys, monkeypatch):
    """A key that no subcommand reads exits 1 naming it before any work, rather than being ignored."""
    monkeypatch.setattr(cli.flows, "orbit_profile", _refuse)
    cfg = tmp_path / "cfg.json"
    for config, field in [({"t_max": 2, "A": 0.41}, "t_max"), ({"A": 0.41, "out": "x.json"}, "out"), ({"k": 1, "j": 2}, "j")]:
        cfg.write_text(json.dumps(config))
        code = cli.main(["orbit", "--config", str(cfg)])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err.startswith(f"error: {field}: not a config key")
    # a key that another subcommand reads is allowed, and left out of the echo
    cfg.write_text(json.dumps({"n-digit": 2, "depth": 5, "k-max": 3, "weights": {"i": [1], "j": [1]}}))
    code, rep = run_json(capsys, "oracle-cf", "--config", str(cfg))
    assert code == 0 and rep["config"] == {"depth": 5, "n-digit": 2, "seed": 0, "threads": 1}


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
        ("delta", {"basis": [1, 0, 0, 1]}, "basis"),
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


NON_INTEGRAL_CASES = [
    ("bad", "q-bound", ["--A", "0.5", "--c", "0.1"]),
    ("mu", "n-samples", ["--eps", "0.1"]),
    ("cover", "k-max", []),
    ("cover", "budget", []),  # config form only: no subcommand reads the key, so it is refused by name
    ("oracle-cf", "n-digit", []),
    ("oracle-cf", "depth", ["--n-digit", "2"]),
    ("dim", "oracle-n", ["--oracle"]),
    ("dim", "oracle-depth", ["--oracle"]),
    ("oracle-cf", "seed", ["--n-digit", "2"]),
    ("oracle-cf", "threads", ["--n-digit", "2"]),
]


@pytest.mark.parametrize(
    "command, field, extra, form",
    # every case in both forms but one, under the ids that stacked parametrize decorators would give
    [
        pytest.param(command, field, extra, form, id=f"{command}-{field}-extra{i}-{form}")
        for form in ("flag", "config")
        for i, (command, field, extra) in enumerate(NON_INTEGRAL_CASES)
        if not (field == "budget" and form == "flag")
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
    """`constants` is not a config key: K3 comes only from `cover`'s closed form, so a block that
    sets it, or any other constant, exits 1 naming `constants` instead of being dropped silently."""
    for block in ({"K3": 0.8}, {"K3": None}, {"K9": 1.0}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"A": 0.5, "c": 0.1, "constants": block}))
        for command in ("bad", "cover"):
            code = cli.main([command, "--config", str(cfg)])
            out = capsys.readouterr()
            assert code == 1 and out.out == ""
            assert out.err.startswith("error: constants:")


@pytest.mark.parametrize(
    "argv",
    [
        ["delta"],
        ["bad", "--A", "0.5", "--c", "0.1", "--t-max", "5"],
        ["orbit", "--A", "0.5", "--t-max", "2"],
        ["mu", "--eps", "0.1", "--n-samples", "2000"],
        ["nondiv", "--n-samples", "4000"],
        ["cover", "--k-max", "2"],
        ["dim", "--k-max", "3"],
        ["oracle-cf", "--n-digit", "2", "--depth", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_report_holds_constants(capsys, argv):
    """No command reads or echoes a constants block; `cover` reports its proven K3 in its results."""
    assert "constants" not in SCHEMA["properties"] and "constants" not in SCHEMA["required"]
    assert not hasattr(cli, "CONSTANT_DEFAULTS")
    assert list(inspect.signature(cli.COMMANDS[argv[0]]).parameters) == ["args", "config"]
    code, rep = run_json(capsys, *argv)
    assert code == 0
    assert "constants" not in rep and "constants" not in rep["config"]
    if argv[0] == "cover":
        # (2^L - 1) side^L at L = 1 and the default r = 0.5
        assert rep["results"]["K3"] == 0.125
        assert all(row["bound"] >= row["count"] for row in rep["results"]["count_bound_sweep"])


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


def test_parser_shared_by_successive_calls(capsys):
    """One parser serves every call in a process: no flag or usage error carries over to the next call."""
    _, rep = run_json(capsys, "delta", "--brute")
    assert "brute" in rep["results"]
    _, rep = run_json(capsys, "delta")
    assert "brute" not in rep["results"] and "brute_agrees" not in rep["results"]
    assert cli.main(["cover", "--kmax", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")
    code, rep = run_json(capsys, "oracle-cf", "--n-digit", "2", "--depth", "5")
    assert code == 0 and rep["config"] == {"depth": 5, "n-digit": 2, "seed": 0, "threads": 1}


def test_round12_values():
    """12 significant digits on floats of any width; numpy integers become ints; the rest passes through."""
    got = cli._round12({"a": (0.1234567890123456, np.float64(2.0 / 3.0), (np.float32(0.1), np.int64(7))), "b": [True, None, -0.0]})
    assert got == {"a": [0.123456789012, 0.666666666667, [0.10000000149, 7]], "b": [True, None, -0.0]}
    assert type(got["a"][1]) is float and type(got["a"][2][0]) is float and type(got["a"][2][1]) is int
    assert got["b"][0] is True and math.copysign(1.0, got["b"][2]) == -1.0
    assert json.dumps(got, sort_keys=True) == '{"a": [0.123456789012, 0.666666666667, [0.10000000149, 7]], "b": [true, null, -0.0]}'


_W3 = cd.WeightVector((1.0,), (0.3, 0.7))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cli.main(["delta", "--no-timestamp"]),
        lambda: cli.main(["bad", "--A", "0.5", "--c", "0.1", "--t-max", "5", "--no-timestamp"]),
        lambda: cli.main(["orbit", "--A", "0.5", "--t-max", "2", "--no-timestamp"]),
        lambda: cli.main(["mu", "--eps", "0.1", "--n-samples", "2000", "--no-timestamp"]),
        lambda: cli.main(["nondiv", "--n-samples", "4000", "--no-timestamp"]),
        lambda: cli.main(["cover", "--k-max", "2", "--no-timestamp"]),
        lambda: cli.main(["dim", "--k-max", "3", "--oracle", "--oracle-n", "2", "--oracle-depth", "8", "--no-timestamp"]),
        lambda: cli.main(["oracle-cf", "--n-digit", "2", "--depth", "8", "--no-timestamp"]),
        lambda: cd.orbit_profile(np.array([[0.41, 0.77]]), _W3, 2.0, 0.25),
        lambda: cd.core_inclusion_check(0.3, 0.1, cd.EQUAL_WEIGHTS_2D, 200, 5, seed=0),
    ],
    ids=["delta", "bad", "orbit", "mu", "nondiv", "cover", "dim-oracle", "oracle-cf", "orbit_profile", "core_inclusion_check"],
)
def test_no_cyclic_garbage_holds_an_array(capsys, call):
    """A run leaves no reference cycle that holds an array, so its arrays are freed when it returns,
    not at the next full collection.  ndarrays are not tracked by gc, so the check looks at what the
    unreachable objects refer to (closure cells, dicts, frames)."""
    call()  # imports and caches first
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        holders = [repr(obj)[:80] for obj in gc.garbage if any(isinstance(r, np.ndarray) for r in gc.get_referents(obj))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert holders == []
