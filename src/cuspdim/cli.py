"""Command-line surface: config resolution, dispatch, serialization.

Exit codes: 0 success, 1 validation error, 2 degenerate or inconclusive
result (Boundary verdicts, degenerate fits), 3 budget exceeded
(including truncated covers).  Reports echo the resolved config and the
constants block so no calibration drifts silently; with --no-timestamp
two runs of the same config produce byte-identical output.
"""

import argparse
import datetime
import functools
import json
import math
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import covering, flows, haar, lattices
from .errors import (
    BudgetExceeded,
    CuspDimError,
    DegenerateFit,
    EnumerationBudgetExceeded,
    ValidationError,
)

CONSTANT_DEFAULTS = {
    "K3": None,  # calibrated from the exact counts when not set
}


@functools.cache
def _version():
    """Package version and `git describe`, computed once per process."""
    try:
        v = metadata.version("cuspdim")
    except metadata.PackageNotFoundError:
        v = "0.0.0"
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        )
        if desc.returncode == 0:
            return f"cuspdim {v} ({desc.stdout.strip()})"
    except Exception:
        pass
    return f"cuspdim {v}"


def _round12(obj):
    """12 significant digits on every float in the structure."""
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise ValidationError("config", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ValidationError("config", f"invalid JSON: {e}")
    if not isinstance(obj, dict):
        raise ValidationError("config", "top level must be a JSON object")
    return obj


def _resolve(args, config, name, default, cast, check=None):
    """CLI flag > config file > default, with a field-named validation error."""
    cli_val = getattr(args, name.replace("-", "_"), None)
    raw = cli_val if cli_val is not None else config.get(name, default)
    if raw is None:
        return None
    try:
        val = cast(raw)
    except (TypeError, ValueError):
        raise ValidationError(name, f"cannot interpret {raw!r}")
    if check is not None:
        msg = check(val)
        if msg:
            raise ValidationError(name, msg)
    return val


def _weights_from_config(config):
    wspec = config.get("weights")
    if wspec is None:
        return lattices.EQUAL_WEIGHTS_2D
    try:
        return lattices.WeightVector(tuple(wspec["i"]), tuple(wspec["j"]))
    except (KeyError, TypeError):
        raise ValidationError("weights", 'expected {"i": [...], "j": [...]}')


def _basis_from_config(config, d):
    raw = config.get("basis")
    if raw is None:
        return lattices.make_lattice(np.eye(d))
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        side = int(round(math.sqrt(arr.size)))
        arr = arr.reshape(side, side)
    return lattices.make_lattice(arr)


def _matrix_A(args, config, w):
    """A as a w.m x w.n array: --A is a scalar (1 x 1); the config gives a number or a nested list."""
    A = _resolve(args, config, "A", None, lambda raw: np.array(raw, dtype=float))
    if A is None:
        raise ValidationError("A", "required")
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.shape != (w.m, w.n):
        raise ValidationError("A", f"expected a {w.m} x {w.n} nested list, got shape {A.shape}")
    return A


def _constants(config):
    block = dict(CONSTANT_DEFAULTS)
    for k, v in config.get("constants", {}).items():
        if k not in block:
            raise ValidationError(f"constants.{k}", "unknown constant")
        block[k] = v
    return block


def _positive(name):
    return lambda v: None if v > 0 else "must be positive"


def _in_unit(v):
    return None if 0 < v < 1 else "must be in (0, 1)"


def _window(args, config):
    """t-max and dt of an orbit grid whose e^t is finite and whose length is capped."""
    t_max = _resolve(args, config, "t-max", 15.0, float, _positive("t-max"))
    dt = _resolve(args, config, "dt", 0.01, float, _positive("dt"))
    if not t_max + dt <= flows.T_LIMIT:
        raise ValidationError("t-max", f"e^t overflows float64: need t-max + dt <= {flows.T_LIMIT:.6g}")
    if t_max / dt > flows.MAX_SAMPLES:
        raise ValidationError("t-max", f"t-max / dt exceeds {flows.MAX_SAMPLES} samples")
    return t_max, dt


# ---------------------------------------------------------------- commands


def _brute_minima(basis, w):
    """Euclid, sup and weighted minima over every |c_k| <= 50, origin excluded.

    The oracle of `delta --brute`: one slab per value of c_0, and the
    quasinorm written out here, so it shares no code with the enumerator
    it checks.  Boxes over 10^9 cells (d = 5) are refused.
    """
    d = basis.shape[0]
    bound, cap = 50, 10**9
    if (2 * bound + 1) ** d > cap:
        raise EnumerationBudgetExceeded(f"brute box has {(2 * bound + 1) ** d} cells, cap is {cap}")
    axis = np.arange(-bound, bound + 1)
    tail = np.stack([g.reshape(-1) for g in np.meshgrid(*[axis] * (d - 1), indexing="ij")], axis=1)
    # |v_k|^(1/(m i_k)) on the first m coordinates, |v_l|^(1/(n j_l)) on the rest
    expo = np.array([1.0 / (w.m * ik) for ik in w.i] + [1.0 / (w.n * jl) for jl in w.j])
    best = {"euclid": math.inf, "sup": math.inf, "weighted": math.inf}
    for c0 in axis:
        C = np.column_stack([np.full(len(tail), c0), tail])
        if c0 == 0:
            C = C[np.any(C != 0, axis=1)]
        A = np.abs(C @ basis.T)
        best["euclid"] = min(best["euclid"], float(np.sqrt(np.min(np.sum(A * A, axis=1)))))
        best["sup"] = min(best["sup"], float(np.min(np.max(A, axis=1))))
        best["weighted"] = min(best["weighted"], float(np.min(np.max(A**expo, axis=1))))
    return best


def cmd_delta(args, config, consts):
    w = _weights_from_config(config)
    lat = _basis_from_config(config, w.d)
    sv_e = lattices.shortest_vector(lat, "euclid")
    sv_s = lattices.shortest_vector(lat, "sup")
    sv_w = lattices.shortest_vector_weighted(lat, w)
    res = {
        "delta_euclid": sv_e.length,
        "delta_sup": sv_s.length,
        "delta_weighted": sv_w.length,
        "min_vec_euclid": {"coeffs": list(sv_e.coeffs), "vec": sv_e.vec.tolist()},
        "min_vec_sup": {"coeffs": list(sv_s.coeffs), "vec": sv_s.vec.tolist()},
        "min_vec_weighted": {"coeffs": list(sv_w.coeffs), "vec": sv_w.vec.tolist()},
    }
    if args.brute:
        best = _brute_minima(lat.basis, w)
        res["brute"] = best
        res["brute_agrees"] = {
            "euclid": abs(best["euclid"] - sv_e.length) <= 1e-12,
            "sup": abs(best["sup"] - sv_s.length) <= 1e-12,
            "weighted": abs(best["weighted"] - sv_w.length) <= 1e-12,
        }
    rows = [
        ("euclid", res["delta_euclid"]),
        ("sup", res["delta_sup"]),
        ("weighted", res["delta_weighted"]),
    ]
    return res, [], 0, ("norm,delta", [f"{n},{_fmt(v)}" for n, v in rows])


def cmd_bad(args, config, consts):
    w = _weights_from_config(config)
    A = _matrix_A(args, config, w)
    c = _resolve(args, config, "c", None, float, lambda v: None if 0 < v < 1 else "must be in (0, 1)")
    if c is None:
        raise ValidationError("c", "required")
    t_max, dt = _window(args, config)
    q_bound = _resolve(args, config, "q-bound", None, int, lambda v: None if v >= 1 else "must be >= 1")
    if q_bound is None:
        # the orbit on [0, t_max] dips below sqrt(c) exactly when some
        # q <= sqrt(c) e^{t_max} has q dist(qA, Z) < c: match the predicate to it
        q_bound = math.ceil(math.sqrt(c) * math.exp(t_max))
    profile = flows.orbit_profile(A, w, t_max, dt)
    verdict = flows.classify_from_profile(profile, c, w.d)
    c_direct = flows.direct_bad_constant(A, w, q_bound)
    res = {
        "classification": verdict.classification,
        "c_target": c,
        "c_direct": c_direct,
        "orbit_min": verdict.orbit_min,
        "argmin_t": profile.argmin_t,
        "margin": verdict.margin,
        "brute_predicate_bad": bool(c_direct >= c),
        "agree": bool((verdict.classification == "Bad") == (c_direct >= c))
        if verdict.classification != "Boundary"
        else None,
    }
    warns = []
    code = 0
    if verdict.classification == "Boundary":
        warns.append("Boundary verdict: evidence within the continuity margin of the threshold")
        code = 2
    head = "classification,c_target,c_direct,orbit_min,margin"
    row = f"{verdict.classification},{_fmt(c)},{_fmt(c_direct)},{_fmt(verdict.orbit_min)},{_fmt(verdict.margin)}"
    return res, warns, code, (head, [row])


def cmd_orbit(args, config, consts):
    w = _weights_from_config(config)
    A = _matrix_A(args, config, w)
    t_max, dt = _window(args, config)
    profile = flows.orbit_profile(A, w, t_max, dt)
    res = {
        "min_delta": profile.min_delta,
        "argmin_t": profile.argmin_t,
        "continuity_margin": profile.continuity_margin,
        "n_samples": len(profile.ts),
        "samples": [[float(t), float(d)] for t, d in zip(profile.ts, profile.deltas)],
    }
    rows = [f"{_fmt(float(t))},{_fmt(float(d))}" for t, d in zip(profile.ts, profile.deltas)]
    return res, [], 0, ("t,delta_w", rows)


def cmd_mu(args, config, consts):
    w = _weights_from_config(config)
    eps = _resolve(args, config, "eps", None, float, lambda v: None if v >= 0 else "must be nonnegative")
    if eps is None:
        raise ValidationError("eps", "required")
    n = _resolve(args, config, "n-samples", 10**5, int, _positive("n-samples"))
    est = haar.estimate_mu_U(eps, w, n, seed=args.seed_val, threads=args.threads_val)
    res = {
        "eps": est.eps,
        "n_samples": est.n_samples,
        "hits": est.hits,
        "mean": est.mean,
        "stderr": est.stderr,
        "prediction": est.prediction,
    }
    if est.prediction is not None and est.stderr > 0:
        res["z"] = (est.mean - est.prediction) / est.stderr
    warns = [est.warning] if est.warning else []
    head = "eps,mean,stderr,prediction"
    row = f"{_fmt(est.eps)},{_fmt(est.mean)},{_fmt(est.stderr)},{_fmt(est.prediction) if est.prediction is not None else ''}"
    return res, warns, 0, (head, [row])


def cmd_nondiv(args, config, consts):
    w = _weights_from_config(config)
    lat = _basis_from_config(config, w.d)
    t = _resolve(args, config, "t", 4.0, float, lambda v: None if v >= 0 else "must be nonnegative")
    n = _resolve(args, config, "n-samples", 10**5, int, _positive("n-samples"))
    grid_raw = getattr(args, "eps_grid", None) or config.get("eps-grid", "0.02,0.04,0.08,0.16")
    try:
        grid = [float(v) for v in str(grid_raw).split(",")]
    except ValueError:
        raise ValidationError("eps-grid", f"cannot parse {grid_raw!r}")
    fit = haar.nondivergence_profile(lat, w, t, grid, n, seed=args.seed_val, threads=args.threads_val)
    half = (fit.slope_ci[1] - fit.slope_ci[0]) / 2.0
    res = {
        "t": t,
        "eps_grid": fit.eps_grid,
        "fractions": fit.fractions,
        "slope": fit.slope,
        "slope_ci": list(fit.slope_ci),
        "slope_ok": bool(fit.slope >= 1.0 - half),
    }
    rows = [
        f"{_fmt(e)},{_fmt(f)},{_fmt(math.sqrt(max(f * (1 - f), 0.0) / n))}"
        for e, f in zip(fit.eps_grid, fit.fractions)
    ]
    return res, [], 0, ("eps,fraction,stderr", rows)


def _cover_params(args, config):
    c = _resolve(args, config, "c", 0.25, float, _in_unit)
    r = _resolve(args, config, "r", 0.5, float, _positive("r"))
    t = _resolve(args, config, "t", 1.5, float, _positive("t"))
    k_max = _resolve(args, config, "k-max", 6, int, lambda v: None if v >= 1 else "must be >= 1")
    budget = _resolve(args, config, "budget", covering.BOX_BUDGET, int, _positive("budget"))
    return c, r, t, k_max, budget


def cmd_cover(args, config, consts):
    w = _weights_from_config(config)
    lat = _basis_from_config(config, w.d)
    c, r, t, k_max, budget = _cover_params(args, config)
    cover = covering.survivor_cover(lat, w, c, r, t, k_max, budget=budget)
    tess = covering.tessellation_new(w.m * w.n, r)
    sweep_t = [0.5 * i for i in range(1, 9)]
    K3 = consts["K3"] if consts["K3"] is not None else covering.calibrate_K3(tess, w, sweep_t)
    sweep = [
        {
            "t": tv,
            "count": covering.count_S_rt(tess, w, tv),
            "bound": covering.lemma61_bound(tess, w, tv, K3),
        }
        for tv in sweep_t
    ]
    res = {
        "eps": cover.eps,
        "safety": cover.safety,
        "truncated": cover.truncated,
        "total_boxes": cover.total_boxes,
        "levels": [
            {"k": lv.k, "count": lv.count, "box_size": 2.0 * float(np.max(lv.half_sides))}
            for lv in cover
        ],
        "K3": K3,
        "count_bound_sweep": sweep,
    }
    warns = ["cover truncated at the box budget"] if cover.truncated else []
    rows = [
        f"{lv.k},{_fmt(2.0 * float(np.max(lv.half_sides)))},{lv.count}" for lv in cover
    ]
    return res, warns, 3 if cover.truncated else 0, ("level,box_size,count", rows)


def cmd_dim(args, config, consts):
    synth = config.get("synthetic")
    if synth is not None:
        counts = synth.get("counts")
        sizes = synth.get("sizes")
        if counts is None or sizes is None or len(counts) != len(sizes):
            raise ValidationError("synthetic", "needs matching counts and sizes arrays")
        fit = covering.box_dimension_fit(counts, sizes, include_transient=True)
        cover = None
    else:
        w = _weights_from_config(config)
        lat = _basis_from_config(config, w.d)
        c, r, t, k_max, budget = _cover_params(args, config)
        cover = covering.survivor_cover(lat, w, c, r, t, k_max, budget=budget)
        fit = covering.box_dimension_fit(cover)
    res = {
        "levels_used": fit.levels_used,
        "log_counts": fit.log_counts,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
    }
    warns = []
    code = 0
    if cover is not None and cover.truncated:
        warns.append("cover truncated at the box budget")
        code = 3
    if args.oracle:
        N = _resolve(args, config, "oracle-n", 4, int, lambda v: None if v >= 1 else "must be >= 1")
        depth = _resolve(args, config, "oracle-depth", 10, int, lambda v: None if v >= 4 else "must be >= 4")
        oracle = covering.cf_digit_oracle(N, depth)
        res["oracle"] = {"N": N, "depth": depth, "estimate": oracle}
        res["oracle_gap"] = abs(fit.slope - oracle)
        res["oracle_within_005"] = bool(abs(fit.slope - oracle) <= 0.05)
    head = "slope,intercept,r2"
    row = f"{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.r2)}"
    return res, warns, code, (head, [row])


def cmd_oracle_cf(args, config, consts):
    N = _resolve(args, config, "n-digit", None, int, lambda v: None if v >= 1 else "must be >= 1")
    if N is None:
        raise ValidationError("n-digit", "required")
    depth = _resolve(args, config, "depth", 12, int, lambda v: None if v >= 4 else "must be >= 4")
    est = covering.cf_digit_oracle(N, depth)
    prev = covering.cf_digit_oracle(N, depth - 1) if depth > 4 else None
    res = {"N": N, "depth": depth, "estimate": est}
    if prev is not None:
        res["estimate_prev_depth"] = prev
        res["depth_drift"] = abs(est - prev)
    head = "N,depth,estimate"
    return res, [], 0, (head, [f"{N},{depth},{_fmt(est)}"])


COMMANDS = {
    "delta": cmd_delta,
    "bad": cmd_bad,
    "orbit": cmd_orbit,
    "mu": cmd_mu,
    "nondiv": cmd_nondiv,
    "cover": cmd_cover,
    "dim": cmd_dim,
    "oracle-cf": cmd_oracle_cf,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", default=None, help="64-bit unsigned master seed")
    common.add_argument("--threads", default=None, help="worker count (results independent of it)")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--format", default=None, choices=["json", "csv"], dest="format_")
    common.add_argument("--no-timestamp", action="store_true")
    p = argparse.ArgumentParser(prog="cuspdim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    sp = {}
    for name in COMMANDS:
        sp[name] = sub.add_parser(name, parents=[common])
    for flag, names in [
        ("--A", ["bad", "orbit"]),
        ("--c", ["bad", "cover", "dim"]),
        ("--t-max", ["bad", "orbit"]),
        ("--dt", ["bad", "orbit"]),
        ("--q-bound", ["bad"]),
        ("--eps", ["mu"]),
        ("--n-samples", ["mu", "nondiv"]),
        ("--t", ["nondiv", "cover", "dim"]),
        ("--eps-grid", ["nondiv"]),
        ("--r", ["cover", "dim"]),
        ("--k-max", ["cover", "dim"]),
        ("--budget", ["cover", "dim"]),
        ("--n-digit", ["oracle-cf"]),
        ("--depth", ["oracle-cf"]),
        ("--oracle-n", ["dim"]),
        ("--oracle-depth", ["dim"]),
    ]:
        for name in names:
            sp[name].add_argument(flag, default=None)
    sp["delta"].add_argument("--brute", action="store_true")
    sp["dim"].add_argument("--oracle", action="store_true")
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        config = _load_config(args.config)
        seed = _resolve(args, config, "seed", 0, int, lambda v: None if 0 <= v < 2**64 else "must be a 64-bit unsigned integer")
        threads = _resolve(args, config, "threads", 1, int, _positive("threads"))
        args.seed_val = seed
        args.threads_val = threads
        consts = _constants(config)
        fmt = args.format_ or config.get("format", "json")
        res, warns, code, (csv_head, csv_rows) = COMMANDS[args.command](args, config, consts)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DegenerateFit as e:
        print(f"degenerate: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except CuspDimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if fmt == "csv":
        text = csv_head + "\n" + "\n".join(csv_rows) + "\n"
    else:
        report = {
            "command": args.command,
            "version": _version(),
            "config": {
                "seed": seed,
                "threads": threads,
                **{k: v for k, v in config.items() if k != "constants"},
            },
            "constants": consts,
            "results": res,
            "warnings": warns,
        }
        if not args.no_timestamp:
            report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
            report["wall_time_s"] = time.monotonic() - t0
        text = json.dumps(_round12(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
