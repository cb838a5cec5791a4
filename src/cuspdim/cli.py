"""Command-line surface: config decoding, dispatch, serialization.

The CLI only decodes flags and config into typed values (`_resolve`);
the library function that consumes a value checks it, and each error
class carries its exit code (`cuspdim.errors`).  Reports echo the
resolved config and the constants block so no calibration drifts
silently; with --no-timestamp two runs of the same config produce
byte-identical output.
"""

import argparse
import dataclasses
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
from .errors import CuspDimError, EnumerationBudgetExceeded, ValidationError, require_int

CONSTANT_DEFAULTS = {
    "K3": None,  # calibrated from the exact counts when not set
}


@functools.cache
def _version():
    """Package version and `git describe`, computed once per process."""
    try:
        v = metadata.version("cuspdim")
    except metadata.PackageNotFoundError:  # run from the source tree
        from . import __version__ as v
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


REQUIRED = object()  # the default of a value that has none


def _resolve(args, config, name, default, cast):
    """CLI flag > config file > default; `cast` decodes a flag or config value, and
    its TypeError, ValueError or KeyError becomes a ValidationError naming the field."""
    raw = getattr(args, name.replace("-", "_"), None)
    if raw is None:
        raw = config.get(name)
    if raw is None:
        if default is REQUIRED:
            raise ValidationError(name, "required")
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError, KeyError):
        raise ValidationError(name, f"cannot interpret {raw!r}")


def _int(raw):
    """An int from an int, a decimal string or an integral float; anything else is a ValueError."""
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(raw)
    return int(raw)


def _real(raw):
    """A finite float; nan, inf and anything that is not a number is a ValueError."""
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(raw)
    return x


def _weights(args, config):
    """The config's weights {"i": [...], "j": [...]}, or the equal pair (1; 1)."""
    return _resolve(args, config, "weights", lattices.EQUAL_WEIGHTS_2D, lambda w: lattices.WeightVector(tuple(w["i"]), tuple(w["j"])))


def _basis(raw):
    """A nested square matrix or a flat row-major list."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        side = int(round(math.sqrt(arr.size)))
        arr = arr.reshape(side, side)
    return lattices.make_lattice(arr)


def _lattice(args, config, w):
    """The config's basis, or Z^d for the weights' d."""
    lat = _resolve(args, config, "basis", None, _basis)
    return lattices.make_lattice(np.eye(w.d)) if lat is None else lat


def _constants(raw):
    """The constants block: known names only, each a number or null (calibrated)."""
    block = dict(CONSTANT_DEFAULTS)
    for k, v in {**raw}.items():
        if k not in block:
            raise ValidationError(f"constants.{k}", "unknown constant")
        block[k] = None if v is None else _real(v)
    return block


def _format(raw):
    """"json" or "csv"; anything else is a ValueError."""
    if raw not in ("json", "csv"):
        raise ValueError(raw)
    return raw


def _synthetic(raw):
    """The counts and sizes of a `dim` fit given directly."""
    return [_int(n) for n in raw["counts"]], [_real(s) for s in raw["sizes"]]


def _orbit_args(args, config):
    """A, t-max and dt of `bad` and `orbit`; `flows.orbit_profile` checks them."""
    A = _resolve(args, config, "A", REQUIRED, lambda raw: np.asarray(raw, dtype=float))
    return A, _resolve(args, config, "t-max", 15.0, _real), _resolve(args, config, "dt", 0.01, _real)


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


def _fields(result):
    """A result dataclass as a report dict; its warning goes to the report's warnings."""
    return {k: v for k, v in dataclasses.asdict(result).items() if k != "warning"}


def cmd_delta(args, config, consts):
    w = _weights(args, config)
    lat = _lattice(args, config, w)
    svs = {
        "euclid": lattices.shortest_vector(lat, "euclid"),
        "sup": lattices.shortest_vector(lat, "sup"),
        "weighted": lattices.shortest_vector_weighted(lat, w),
    }
    res, rows = {}, []
    if args.brute:
        res["brute"], res["brute_agrees"] = _brute_minima(lat.basis, w), {}
    for name, sv in svs.items():
        res[f"delta_{name}"] = sv.length
        res[f"min_vec_{name}"] = {"coeffs": list(sv.coeffs), "vec": sv.vec.tolist()}
        rows.append(f"{name},{_fmt(sv.length)}")
        if args.brute:
            res["brute_agrees"][name] = abs(res["brute"][name] - sv.length) <= 1e-12
    return res, [], 0, ("norm,delta", rows)


def cmd_bad(args, config, consts):
    w = _weights(args, config)
    A, t_max, dt = _orbit_args(args, config)
    c = _resolve(args, config, "c", REQUIRED, _real)
    q_bound = _resolve(args, config, "q-bound", None, _int)
    # every check runs before the orbit, the costly part
    flows.cusp_radius(c, w.d)
    flows.time_grid(t_max, dt)
    if q_bound is None:
        # the orbit on [0, t_max] dips below sqrt(c) exactly when some
        # q <= sqrt(c) e^{t_max} has q dist(qA, Z) < c: match the predicate to it
        q_bound = math.ceil(math.sqrt(c) * math.exp(t_max))
    c_direct = flows.direct_bad_constant(A, w, q_bound)
    profile = flows.orbit_profile(A, w, t_max, dt)
    verdict = flows.classify_from_profile(profile, c, w.d)
    res = {
        **_fields(verdict),
        "c_target": c,
        "c_direct": c_direct,
        "argmin_t": profile.argmin_t,
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
    w = _weights(args, config)
    A, t_max, dt = _orbit_args(args, config)
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
    w = _weights(args, config)
    eps = _resolve(args, config, "eps", REQUIRED, _real)
    n = _resolve(args, config, "n-samples", 10**5, _int)
    est = haar.estimate_mu_U(eps, w, n, seed=args.seed_val, threads=args.threads_val)
    res = _fields(est)
    if est.prediction is not None and est.stderr > 0:
        res["z"] = (est.mean - est.prediction) / est.stderr
    warns = [est.warning] if est.warning else []
    head = "eps,mean,stderr,prediction"
    row = f"{_fmt(est.eps)},{_fmt(est.mean)},{_fmt(est.stderr)},{_fmt(est.prediction) if est.prediction is not None else ''}"
    return res, warns, 0, (head, [row])


def cmd_nondiv(args, config, consts):
    w = _weights(args, config)
    lat = _lattice(args, config, w)
    t = _resolve(args, config, "t", 4.0, _real)
    n = _resolve(args, config, "n-samples", 10**5, _int)
    grid = _resolve(args, config, "eps-grid", [0.02, 0.04, 0.08, 0.16], lambda raw: [_real(v) for v in (raw if isinstance(raw, list) else str(raw).split(","))])
    fit = haar.nondivergence_profile(lat, w, t, grid, n, seed=args.seed_val, threads=args.threads_val)
    half = (fit.slope_ci[1] - fit.slope_ci[0]) / 2.0
    res = {"t": t, **_fields(fit), "slope_ok": bool(fit.slope >= 1.0 - half)}
    rows = [
        f"{_fmt(e)},{_fmt(f)},{_fmt(math.sqrt(max(f * (1 - f), 0.0) / n))}"
        for e, f in zip(fit.eps_grid, fit.fractions)
    ]
    warns = [fit.warning] if fit.warning else []
    return res, warns, 0, ("eps,fraction,stderr", rows)


def _survivor_cover(args, config):
    """The weights, r and survivor cover of `cover` and `dim`; `covering.survivor_cover` checks the values."""
    w = _weights(args, config)
    lat = _lattice(args, config, w)
    c = _resolve(args, config, "c", 0.25, _real)
    r = _resolve(args, config, "r", 0.5, _real)
    t = _resolve(args, config, "t", 1.5, _real)
    k_max = _resolve(args, config, "k-max", 6, _int)
    budget = _resolve(args, config, "budget", covering.BOX_BUDGET, _int)
    return w, r, covering.survivor_cover(lat, w, c, r, t, k_max, budget=budget)


def cmd_cover(args, config, consts):
    w, r, cover = _survivor_cover(args, config)
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
        "levels": [{"k": lv.k, "count": lv.count, "box_size": lv.box_size} for lv in cover],
        "K3": K3,
        "count_bound_sweep": sweep,
    }
    warns = ["cover truncated at the box budget"] if cover.truncated else []
    rows = [f"{lv.k},{_fmt(lv.box_size)},{lv.count}" for lv in cover]
    return res, warns, 3 if cover.truncated else 0, ("level,box_size,count", rows)


def cmd_dim(args, config, consts):
    if args.oracle:
        # the oracle's budget check runs before any cover work
        N = _resolve(args, config, "oracle-n", 4, _int)
        depth = _resolve(args, config, "oracle-depth", 10, _int)
        oracle = covering.cf_digit_oracle(N, depth)
    synth = _resolve(args, config, "synthetic", None, _synthetic)
    cover = None
    if synth is not None:
        fit = covering.box_dimension_fit(*synth)
    else:
        _, _, cover = _survivor_cover(args, config)
        fit = covering.box_dimension_fit(cover)
    res = _fields(fit)
    warns = []
    code = 0
    if cover is not None and cover.truncated:
        warns.append("cover truncated at the box budget")
        code = 3
    if args.oracle:
        res["oracle"] = {"N": N, "depth": depth, "estimate": oracle}
        res["oracle_gap"] = abs(fit.slope - oracle)
        res["oracle_within_005"] = bool(abs(fit.slope - oracle) <= 0.05)
    head = "slope,intercept,r2"
    row = f"{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.r2)}"
    return res, warns, code, (head, [row])


def cmd_oracle_cf(args, config, consts):
    N = _resolve(args, config, "n-digit", REQUIRED, _int)
    depth = _resolve(args, config, "depth", 12, _int)
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as any invalid input does; argparse's own 2 is the degenerate-result code here."""

    def error(self, message):
        raise ValidationError("usage", message)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", default=None, help="64-bit unsigned master seed")
    common.add_argument("--threads", default=None, help="worker count (results independent of it)")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--format", default=None, help="json (default) or csv")
    common.add_argument("--no-timestamp", action="store_true")
    p = _Parser(prog="cuspdim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    sp = {name: sub.add_parser(name, parents=[common]) for name in COMMANDS}
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
    t0 = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args.config)
        seed = _resolve(args, config, "seed", 0, _int)
        if not 0 <= seed < 2**64:
            raise ValidationError("seed", "must be a 64-bit unsigned integer")
        threads = require_int("threads", _resolve(args, config, "threads", 1, _int))
        args.seed_val = seed
        args.threads_val = threads
        consts = _resolve(args, config, "constants", CONSTANT_DEFAULTS, _constants)
        fmt = _resolve(args, config, "format", "json", _format)
        res, warns, code, (csv_head, csv_rows) = COMMANDS[args.command](args, config, consts)
    except CuspDimError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code

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
