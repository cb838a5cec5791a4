"""Command-line surface: config decoding, dispatch, serialization.

The CLI only decodes flags and config into typed values (`_resolve`);
the library function that consumes a value checks it, and each error
class carries its exit code (`cuspdim.errors`).  Reports echo the
values the run read from flags and the config; a constant such as
`cover`'s K3 is derived in the run and reported with its results,
never read from the config.  With --no-timestamp two runs of the same
config produce byte-identical output.
"""

import argparse
import dataclasses
import datetime
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, covering, flows, haar, lattices
from .errors import BudgetExceeded, CuspDimError, DegenerateFit, ValidationError, require_int


_POW10 = np.array([float(10**k) for k in range(23)])  # 10^0 .. 10^22, each an exact double


def _round12_fast(x):
    """float(f"{v:.12g}") for each v of a float64 array in one pass, and the mask of the
    elements this pass leaves undecided (zero, inf, nan, |v| outside about [1e-11, 1e12),
    near-ties); the caller rounds those through the string.

    With k = 11 - floor(log10|v|) in [0, 22], 10^k is exact and p = |v| 10^k < 2^40 is
    within 2^-14 of the exact product P.  Where p lies in [1e11 + 1, 1e12 - 1), P has 12
    digits before the point whatever log10 rounded to; where p is also 1e-3 or more from
    a half-integer, rint(p) is P rounded to an integer, and rint(p) / 10^k, one division
    of two exact doubles, is the correctly rounded value of the 12-digit decimal.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):  # log10(0), and nan/inf (signalling nans too) below
        k = 11.0 - np.floor(np.log10(a))
        ok = (k >= 0) & (k <= 22)
        scale = _POW10[np.where(ok, k, 0).astype(np.intp)]
        p = a * scale
        n = np.rint(p)
        ok &= (p >= 1e11 + 1) & (p < 1e12 - 1) & (np.abs(np.abs(p - n) - 0.5) >= 1e-3)
        return np.copysign(n / scale, x), ~ok


def _round12(obj):
    """12 significant digits on every float in the structure; numpy scalars become Python numbers,
    and arrays nested lists, a float array rounded in one pass (`_round12_fast`)."""
    if isinstance(obj, float):  # first: floats are most of a report (np.float64 is one too)
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f":
            return _round12(obj.tolist())
        # as the scalar path does, a float32 or long double element is first a float64
        x = obj.astype(np.float64).ravel()
        out, undecided = _round12_fast(x)
        out[undecided] = [float(f"{v:.12g}") for v in x[undecided].tolist()]
        return out.reshape(obj.shape).tolist()
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
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
    unknown = sorted(set(obj) - CONFIG_KEYS)
    if unknown:
        raise ValidationError(unknown[0], "not a config key: no subcommand reads it")
    return obj


REQUIRED = object()  # the default of a value that has none


def _resolve(args, config, name, default, cast):
    """CLI flag > config file > default; `cast` decodes a flag or config value, and
    its TypeError, ValueError or KeyError becomes a ValidationError naming the field.

    A value read from a flag or the config goes to the report's config echo,
    `args.echo`: a config value as written, a flag's string as decoded.
    """
    flag = getattr(args, name.replace("-", "_"), None)
    raw = config.get(name) if flag is None else flag
    if raw is None:
        if default is REQUIRED:
            raise ValidationError(name, "required")
        return default
    try:
        value = cast(raw)
    except (TypeError, ValueError, KeyError):
        raise ValidationError(name, f"cannot interpret {raw!r}")
    # as plain JSON values: a flag's A decodes to an array
    args.echo[name] = raw if flag is None else np.asarray(value).tolist()
    return value


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


def _lattice(args, config, w):
    """The config's basis, a nested square matrix, or Z^d for the weights' d."""
    lat = _resolve(args, config, "basis", None, lattices.make_lattice)
    return lattices.make_lattice(np.eye(w.d)) if lat is None else lat


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
        raise BudgetExceeded(f"brute box has {(2 * bound + 1) ** d} cells, cap is {cap}")
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


def cmd_delta(args, config):
    w = _weights(args, config)
    lat = _lattice(args, config, w)
    svs = {
        "euclid": lattices.shortest_vector(lat, "euclid"),
        "sup": lattices.shortest_vector(lat, "sup"),
        "weighted": lattices.shortest_vector_weighted(lat, w),
    }
    res = {}
    if args.brute:
        res["brute"], res["brute_agrees"] = _brute_minima(lat.basis, w), {}
    for name, sv in svs.items():
        res[f"delta_{name}"] = sv.length
        res[f"min_vec_{name}"] = {"coeffs": list(sv.coeffs), "vec": sv.vec.tolist()}
        if args.brute:
            res["brute_agrees"][name] = abs(res["brute"][name] - sv.length) <= 1e-12
    return res, [], 0, lambda: ("norm,delta", [f"{name},{_fmt(sv.length)}" for name, sv in svs.items()])


def cmd_bad(args, config):
    w = _weights(args, config)
    A, t_max, dt = _orbit_args(args, config)
    c = _resolve(args, config, "c", REQUIRED, _real)
    q_bound = _resolve(args, config, "q-bound", None, _int)
    # every check runs before the orbit, the costly part
    flows.cusp_radius(c, w.d)
    flows.time_grid(t_max, dt)
    if q_bound is None:
        # the orbit on [0, t_max] dips below c^(1/d) only through some q with every
        # |q_l| <= (c^(n/d) e^{t_max})^{j_l}: match the predicate to the smallest cube
        # holding that box (ceil(sqrt(c) e^{t_max}) at 1 x 1)
        q_bound = math.ceil(max((c ** (w.n / w.d) * math.exp(t_max)) ** jl for jl in w.j))
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
    return res, warns, code, lambda: ("classification,c_target,c_direct,orbit_min,margin", [
        f"{verdict.classification},{_fmt(c)},{_fmt(c_direct)},{_fmt(verdict.orbit_min)},{_fmt(verdict.margin)}"
    ])


def cmd_orbit(args, config):
    w = _weights(args, config)
    A, t_max, dt = _orbit_args(args, config)
    profile = flows.orbit_profile(A, w, t_max, dt)
    res = {
        "min_delta": profile.min_delta,
        "argmin_t": profile.argmin_t,
        "continuity_margin": profile.continuity_margin,
        "n_samples": len(profile.ts),
        "samples": np.column_stack((profile.ts, profile.deltas)),
    }
    return res, [], 0, lambda: ("t,delta_w", [
        f"{_fmt(float(t))},{_fmt(float(d))}" for t, d in zip(profile.ts, profile.deltas)
    ])


def cmd_mu(args, config):
    w = _weights(args, config)
    eps = _resolve(args, config, "eps", REQUIRED, _real)
    n = _resolve(args, config, "n-samples", 10**5, _int)
    est = haar.estimate_mu_U(eps, w, n, seed=args.seed_val, threads=args.threads_val)
    res = _fields(est)
    if est.prediction is not None and est.stderr > 0:
        res["z"] = (est.mean - est.prediction) / est.stderr
    warns = [est.warning] if est.warning else []
    return res, warns, 0, lambda: ("eps,mean,stderr,prediction", [
        f"{_fmt(est.eps)},{_fmt(est.mean)},{_fmt(est.stderr)},{_fmt(est.prediction) if est.prediction is not None else ''}"
    ])


def cmd_nondiv(args, config):
    w = _weights(args, config)
    lat = _lattice(args, config, w)
    t = _resolve(args, config, "t", 4.0, _real)
    n = _resolve(args, config, "n-samples", 10**5, _int)
    grid = _resolve(args, config, "eps-grid", [0.02, 0.04, 0.08, 0.16], lambda raw: [_real(v) for v in (raw if isinstance(raw, list) else str(raw).split(","))])
    fit = haar.nondivergence_profile(lat, w, t, grid, n, seed=args.seed_val, threads=args.threads_val)
    half = (fit.slope_ci[1] - fit.slope_ci[0]) / 2.0
    res = {"t": t, **_fields(fit), "slope_ok": bool(fit.slope >= 1.0 - half)}
    warns = [fit.warning] if fit.warning else []
    return res, warns, 0, lambda: ("eps,fraction,stderr", [
        f"{_fmt(e)},{_fmt(f)},{_fmt(math.sqrt(max(f * (1 - f), 0.0) / n))}"
        for e, f in zip(fit.eps_grid, fit.fractions)
    ])


def _survivor_cover(args, config):
    """The weights, r and survivor cover of `cover` and `dim`; `covering.survivor_cover` checks the values."""
    w = _weights(args, config)
    lat = _lattice(args, config, w)
    c = _resolve(args, config, "c", 0.25, _real)
    r = _resolve(args, config, "r", 0.5, _real)
    t = _resolve(args, config, "t", 1.5, _real)
    k_max = _resolve(args, config, "k-max", 6, _int)
    return w, r, covering.survivor_cover(lat, w, c, r, t, k_max)


def cmd_cover(args, config):
    w, r, cover = _survivor_cover(args, config)
    tess = covering.tessellation_new(w.m * w.n, r)
    sweep_t = [0.5 * i for i in range(1, 9)]
    # count = prod ceil(E_i) < prod (E_i + 1) with E_i = e^{lambda_i t} >= 1, and prod (1 + 1/E_i) - 1
    # <= (2^L - 1) e^{-lambda_0 t}: with this K3 the bound holds at every t >= 0, so the sweep can fail
    K3 = (2**tess.L - 1) * tess.side**tess.L
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
    return res, warns, 3 if cover.truncated else 0, lambda: ("level,box_size,count", [
        f"{lv.k},{_fmt(lv.box_size)},{lv.count}" for lv in cover
    ])


def cmd_dim(args, config):
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
        try:
            fit = covering.box_dimension_fit(cover)
        except DegenerateFit as e:
            # too few levels because the box budget stopped the cover is a work cap, not a fit
            if cover.truncated:
                raise BudgetExceeded(f"cover truncated at the box budget: {e}") from None
            raise
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
    return res, warns, code, lambda: ("slope,intercept,r2", [f"{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.r2)}"])


def cmd_oracle_cf(args, config):
    N = _resolve(args, config, "n-digit", REQUIRED, _int)
    depth = _resolve(args, config, "depth", 12, _int)
    # one walk of the cylinders gives both depths
    est, prev = covering.cf_digit_oracle(N, depth, prev=True) if depth > 4 else (covering.cf_digit_oracle(N, depth), None)
    res = {"N": N, "depth": depth, "estimate": est}
    if prev is not None:
        res["estimate_prev_depth"] = prev
        res["depth_drift"] = abs(est - prev)
    return res, [], 0, lambda: ("N,depth,estimate", [f"{N},{depth},{_fmt(est)}"])


# each command returns (results, warnings, exit code, csv table); the table is a
# function, so that its rows are formatted only when --format csv asks for them
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


# the flags that take a value, besides the common ones, and the subcommands that have them
VALUE_FLAGS = [
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
    ("--n-digit", ["oracle-cf"]),
    ("--depth", ["oracle-cf"]),
    ("--oracle-n", ["dim"]),
    ("--oracle-depth", ["dim"]),
]
# every flag that takes a value, but --config and --out, named without its dashes,
# and the blocks that only a config gives; `_load_config` refuses any other key
CONFIG_KEYS = frozenset(["seed", "threads", "format", *(flag[2:] for flag, _ in VALUE_FLAGS), "basis", "weights", "synthetic"])


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
    for flag, names in VALUE_FLAGS:
        for name in names:
            sp[name].add_argument(flag, default=None)
    sp["delta"].add_argument("--brute", action="store_true")
    sp["dim"].add_argument("--oracle", action="store_true")
    return p


# built once per process: parse_args leaves no state in it from one call to the next
_PARSER = _build_parser()


def main(argv=None):
    t0 = time.monotonic()
    try:
        args = _PARSER.parse_args(argv)
        args.echo = {}
        config = _load_config(args.config)
        seed = _resolve(args, config, "seed", 0, _int)
        if not 0 <= seed < 2**64:
            raise ValidationError("seed", "must be a 64-bit unsigned integer")
        threads = require_int("threads", _resolve(args, config, "threads", 1, _int))
        args.seed_val = seed
        args.threads_val = threads
        fmt = _resolve(args, config, "format", "json", _format)
        res, warns, code, csv_table = COMMANDS[args.command](args, config)
    except CuspDimError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code

    if fmt == "csv":
        csv_head, csv_rows = csv_table()
        text = csv_head + "\n" + "\n".join(csv_rows) + "\n"
    else:
        report = {
            "command": args.command,
            "version": f"cuspdim {__version__}",
            "config": {**args.echo, "seed": seed, "threads": threads},
            "results": res,
            "warnings": warns,
        }
        if not args.no_timestamp:
            report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
            report["wall_time_s"] = time.monotonic() - t0
        # one line: json's C encoder runs only without indent (pipe through `python -m json.tool` to read)
        text = json.dumps(_round12(report), sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
