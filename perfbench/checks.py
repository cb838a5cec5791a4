"""Untimed output checks for every op, and failure accounting.

`check(op, code, text, cuspdim)` returns None when the op's output is
right and a one-line reason otherwise.  An op fails when it raised, when it returned
an exit code its report does not justify (0, or 2 with a Boundary
verdict), or when its output fails the check below for its type.  The
oracles called here are independent of the code path they check:
`haar.delta2_batch` (float Gauss reduction) for the enumerator at d = 2,
`covering.count_S_rt_brute` for the closed-form count, published
dimensions of E_N for the CF oracle.
"""

import json
import math

import numpy as np

# Hausdorff dimension of E_N = {partial quotients <= N}, N = 2..4 (Hensley; Jenkinson-Pollicott)
DIM_E = {2: 0.5312805062772051, 3: 0.7056609080, 4: 0.7889455575}
BAD_BAND = 0.02
REL = 1e-9


class CheckError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def canonical(op, text, drop=("version",)):
    """The op's output with fields that name the build removed (JSON for CLI ops)."""
    if op.kind != "cli":
        return text
    report = json.loads(text)
    for key in drop:
        node, *path = key.split(".")
        obj = report
        while path:
            obj, node = obj[node], path.pop(0)
        obj.pop(node, None)
    return json.dumps(report, sort_keys=True)


def quasinorm(v, weights):
    """Weighted quasinorm max_k |p_k|^(1/(m i_k)), max_l |q_l|^(1/(n j_l)), written apart from cuspdim's."""
    i, j = weights
    m = len(i)
    p = [abs(x) ** (1.0 / (m * ik)) for x, ik in zip(v[:m], i)]
    q = [abs(x) ** (1.0 / (len(j) * jl)) for x, jl in zip(v[m:], j)]
    return max(p + q)


def _check_delta(op, res, cuspdim):
    B = np.array(op.config["basis"])
    weights = (tuple(op.config["weights"]["i"]), tuple(op.config["weights"]["j"]))
    norms = {
        "euclid": lambda v: float(np.sqrt(np.sum(v * v))),
        "sup": lambda v: float(np.max(np.abs(v))),
        "weighted": lambda v: quasinorm(v, weights),
    }
    for name, norm in norms.items():
        mv = res[f"min_vec_{name}"]
        coeffs = mv["coeffs"]
        _require(all(isinstance(c, int) for c in coeffs) and any(coeffs), f"{name}: coeffs not a nonzero integer vector")
        vec = B @ np.array(coeffs, dtype=float)
        scale = float(np.abs(B).max()) * max(abs(c) for c in coeffs)
        _require(np.allclose(mv["vec"], vec, rtol=0, atol=REL * scale), f"{name}: vec != B coeffs")
        _require(math.isclose(norm(vec), res[f"delta_{name}"], rel_tol=REL), f"{name}: norm(vec) != reported delta")
    _require(res["delta_weighted"] <= 1.0 + REL, "weighted delta exceeds the Minkowski bound 1")
    if B.shape == (2, 2):
        for name in ("euclid", "sup"):
            ref = float(cuspdim.haar.delta2_batch(B[None], name)[0])
            _require(abs(ref - res[f"delta_{name}"]) <= 1e-9, f"{name}: differs from delta2_batch {ref}")


def _check_cover(res, args, cuspdim):
    _require(not res["truncated"], "cover truncated")
    r = float(args[args.index("--r") + 1])
    tess = cuspdim.covering.tessellation_new(1, r)
    w = cuspdim.lattices.EQUAL_WEIGHTS_2D
    for row in res["count_bound_sweep"]:
        brute = cuspdim.covering.count_S_rt_brute(tess, w, row["t"])
        _require(row["count"] == brute, f"count_S_rt {row['count']} != brute {brute} at t={row['t']}")
        _require(row["bound"] >= row["count"], f"bound below count at t={row['t']}")


def _check_oracle(N, depth, estimate):
    if depth >= 8 and N in DIM_E:
        _require(abs(estimate - DIM_E[N]) <= 1e-4, f"oracle {estimate} not within 1e-4 of dim E_{N}")


def _check_cli(op, code, report, cuspdim):
    res = report["results"]
    boundary = res.get("classification") == "Boundary"
    _require(code == 0 or (code == 2 and boundary), f"exit code {code} not justified by the report")
    cmd = op.args[0]
    if cmd == "bad":
        if abs(res["c_direct"] - res["c_target"]) >= BAD_BAND:
            _require(res["agree"] is True, "verdict disagrees with the direct constant")
    elif cmd == "orbit":
        _require(res["n_samples"] == len(res["samples"]), "sample count mismatch")
        _require(all(0.0 < d <= 1.0 for _, d in res["samples"]), "orbit sample outside (0, 1]")
    elif cmd == "delta":
        _check_delta(op, res, cuspdim)
    elif cmd == "mu":
        pred = 12.0 * res["eps"] ** 2 / math.pi**2
        _require(res["stderr"] > 0 and abs(res["mean"] - pred) <= 5 * res["stderr"], "mu outside 5 stderr of 12 eps^2/pi^2")
    elif cmd == "nondiv":
        fr = res["fractions"]  # eps_grid is descending
        _require(all(a >= b for a, b in zip(fr, fr[1:])), "fractions not monotone in eps")
    elif cmd == "cover":
        _check_cover(res, list(op.args), cuspdim)
    elif cmd == "dim":
        _require(len(res["levels_used"]) >= 3, "fewer than 3 levels in the fit")
        _check_oracle(res["oracle"]["N"], res["oracle"]["depth"], res["oracle"]["estimate"])
    elif cmd == "oracle-cf":
        _check_oracle(res["N"], res["depth"], res["estimate"])


def check(op, code, text, cuspdim):
    """None if the op's output passes, else the reason it failed."""
    try:
        out = json.loads(text)
        if op.kind == "cli":
            _check_cli(op, code, out, cuspdim)
        elif op.kind == "orbit_profile":
            _require(code == 0, f"exit code {code}")
            _require(all(0.0 < d <= 1.0 for d in out["deltas"]), "weighted orbit sample outside (0, 1]")
        elif op.kind == "core_inclusion_check":
            kw = dict(op.args)
            _require(out["within_admissible"], "r beyond the admissible radius")
            _require(out["violations"] == 0, f"{out['violations']} inclusion violations")
            _require(out["pairs"] == kw["n_samples"] * kw["n_perturb"], "pair count mismatch")
    except CheckError as e:
        return str(e)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed output: {e!r}"
    return None
