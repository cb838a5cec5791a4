"""Seeded op lists for the three workloads, and how one op is executed.

An op is what a user of cuspdim would run: a CLI argv (plus a JSON
config file for bases and weights) or one of the two public library
calls the CLI cannot reach, `flows.orbit_profile` with general weights
and `haar.core_inclusion_check`.  The seed only draws values inside a
fixed per-pass structure (op types, sizes, flow times), so every seed
gives the same mix of cheap and expensive ops; values whose size drives
the cost (|A| in enumeration ops, the cover base lattice) are drawn from
narrow bands for the same reason.
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np

WORKLOADS = {
    "orbit_lattice": "lattice enumeration and flow orbits: bad/orbit CLI ops over three kinds of A, "
    "delta on g_T u_A Z^d for d = 2..5 and weighted orbit profiles",
    "haar_mc": "Haar sampler, float Gauss reduction and the rng thread pool: mu/nondiv at --threads 2 "
    "and core_inclusion_check",
    "cover_dim": "survivor-cover kernel: cover, dim --oracle and oracle-cf over a grid of (c, r, t, k_max, x0)",
}

# weight vectors (i; j) per dimension for delta and weighted-orbit ops
WEIGHTS = {
    2: ((1.0,), (1.0,)),
    3: ((1.0,), (0.3, 0.7)),
    4: ((0.5, 0.5), (0.4, 0.6)),
    5: ((0.5, 0.5), (0.2, 0.3, 0.5)),
}
# (d, T) for `delta` on g_T u_A Z^d: T capped per d so the coefficient box
# stays far below the enumeration cell budget at |A_kl| ~ 0.3
DELTA_GRID = [(2, 3.0), (2, 3.0), (3, 2.5), (3, 2.5), (4, 2.5), (4, 2.5), (5, 2.0), (5, 2.0),
              (2, 4.0), (3, 3.5), (3, 3.5), (4, 3.75), (4, 3.75), (5, 3.25), (5, 3.25)]
# c levels for t_max = 10 `bad` ops, each drawn within ±10 %, once per kind of A.  These
# ops take ~7-12 ms, most of it cli.main's fixed cost per op (argument parsing and the
# `git describe` subprocess), and that cost is bimodal on a shared 2-vCPU host: the share
# of slow calls changes from one run to the next.  So they are few, and the median op of
# a pass lies in the band of t_max = 15 `orbit` ops (~110 ms, a third of it cli.main
# rounding and writing the 1501-sample report), whose count centres the median in the band.
BAD_C = (0.05, 0.14, 0.3)
# per kind of A: t_max = 15 `bad` ops (all at c = 0.3 ± 10 %, so their window-matched q
# ranges, and costs, are alike; ~150 ms, above the median band and around the 90th
# percentile op) and t_max = 15 `orbit` ops (the median band)
BAD_T15_PER_KIND = 8
ORBIT_T15_PER_KIND = 6
# (d, t_max) for weighted flows.orbit_profile at dt = 0.5
ORBIT_PROFILE_GRID = [(3, 6.0), (3, 6.5), (4, 4.0), (4, 5.0)]
# (c, r, t, k_max): last-level batches from ~4e2 boxes (in L2) to ~6.5e5 boxes
# (about 160 MB of working arrays, beyond L3); k t <= 8.  The repeated ~1.6e5-box
# entries form a band of near-equal cost around the 90th-percentile op.
COVER_GRID = [
    (0.1, 0.5, 1.5, 2),
    (0.2, 0.5, 1.0, 3),
    (0.15, 0.5, 0.5, 6),
    (0.1, 0.5, 1.0, 4),
    *[(0.1, 1.0, 1.0, 5)] * 2,
    *[(0.05, 1.0, 2.0, 3)] * 3,
    (0.05, 1.0, 2.25, 3),
]
# (c, r, t, k_max, oracle N, oracle depth) for dim --oracle
DIM_GRID = [(0.1, 0.5, 1.0, 4, 2, 12), (0.1, 1.0, 1.0, 5, 4, 9), (0.15, 0.5, 0.5, 6, 3, 10),
            (0.05, 1.0, 2.0, 3, 2, 16)]
# oracle-cf runs every (N, depth) of this grid each pass; depth >= 8 so the dimension check applies
# (shallower depths are left out: their time is mostly CLI overhead).  The repeated (4, 10)
# entries (~90 ms) are the median band: they take no seeded input, so unlike a cover, whose
# time moves by ±10 % with the seeded base lattice, they cost the same for every seed.
ORACLE_GRID = [(2, 14), (2, 15), (2, 16), (3, 11), (3, 12), *[(4, 10)] * 11]
MU_SIZES = [1 << 14, 1 << 14, 1 << 16, 1 << 16, 1 << 18, 1 << 18, 1 << 19, 1 << 19]
NONDIV_SIZES = [1 << 16, 1 << 16, 1 << 18, 1 << 18, 1 << 18, 1 << 18]
INCLUSION_SHAPES = [(100, 2), (150, 3), (150, 3), (150, 3), (150, 3), (200, 4)]
THREADS = 2
# magnitude of the entries of A in delta and weighted-orbit ops, and their relative spread
BAND_MAG = 0.3
BAND_REL = 0.01


@dataclasses.dataclass(frozen=True)
class Op:
    """One closed-loop request: `kind` is "cli" or a library function name."""

    type: str
    kind: str
    args: tuple
    config: dict = None

    def argv(self, config_path=None):
        extra = ["--config", str(config_path)] if self.config is not None else []
        return list(self.args) + extra + ["--no-timestamp"]


def _rng(workload, seed, stream):
    index = list(WORKLOADS).index(workload)
    return np.random.default_rng([int(seed), index, stream])


def _cf_value(digits):
    x = 0.0
    for a in reversed(digits):
        x = 1.0 / (a + x)
    return x


def draw_A(rng, kind):
    """A in (0, 1) of one of three continued-fraction kinds."""
    if kind == "uniform":
        return float(rng.uniform(0.0, 1.0))
    if kind == "quadratic":
        # purely periodic CF with partial quotients <= 3: a quadratic irrational
        period = [int(v) for v in rng.integers(1, 4, int(rng.integers(1, 4)))]
        return _cf_value(period * (64 // len(period)))
    # near-rational: a few small quotients, one huge one, then small ones
    head = [int(v) for v in rng.integers(1, 6, int(rng.integers(1, 4)))]
    huge = int(10 ** rng.uniform(3.0, 5.0))
    tail = [int(v) for v in rng.integers(1, 6, 6)]
    return _cf_value(head + [huge] + tail)


A_KINDS = ("uniform", "quadratic", "near_rational")


def _banded(rng, shape):
    """Entries of magnitude BAND_MAG (±BAND_REL) and random sign: cost barely depends on the seed."""
    lo, hi = BAND_MAG * (1 - BAND_REL), BAND_MAG * (1 + BAND_REL)
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def flow_basis(weights, A, T):
    """g_T u_A as a nested list, computed here so the program only sees the matrix."""
    i, j = weights
    m, n = len(i), len(j)
    U = np.eye(m + n)
    U[:m, m:] = A
    G = np.diag([math.exp(v * T) for v in i] + [math.exp(-v * T) for v in j])
    return (G @ U).tolist()


def hex_basis(rng):
    """Hexagonal unimodular lattice under a seeded shear of size <= 0.002.

    Under shears of size <= 0.01 a cover at (0.1, 1.0, 1.0, 5) takes
    80-112 ms; the smaller shear narrows that, so that a cover costs
    about the same for every seed.
    """
    s = 3**-0.25 * math.sqrt(2.0)
    H = np.array([[s, s / 2.0], [0.0, s * math.sqrt(3.0) / 2.0]])
    a, b = rng.uniform(-0.002, 0.002, 2)
    return (np.array([[1.0, b], [a, 1.0 + a * b]]) @ H).tolist()


def _weights_config(d):
    i, j = WEIGHTS[d]
    return {"i": list(i), "j": list(j)}


def _bad_op(rng, kind, t_max, c_level):
    A = draw_A(rng, kind)
    c = c_level * float(rng.uniform(0.9, 1.1))
    q_bound = math.ceil(math.sqrt(c) * math.exp(t_max))
    args = ("bad", "--A", repr(A), "--c", repr(c), "--t-max", str(t_max), "--q-bound", str(q_bound))
    return Op(f"bad_t{t_max}", "cli", args)


def _orbit_op(rng, kind, t_max):
    return Op(f"orbit_t{t_max}", "cli", ("orbit", "--A", repr(draw_A(rng, kind)), "--t-max", str(t_max)))


def _delta_op(rng, d, T):
    i, j = WEIGHTS[d]
    A = _banded(rng, (len(i), len(j)))
    config = {"basis": flow_basis(WEIGHTS[d], A, T), "weights": _weights_config(d)}
    return Op(f"delta_d{d}", "cli", ("delta",), config)


def _orbit_profile_op(rng, d, t_max):
    i, j = WEIGHTS[d]
    A = _banded(rng, (len(i), len(j))).tolist()
    return Op(f"orbit_profile_d{d}", "orbit_profile", (("A", A), ("weights", (i, j)), ("t_max", t_max), ("dt", 0.5)))


def _mu_op(rng, n):
    eps = float(rng.uniform(0.05, 0.3))
    seed = int(rng.integers(0, 2**63))
    args = ("mu", "--eps", repr(eps), "--n-samples", str(n), "--seed", str(seed), "--threads", str(THREADS))
    return Op("mu", "cli", args)


def _nondiv_op(rng, n):
    t = float(rng.uniform(4.5, 6.0))
    seed = int(rng.integers(0, 2**63))
    args = ("nondiv", "--t", repr(t), "--n-samples", str(n), "--seed", str(seed), "--threads", str(THREADS))
    return Op("nondiv", "cli", args)


def _inclusion_op(rng, n_samples, n_perturb):
    # eps >= 0.2 keeps sampling the core U(eps/2) to one 2^15-proposal batch
    eps = float(rng.uniform(0.2, 0.3))
    # admissible radius at (1; 1) weights and C11 = 2 is eps / 4
    r = float(rng.uniform(0.3, 1.0)) * eps / 4.0
    seed = int(rng.integers(0, 2**63))
    kwargs = (("eps", eps), ("r", r), ("n_samples", n_samples), ("n_perturb", n_perturb), ("seed", seed))
    return Op("inclusion", "core_inclusion_check", kwargs)


def _cover_op(rng, c, r, t, k_max):
    args = ("cover", "--c", repr(c), "--r", repr(r), "--t", repr(t), "--k-max", str(k_max))
    return Op("cover", "cli", args, {"basis": hex_basis(rng)})


def _dim_op(rng, c, r, t, k_max, N, depth):
    args = ("dim", "--c", repr(c), "--r", repr(r), "--t", repr(t), "--k-max", str(k_max),
            "--oracle", "--oracle-n", str(N), "--oracle-depth", str(depth))
    return Op("dim", "cli", args, {"basis": hex_basis(rng)})


def _oracle_op(N, depth):
    return Op("oracle-cf", "cli", ("oracle-cf", "--n-digit", str(N), "--depth", str(depth)))


def generate(workload, seed):
    """The op list of one pass, in execution order (interleaved by a shuffle fixed per workload)."""
    rng = _rng(workload, seed, 0)
    ops = []
    if workload == "orbit_lattice":
        for kind in A_KINDS:
            ops += [_bad_op(rng, kind, 10, c) for c in BAD_C]
            ops += [_bad_op(rng, kind, 15, BAD_C[-1]) for _ in range(BAD_T15_PER_KIND)]
            ops += [_orbit_op(rng, kind, 10)]
            ops += [_orbit_op(rng, kind, 15) for _ in range(ORBIT_T15_PER_KIND)]
        ops += [_delta_op(rng, d, T) for d, T in DELTA_GRID]
        ops += [_orbit_profile_op(rng, d, tm) for d, tm in ORBIT_PROFILE_GRID]
    elif workload == "haar_mc":
        ops += [_mu_op(rng, n) for n in MU_SIZES]
        ops += [_nondiv_op(rng, n) for n in NONDIV_SIZES]
        ops += [_inclusion_op(rng, ns, npert) for ns, npert in INCLUSION_SHAPES]
    elif workload == "cover_dim":
        ops += [_cover_op(rng, *p) for p in COVER_GRID]
        ops += [_dim_op(rng, *p) for p in DIM_GRID]
        ops += [_oracle_op(*p) for p in ORACLE_GRID]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the same interleaving for every seed: an op's time depends on what ran before it
    # (a cover band op takes ~90 ms after the large covers of a pass, ~100 ms on its own),
    # so a seeded order would make the cost of the median band depend on the seed
    order = _rng(workload, 0, 2).permutation(len(ops))
    return [ops[k] for k in order]


def warmups(workload, seed):
    """One cheap op per op type, run untimed during set-up."""
    rng = _rng(workload, seed, 1)
    if workload == "orbit_lattice":
        return [_bad_op(rng, "uniform", 10, BAD_C[0]), _orbit_op(rng, "uniform", 10), _delta_op(rng, 2, 2.0),
                _orbit_profile_op(rng, 3, 3.0)]
    if workload == "haar_mc":
        return [_mu_op(rng, 1 << 14), _nondiv_op(rng, 1 << 16), _inclusion_op(rng, 20, 1)]
    if workload == "cover_dim":
        return [_cover_op(rng, *COVER_GRID[0]), _dim_op(rng, *DIM_GRID[0][:4], 2, 8), _oracle_op(2, 8)]
    raise ValueError(f"unknown workload {workload!r}")


def with_threads(op, threads):
    """The same CLI op at another --threads value (reports must not change)."""
    args = list(op.args)
    args[args.index("--threads") + 1] = str(threads)
    return dataclasses.replace(op, args=tuple(args))


def execute(op, cuspdim, config_path=None):
    """Run one op; returns (exit code, output text).  Library ops return code 0."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cuspdim.cli.main(op.argv(config_path))
        return code, out.getvalue()
    kw = dict(op.args)
    if op.kind == "orbit_profile":
        w = cuspdim.lattices.WeightVector(*kw["weights"])
        prof = cuspdim.flows.orbit_profile(np.array(kw["A"]), w, kw["t_max"], kw["dt"])
        return 0, json.dumps({"ts": prof.ts.tolist(), "deltas": prof.deltas.tolist()})
    if op.kind == "core_inclusion_check":
        rep = cuspdim.haar.core_inclusion_check(kw["eps"], kw["r"], cuspdim.lattices.EQUAL_WEIGHTS_2D,
                                                kw["n_samples"], kw["n_perturb"], kw["seed"])
        return 0, json.dumps(dataclasses.asdict(rep), sort_keys=True)
    raise ValueError(f"unknown op kind {op.kind!r}")
