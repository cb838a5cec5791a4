"""Weighted diagonal flows, unipotent orbits, and badly approximable tests.

The flow g_t = diag(e^{i_1 t}, ..., e^{i_m t}, e^{-j_1 t}, ..., e^{-j_n t})
acts on lattices; the orbit of u_A Z^d avoids the cusp region
{delta_w < eps} for all t >= 0 exactly when the matrix A is badly
approximable at level c = eps^d.  Both sides of that equivalence are
computable here:

  * orbit_profile         - delta_w along `time_grid` (exact per sample)
  * direct_bad_constant   - brute-force inf of ||Aq+p||_i ||q||_j
  * classify_from_profile - window-limited verdict with an explicit
                            continuity margin, Boundary when inconclusive

For m = n = 1 the profile uses a closed form: the lattice g_t u_a Z^2
consists of (e^t(p + aq), e^{-t}q), so over the whole time window only
the record minima of q -> dist(q a, Z) can ever realize the minimum,
and the profile is the lower envelope of max(a_r e^t, b_r e^{-t}) over
those records plus the q = 0 branch e^t.  By Lagrange's best
approximation theorem the records are the convergent denominators of a,
so they come from its continued fraction in O(t_max) steps.  The float
A is the rational num/den, and the records are exact for that rational:
past t ~ ln(den) its orbit dives like den e^{-t}, as a rational's must.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ValidationError, require_int
from .lattices import CELL_BUDGET, delta_weighted, make_lattice

# e^t is finite in float64 up to t = ln(max float) = 709.78
T_LIMIT = math.log(np.finfo(np.float64).max)
# cap on t_max / dt: the 1x1 profile holds a (samples x records) array
MAX_SAMPLES = 10**5
# rows of q per block of direct_bad_constant: its few float64 arrays of
# this length (256 KB each) stay in a 2 MB L2 cache
DIRECT_BLOCK = 1 << 15


@dataclass(frozen=True)
class OrbitProfile:
    ts: np.ndarray
    deltas: np.ndarray
    min_delta: float
    argmin_t: float
    continuity_margin: float


@dataclass(frozen=True)
class BadVerdict:
    classification: str  # Bad | NotBad | Boundary
    orbit_min: float
    margin: float


def g_t(w, t):
    """The diagonal flow matrix; det = 1 since the weight blocks both sum to 1."""
    ex = [np.exp(ik * t) for ik in w.i] + [np.exp(-jl * t) for jl in w.j]
    return np.diag(ex)


def u_A(A):
    """Block-unipotent embedding of an m x n matrix: [[I_m, A], [0, I_n]]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    U = np.eye(m + n)
    U[:m, m:] = A
    return U


def _record_frontier(a, t_max):
    """Record minima (dist(q a, Z), q) over 1 <= q <= e^t_max, exact for the float a.

    Any q whose dist is not a running record is dominated by an earlier
    record at every t, so only records can realize the orbit minimum.
    By Lagrange's theorem the records are convergent denominators of a:
    run Euclid on a = num/den in integers and keep each q_k whose dist
    min(r, den - r)/den, r = q_k num mod den, beats every earlier one
    (this also merges the repeated q = 1 when a_1 = 1).
    """
    num, den = float(a).as_integer_ratio()
    h, k = den, num % den  # frac(a) = k/h = [0; a_1, a_2, ...]
    q_prev, q, best, recs = 0, 1, den, []
    while math.log(q) <= t_max:
        r = q * num % den
        dist = min(r, den - r)
        if dist < best:
            best = dist
            recs.append((dist / den, q))
        if k == 0:
            break
        a_k, h, k = h // k, k, h % k
        q_prev, q = q, a_k * q + q_prev
    dists, qs = zip(*recs)
    return np.array(dists), np.array(qs, dtype=np.float64)


def _profile_fastpath(a, ts):
    """delta_w(g_t u_a Z^2) on the grid, m = n = 1 (sup norm), exact."""
    av, bv = _record_frontier(a, ts[-1])
    et = np.exp(ts)
    emt = np.exp(-ts)
    # candidates: max(a_r e^t, b_r e^-t) per record, and e^t for q = 0
    vals = np.maximum(np.outer(et, av), np.outer(emt, bv))
    return np.minimum(et, vals.min(axis=1))


def time_grid(t_max, dt):
    """The orbit's sample times 0, dt, ..., t_max.

    The grid must keep e^t finite and hold at most MAX_SAMPLES steps.
    """
    t_max, dt = float(t_max), float(dt)
    if not t_max > 0:
        raise ValidationError("t-max", "must be positive")
    if not 0 < dt < math.inf:
        raise ValidationError("dt", "must be positive and finite")
    if not t_max + dt <= T_LIMIT:
        raise ValidationError("t-max", f"e^t overflows float64: need t-max + dt <= {T_LIMIT:.6g}")
    if t_max / dt > MAX_SAMPLES:
        raise ValidationError("t-max", f"t-max / dt exceeds {MAX_SAMPLES} samples")
    if dt > t_max:
        raise ValidationError("dt", "must not exceed t_max")
    return np.arange(0.0, t_max + dt * 0.5, dt)


def cusp_radius(c, d):
    """The radius c^(1/d) of the cusp region U that level c of bad approximability avoids."""
    if not 0 < c < 1:
        raise ValidationError("c", "must be in (0, 1)")
    return c ** (1.0 / d)


def orbit_profile(A, w, t_max, dt):
    """Sampled trajectory t -> delta_w(g_t u_A Z^d) on `time_grid(t_max, dt)`.

    Between grid points the quasinorm of any fixed vector moves by at
    most exp(max(1/m, 1/n) dt), so min_delta is certified up to that
    factor.
    """
    ts = time_grid(t_max, dt)
    A = _as_matrix(A, w)
    if w.d == 2:
        deltas = _profile_fastpath(float(A[0, 0]), ts)
    else:
        U = u_A(A)
        deltas = np.array([delta_weighted(make_lattice(g_t(w, t) @ U), w) for t in ts])
    k = int(np.argmin(deltas))
    margin = float(np.exp(max(1.0 / w.m, 1.0 / w.n) * dt))
    return OrbitProfile(
        ts=ts,
        deltas=deltas,
        min_delta=float(deltas[k]),
        argmin_t=float(ts[k]),
        continuity_margin=margin,
    )


def _as_matrix(A, w):
    """A as a finite w.m x w.n float array; a scalar is 1 x 1, other shapes must match."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.shape != (w.m, w.n):
        raise ValidationError("A", f"expected a {w.m} x {w.n} nested list, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError("A", "entries must be finite")
    return A


def _weighted_norm(X, weights):
    """||x||_i = max_k |x_k|^(1/i_k) over the columns of X, as a new array.

    One column at a time with a running in-place max; pow(x, 1) = x, so
    a weight of exactly 1 takes no power.
    """
    norm = None
    for k, ik in enumerate(weights):
        col = np.abs(X[:, k])
        if 1.0 / ik != 1.0:
            np.power(col, 1.0 / ik, out=col)
        norm = col if norm is None else np.maximum(norm, col, out=norm)
    return norm


def _q_half_rows(lo, hi, q_bound, n):
    """The q of the numbers lo..hi-1 written in balanced base 2 q_bound + 1, q_1 leading.

    The numbers 1..((2 q_bound + 1)^n - 1)/2 give exactly one of q, -q
    for every nonzero q of the box ||q||_inf <= q_bound.
    """
    j = np.arange(lo, hi, dtype=np.float64)
    if n == 1:
        return j[:, None]
    q = np.empty((len(j), n))
    for k in range(n - 1, 0, -1):
        j, r = np.divmod(j + q_bound, 2 * q_bound + 1)
        q[:, k] = r - q_bound
    q[:, 0] = j
    return q


def direct_bad_constant(A, w, q_bound):
    """Brute-force min over 1 <= ||q||_inf <= q_bound of ||Aq+p||_i ||q||_j.

    The optimal p is the coordinatewise nearest integer to -Aq because
    ||.||_i is a coordinatewise max of even increasing functions; so q
    and -q give the same value and only one of each pair is walked.
    Nonincreasing in q_bound by construction.  Raises
    BudgetExceeded before allocating when the number of q
    walked exceeds CELL_BUDGET; the q are built one DIRECT_BLOCK-row
    block at a time.
    """
    q_bound = require_int("q-bound", q_bound)
    A = _as_matrix(A, w)
    cells = ((2 * q_bound + 1) ** w.n - 1) // 2
    if cells > CELL_BUDGET:
        raise BudgetExceeded(f"{cells} values of q, budget is {CELL_BUDGET}")
    best = np.inf
    for lo in range(1, cells + 1, DIRECT_BLOCK):
        qs = _q_half_rows(lo, min(lo + DIRECT_BLOCK, cells + 1), q_bound, w.n)
        r = qs @ A.T
        r -= np.round(r)
        vals = _weighted_norm(r, w.i)
        vals *= _weighted_norm(qs, w.j)
        best = min(best, float(vals.min()))
    return best


def classify_from_profile(profile, c, d):
    """Dynamical badly-approximable verdict from the orbit of u_A Z^d.

    A is badly approximable at level c exactly when the forward orbit
    avoids {delta_w < c^(1/d)}.  The verdict reports window-limited
    evidence ([0, t_max]) with the grid continuity margin, and returns
    Boundary rather than guessing when the evidence is within the
    margin of the threshold.
    """
    eps = cusp_radius(c, d)
    m = profile.continuity_margin
    if profile.min_delta / m >= eps:
        cls = "Bad"
    elif profile.min_delta * m < eps:
        cls = "NotBad"
    else:
        cls = "Boundary"
    return BadVerdict(
        classification=cls,
        orbit_min=profile.min_delta,
        margin=m,
    )

