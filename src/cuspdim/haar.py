"""Haar Monte Carlo on the space of unimodular planar lattices.

Sampling uses the classical fundamental domain of the modular surface:
tau = x + i y with |x| <= 1/2, x^2 + y^2 >= 1, carrying the hyperbolic
area density dx dy / y^2 (total mass pi/3), plus an independent
rotation theta uniform on [0, pi) because lattices related by rotation
are distinct points of SL_2(R)/SL_2(Z).  y is drawn by inverting the
1/y^2 tail CDF on [sqrt(3)/2, inf), x uniformly, and proposals with
x^2 + y^2 < 1 are rejected (acceptance (pi/3)/(2/sqrt(3)) ~ 0.9069).

A fundamental-domain sample needs no reduction: its columns, four flat
arrays from `_columns`, are u = R(theta)(1/sqrt(y), 0) and
w = R(theta)(x/sqrt(y), sqrt(y)), with |u|^2 = 1/y <= (x^2 + y^2)/y =
|w|^2 and <u, w>/|u|^2 = x in [-1/2, 1/2], so they are Lagrange-reduced.
From a reduced basis the sup-norm minimum is attained at coefficients
(1,0), (0,1), (1,1) or (1,-1), since any sup minimizer has euclid norm
<= sqrt(2) lambda_1 and therefore a^2 - |ab| + b^2 <= 2;
`reduced_sup_min` evaluates them, for the cover's reduced pairs too.
The float64 Gauss reduction `gauss_reduce_batch` serves the flowed bases
g_t u_h x of `nondivergence_profile`, the perturbed bases of
`core_inclusion_check` and `estimate_mu_U`'s samples (one pass).  It
works on the four flat components and keeps an active set: a row that
neither swaps nor takes a nonzero multiple in a pass never changes
again, so it is written back and dropped; g_t u_h Z^2 at t = 4.5..6
takes 8-9 passes.  Everything is exact up to float roundoff and
cross-validated against the enumeration path in the tests.  Haar bases
have moderate entries, so float64 suffices for them; on g_t u_h x the
reduction loses about e^{2t} max|B|^2 2^-52, which `nondivergence_profile`
reports as a warning once it is no longer small against eps.  The cover's
flowed bases need the integer-tracked kernel in `covering`, whose float64
steps a long-double pass checks; its reduced pairs come back here.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import BudgetExceeded, DegenerateFit, InvariantViolation, ValidationError, require_int
from .flows import T_LIMIT

Y_MIN = math.sqrt(3.0) / 2.0
C11 = 2.0  # perturbations g keep max(||g - I||, ||g^-1 - I||) <= C11 r
MAX_PASSES = 64  # Gauss reduction passes before a row counts as not converging
PERTURB_TRIES = 1000  # consecutive rejected perturbations before core_inclusion_check gives up
PAIR_BUDGET = 10**6  # sample-perturbation pairs of core_inclusion_check: ~170 B each at peak, ~170 MB
DRAW_BUDGET = 10**8  # draws of any call: a Monte Carlo sample count, or core_inclusion_check's fill of U(eps/2)
# eps values of nondivergence_profile: a 2^16-sample chunk counts them one by one at 12-19 us each
# and draws and reduces in 5.3 ms at the least measured (x = diag(e^3, e^-3), t = 0; 21 ms on Z^2;
# one core of a 2-vCPU Xeon VM), so counting at the cap costs no more than the chunk's draws
EPS_GRID_MAX = 256
Y_CUTS = (1.5, 2.0, 3.0)  # the tail points Pr[y >= c] of sampler_calibration


@dataclass(frozen=True)
class MeasureEstimate:
    eps: float
    n_samples: int
    hits: int
    mean: float
    stderr: float
    prediction: float = None
    warning: str = None


@dataclass(frozen=True)
class ScalingFit:
    eps_grid: list
    fractions: list
    slope: float
    slope_ci: tuple
    warning: str = None


def _propose(rng, count):
    u = rng.random(count)
    y = Y_MIN / (1.0 - u)
    x = rng.uniform(-0.5, 0.5, count)
    return x, y


def sample_batch(rng, count):
    """Vectorized rejection sampler; returns (x, y, theta, n_proposed); stalls past 10^6 + 12 count proposals."""
    cap = 10**6 + 12 * count
    xs, ys = [], []
    have = 0
    proposed = 0
    while have < count:
        need = count - have
        batch = max(64, int(need * 1.2))
        if proposed + batch > cap:
            batch = cap - proposed
            if batch <= 0:
                raise BudgetExceeded(f"rejection sampler exceeded {cap} proposals")
        x, y = _propose(rng, batch)
        ok = x * x + y * y >= 1.0
        hits = np.flatnonzero(ok)
        if len(hits) >= need:
            # count proposals only through the one yielding the last needed
            # acceptance, so count/proposed estimates the true rate
            proposed += int(hits[need - 1]) + 1
            keep = hits[:need]
        else:
            proposed += batch
            keep = hits
        xs.append(x[keep])
        ys.append(y[keep])
        have += len(keep)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    theta = rng.uniform(0.0, math.pi, count)
    return x, y, theta, proposed


def _columns(x, y, theta):
    """The reduced columns (u0, u1, w0, w1) of R(theta) [[1/sqrt(y), x/sqrt(y)], [0, sqrt(y)]]."""
    sy = np.sqrt(y)
    c, s = np.cos(theta), np.sin(theta)
    b00, b01 = 1.0 / sy, x / sy
    return c * b00, s * b00, c * b01 - s * sy, s * b01 + c * sy


def gauss_reduce_batch(B):
    """Lagrange-reduce the column pairs of a (N,2,2) stack.

    Returns the reduced columns u = (u0, u1) and w = (w0, w1) as four
    1-D arrays.  Each pass swaps u and w where w is shorter and then
    subtracts the nearest-integer multiple of u from w; a row that
    neither swaps nor gets a nonzero multiple never changes again, so it
    is written back and leaves the active set.  A row still active after
    MAX_PASSES passes (not converged, or a norm that underflowed to NaN)
    raises InvariantViolation instead of coming back unreduced.
    """
    n = len(B)
    U0, U1 = B[:, 0, 0].copy(), B[:, 1, 0].copy()
    W0, W1 = B[:, 0, 1].copy(), B[:, 1, 1].copy()
    rows = np.arange(n)
    u0, u1, w0, w1 = U0, U1, W0, W1
    nu = u0 * u0 + u1 * u1  # w alone changes in a pass, so |u|^2 carries over
    for _ in range(MAX_PASSES + 1):
        nw = w0 * w0 + w1 * w1
        swap = nw < nu
        if swap.any():
            u0, w0 = np.where(swap, w0, u0), np.where(swap, u0, w0)
            u1, w1 = np.where(swap, w1, u1), np.where(swap, u1, w1)
            nu = np.where(swap, nw, nu)
        mu = np.rint((u0 * w0 + u1 * w1) / nu)
        active = swap | (mu != 0)
        if not active.all():
            if len(rows) == n and not active.any():  # nothing dropped yet: the working arrays are the result
                return u0, u1, w0, w1
            done = ~active
            idx = rows[done]
            U0[idx], U1[idx], W0[idx], W1[idx] = u0[done], u1[done], w0[done], w1[done]
            rows = rows[active]
            u0, u1, w0, w1, nu, mu = u0[active], u1[active], w0[active], w1[active], nu[active], mu[active]
        if not len(rows):
            return U0, U1, W0, W1
        w0 = w0 - mu * u0
        w1 = w1 - mu * u1
    raise InvariantViolation(
        f"Gauss reduction left {len(rows)} of {n} rows unreduced after {MAX_PASSES} passes "
        "(no convergence, or a norm outside the float64 range)"
    )


def delta2_batch(B, norm="sup"):
    """Exact shortest-vector length for each 2x2 basis in the stack."""
    if norm not in ("sup", "euclid"):
        raise ValidationError("norm", f"unknown norm {norm!r}")
    u0, u1, w0, w1 = gauss_reduce_batch(B)
    if norm == "euclid":
        return np.sqrt(np.minimum(u0 * u0 + u1 * u1, w0 * w0 + w1 * w1))
    return reduced_sup_min(u0, u1, w0, w1)


def reduced_sup_min(u0, u1, w0, w1):
    """The least sup norm of u, w, u + w, u - w for a reduced pair: float64, from any float precision.

    Components are rounded to float64 before abs and max; rounding is monotone and odd, so this is the
    minimum in the inputs' precision, rounded (a component past float64's range rounds to inf; minima are <= 1).
    """
    with np.errstate(over="ignore"):
        best = np.maximum(np.abs(u0, dtype=float), np.abs(u1, dtype=float))
        for v0, v1 in ((w0, w1), (u0 + w0, u1 + w1), (u0 - w0, u1 - w1)):
            best = np.minimum(best, np.maximum(np.abs(v0, dtype=float), np.abs(v1, dtype=float)))
    return best


def _require_samples(n_samples):
    """n_samples as an int (`require_int`), refused with BudgetExceeded past DRAW_BUDGET before any work."""
    if require_int("n-samples", n_samples) > DRAW_BUDGET:
        raise BudgetExceeded(f"{int(n_samples)} samples, budget is {DRAW_BUDGET}")
    return int(n_samples)


def _require_d2(w):
    if w.d != 2:
        raise ValidationError("dim", "Haar sampling is implemented for d = 2 only")


def siegel_prediction(eps, w):
    """Primitive-vector Siegel density: 2^d eps^d / (2 zeta(d)).

    The region {quasinorm < eps} is a box of volume (2 eps)^d; the
    primitive Siegel constant is 1/zeta(d) and vectors come in +/-
    pairs, hence the 2 in the denominator.  For d = 2 this is
    12 eps^2 / pi^2.
    """
    _require_d2(w)
    return (2.0**w.d) * eps**w.d / (2.0 * (math.pi**2 / 6.0))  # zeta(2) = pi^2 / 6


def estimate_mu_U(eps, w, n_samples, seed, threads=1):
    """Monte Carlo estimate of mu({delta_w < eps}) with the Siegel prediction.

    At d = 2 the weighted quasinorm is the sup norm.
    """
    _require_d2(w)
    if not 0 <= eps < math.inf:
        raise ValidationError("eps", "must be nonnegative and finite")
    n_samples = _require_samples(n_samples)

    def work(rng, count):
        u0, u1, w0, w1 = _columns(*sample_batch(rng, count)[:3])
        # reduced all the same: the benchmark tracer's test asserts one delta2_batch span per chunk here
        return int(np.count_nonzero(delta2_batch(np.stack([u0, w0, u1, w1], 1).reshape(-1, 2, 2)) < eps))

    hits = sum(rngmod.chunked_map(work, n_samples, seed, stream_id=1, threads=threads))
    mean = hits / n_samples
    stderr = math.sqrt(max(mean * (1.0 - mean), 0.0) / n_samples)
    pred = siegel_prediction(eps, w) if 0 < eps < 1 else None
    warn = "small-count: fewer than 20 hits, stderr unreliable" if 0 < hits < 20 else None
    return MeasureEstimate(
        eps=float(eps),
        n_samples=n_samples,
        hits=int(hits),
        mean=mean,
        stderr=stderr,
        prediction=pred,
        warning=warn,
    )


def sampler_calibration(n_samples, seed, threads=1):
    """Empirical tail Pr[y >= c] and rejection acceptance rate.

    The stated density integrates to Pr[y >= c] = 3/(c pi) for c >= 1
    (the x-strip has width 1 and the domain mass is pi/3).
    """
    n_samples = _require_samples(n_samples)

    def work(rng, count):
        x, y, theta, proposed = sample_batch(rng, count)
        tail = [int(np.count_nonzero(y >= cut)) for cut in Y_CUTS]
        u0, u1, w0, w1 = _columns(x, y, theta)
        dmax = float(np.max(np.sqrt(np.minimum(u0 * u0 + u1 * u1, w0 * w0 + w1 * w1))))
        return tail, proposed, dmax

    out = rngmod.chunked_map(work, n_samples, seed, stream_id=2, threads=threads)
    tails = np.sum([o[0] for o in out], axis=0)
    proposed = sum(o[1] for o in out)
    return {
        "y_cuts": list(Y_CUTS),
        "tail_fractions": (tails / n_samples).tolist(),
        "tail_analytic": [3.0 / (c * math.pi) for c in Y_CUTS],
        "acceptance_rate": n_samples / proposed,
        "max_delta_euclid": max(o[2] for o in out),
        "n_samples": n_samples,
    }


def nondivergence_profile(x, w, t, eps_grid, n_samples, seed, threads=1):
    """Fractions of h in B^P(2) with delta(g_t u_h x, sup) < eps (t >= 0), with a log-log fit.

    h is uniform on the cube {||A||_inf < 2}; the fractions share one
    sample set across the eps grid (common random numbers), so they are
    monotone in eps by construction.
    """
    _require_d2(w)
    if not t >= 0:
        raise ValidationError("t", "must be nonnegative")
    eps_grid = sorted((float(e) for e in eps_grid), reverse=True)
    if len(eps_grid) < 3:
        raise ValidationError("eps-grid", "need at least 3 epsilon values")
    if len(eps_grid) > EPS_GRID_MAX:
        raise ValidationError("eps-grid", f"{len(eps_grid)} epsilon values, at most {EPS_GRID_MAX}")
    if not all(0 < e < math.inf for e in eps_grid):
        raise ValidationError("eps-grid", "epsilons must be positive and finite")
    n_samples = _require_samples(n_samples)
    B = x.basis
    log_b = math.log(float(np.max(np.abs(B))))
    # entries of g_t u_h B with |h| <= 2 stay below 3 max|B| e^|t|, so the squared
    # norms the reduction forms stay below 2 (3 max|B|)^2 e^{2|t|}: keep that finite
    t_cap = (T_LIMIT - math.log(2.0) - 2.0 * (math.log(3.0) + log_b)) / 2.0
    if not abs(t) <= t_cap:
        raise ValidationError("t", f"squared norms of g_t u_h x overflow float64: need |t| <= {t_cap:.6g}")
    et, emt = math.exp(t), math.exp(-t)
    # the float reduction of g_t u_h x loses about e^{2t} max|B|^2 2^-52 in absolute terms
    log_err = 2.0 * t + 2.0 * log_b - 52.0 * math.log(2.0)
    warning = None
    if log_err > math.log(1e-3 * min(eps_grid)):
        warning = (
            f"float Gauss reduction roundoff e^(2t) max|B|^2 2^-52 ~ 10^{log_err / math.log(10.0):.1f} "
            f"exceeds 1e-3 min(eps_grid) at t = {t:g}: fractions may be inaccurate"
        )

    def work(rng, count):
        h = rng.uniform(-2.0, 2.0, count)
        bases = np.empty((count, 2, 2))
        # g_t u_h B: top row (B0 + h B1) e^t, bottom row B1 e^-t
        bases[:, 0, :] = (B[0, :][None, :] + h[:, None] * B[1, :][None, :]) * et
        bases[:, 1, :] = B[1, :][None, :] * emt
        d = delta2_batch(bases, "sup")
        return np.array([int(np.count_nonzero(d < e)) for e in eps_grid])

    hits = np.sum(rngmod.chunked_map(work, n_samples, seed, stream_id=3, threads=threads), axis=0)
    fractions = hits / n_samples
    pos = fractions > 0
    if int(np.count_nonzero(pos)) < 3:
        raise DegenerateFit("fewer than 3 epsilon values with nonzero fraction")
    X = np.log(np.array(eps_grid)[pos])
    Y = np.log(fractions[pos])
    A = np.stack([X, np.ones_like(X)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = Y - (slope * X + intercept)
    dof = max(len(X) - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((X - X.mean()) ** 2)))
    half = _t_quantile_975(dof) * se
    return ScalingFit(
        eps_grid=list(eps_grid),
        fractions=fractions.tolist(),
        slope=float(slope),
        slope_ci=(float(slope) - half, float(slope) + half),
        warning=warning,
    )


def _t_quantile_975(dof):
    """The 0.975 quantile of Student's t with dof degrees of freedom (scipy's stdtrit(dof, 0.975)).

    For integer dof, P(|T| <= t) is a finite sum (Abramowitz-Stegun
    26.7.3-26.7.4): with cos^2 th = dof/(dof + t^2), it is
    sin th sum_k a_k cos^k th over k = dof - 2, dof - 4, ... >= 0, plus
    2 th/pi for odd dof, where a_0 = 1, a_1 = 2/pi and a_k = a_{k-2} (k - 1)/k.
    Its t-derivative is a_{dof-2} (dof - 1) cos^(dof+1) th / sqrt(dof), and
    (2/pi) cos^2 th at dof 1.  The sum is concave in t, so Newton from t = 0
    rises to the root.  Each power is exp((k/2) log cos^2 th): a rounded cos
    raised to the power dof would lose digits at large dof.
    """
    odd = dof % 2
    k = np.arange(odd, dof - 1, 2.0)
    a = np.cumprod(np.concatenate(([2 / math.pi if odd else 1.0], (k[1:] - 1) / k[1:])))[: k.size]
    slope = a[-1] * (dof - 1) if dof > 1 else 2 / math.pi
    t = 0.0
    for _ in range(100):
        log_c2 = -math.log1p(t * t / dof)  # log cos^2 th without cancellation
        theta = math.atan(t / math.sqrt(dof))
        p = math.sin(theta) * float(np.sum(a * np.exp(0.5 * k * log_c2))) + (2 * theta / math.pi if odd else 0.0)
        step = (0.95 - p) / (slope * math.exp(0.5 * (dof + 1) * log_c2) / math.sqrt(dof))
        t += step
        if step <= 1e-13 * t:  # a step that does not rise is roundoff
            return t
    raise InvariantViolation(f"t quantile at dof = {dof} did not converge")


def admissible_radius(eps, w):
    """Largest perturbation radius the inner-core inclusion is stated for."""
    return (2.0**w.alpha - 1.0) / (w.d * C11) * eps ** max(w.m, w.n)


def _perturbations(prng, r, C11, count):
    """The first `count` accepted g in stream order, and the candidates rejected before the last.

    A candidate g = (I + r R/||R||)/sqrt(det) comes from four normals R
    and is accepted when det > 0 and max(||g - I||, ||g^-1 - I||) <=
    C11 r.  Candidates are drawn and tested in stacked blocks; a block
    may overdraw the stream past the last candidate used, which nothing
    sees because nothing reads the stream afterwards.  PERTURB_TRIES
    rejections in a row raise BudgetExceeded.
    """
    eye = np.eye(2)
    accepted = [np.empty((0, 2, 2))]
    have = 0
    last = -1  # stream position of the last accepted candidate
    start = 0  # stream position of the block's first candidate
    while have < count:
        block = min(count - have + 256, 1 << 14)
        R = prng.normal(size=(block, 2, 2))
        g = eye + r * (R / np.linalg.svd(R, compute_uv=False)[:, :1, None])
        det = np.linalg.det(g)
        pos = np.flatnonzero(det > 0)
        g = g[pos] / np.sqrt(det[pos])[:, None, None]
        op = np.maximum(
            np.linalg.svd(g - eye, compute_uv=False)[:, 0],
            np.linalg.svd(np.linalg.inv(g) - eye, compute_uv=False)[:, 0],
        )
        keep = np.flatnonzero(op <= C11 * r)[: count - have]
        pos = start + pos[keep]
        accepted.append(g[keep])
        have += len(pos)
        start += block
        # while candidates are still needed, the wait after the last acceptance counts too
        ends = pos if have == count else np.append(pos, start)
        if np.any(np.diff(ends, prepend=last) > PERTURB_TRIES):
            raise BudgetExceeded("perturbation renormalization kept failing")
        if len(pos):
            last = int(pos[-1])
    return np.concatenate(accepted), last + 1 - count


@dataclass(frozen=True)
class InclusionReport:
    pairs: int
    violations: int
    r_used: float
    admissible_r: float
    within_admissible: bool
    renorm_rejects: int


def core_inclusion_check(eps, r, w, n_samples, n_perturb, seed):
    """Check U(eps/2) stays inside U(eps) under perturbations of size r.

    Haar samples are filtered to delta_w < eps/2; each gets n_perturb
    random g = (I + r R)/sqrt(det), R normalized to operator norm 1,
    re-verified to satisfy max(||g-I||, ||g^-1-I||) <= C11 r.  Within
    the admissible radius the inclusion is unconditional, so the
    expected violation count is zero; beyond it the count is
    informational.  The g are the first accepted candidates of one
    stream, in order; renorm_rejects counts the candidates rejected
    before the last one used, and PERTURB_TRIES rejections in a row
    raise BudgetExceeded.  More than PAIR_BUDGET pairs, or an expected
    n_samples pi^2 / (3 eps^2) Haar draws above DRAW_BUDGET, raise
    BudgetExceeded before anything is drawn.
    """
    _require_d2(w)
    if not 0 < eps < math.inf:
        raise ValidationError("eps", "must be positive and finite")
    if not 0 <= r < math.inf:
        raise ValidationError("r", "must be nonnegative and finite")
    n_samples = require_int("n-samples", n_samples)
    n_perturb = require_int("n-perturb", n_perturb)
    if n_samples * n_perturb > PAIR_BUDGET:
        raise BudgetExceeded(f"{n_samples * n_perturb} sample-perturbation pairs, budget is {PAIR_BUDGET}")
    # U(eps/2) has Haar mass about 3 eps^2 / pi^2
    expected = n_samples * math.pi**2 / (3.0 * eps**2)
    if expected > DRAW_BUDGET:
        raise BudgetExceeded(
            f"about {expected:.3g} Haar draws to collect {n_samples} samples inside U(eps/2), budget is {DRAW_BUDGET}"
        )
    adm = admissible_radius(eps, w)
    rng = rngmod.stream(seed, stream_id=4)
    half = eps / 2.0
    keep = []
    kept = drawn = 0
    while kept < n_samples:
        if drawn > DRAW_BUDGET:
            raise BudgetExceeded("could not collect enough samples inside U(eps/2)")
        u0, u1, w0, w1 = _columns(*sample_batch(rng, 1 << 15)[:3])
        drawn += 1 << 15
        k = reduced_sup_min(u0, u1, w0, w1) < half
        keep.append(np.stack([u0[k], w0[k], u1[k], w1[k]], 1))
        kept += len(keep[-1])
    bases = np.concatenate(keep)[:n_samples].reshape(-1, 2, 2)

    g, renorm_rejects = _perturbations(rngmod.stream(seed, stream_id=5), r, C11, n_samples * n_perturb)
    perturbed = g @ np.repeat(bases, n_perturb, axis=0)
    violations = int(np.count_nonzero(delta2_batch(perturbed, "sup") >= eps))
    return InclusionReport(
        pairs=n_samples * n_perturb,
        violations=violations,
        r_used=float(r),
        admissible_r=float(adm),
        within_admissible=bool(r <= adm),
        renorm_rejects=renorm_rejects,
    )
