"""Haar Monte Carlo on the space of unimodular planar lattices.

Sampling uses the classical fundamental domain of the modular surface:
tau = x + i y with |x| <= 1/2, x^2 + y^2 >= 1, carrying the hyperbolic
area density dx dy / y^2 (total mass pi/3), plus an independent
rotation theta uniform on [0, pi) because lattices related by rotation
are distinct points of SL_2(R)/SL_2(Z).  y is drawn by inverting the
1/y^2 tail CDF on [sqrt(3)/2, inf), x uniformly, and proposals with
x^2 + y^2 < 1 are rejected (acceptance (pi/3)/(2/sqrt(3)) ~ 0.9069).

The per-sample cusp function uses a vectorized Gauss (Lagrange)
reduction of the 2x2 bases; from a reduced basis the sup-norm minimum
is attained at coefficients (1,0), (0,1), (1,1) or (1,-1), since any
sup minimizer has euclid norm <= sqrt(2) lambda_1 and therefore
a^2 - |ab| + b^2 <= 2.  Everything is exact up to float roundoff and
cross-validated against the enumeration path in the tests.  Haar bases
have moderate entries, so a float reduction suffices here; the flowed
bases of the survivor cover need the integer-tracked, long-double
kernel in `covering`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as tdist

from . import rng as rngmod
from .errors import (
    BudgetExceeded,
    DegenerateFit,
    SamplerStall,
    UnsupportedDimension,
    ValidationError,
)

Y_MIN = math.sqrt(3.0) / 2.0
ACCEPT_RATE = (math.pi / 3.0) / (2.0 / math.sqrt(3.0))  # ~0.906900


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


def _propose(rng, count):
    u = rng.random(count)
    y = Y_MIN / (1.0 - u)
    x = rng.uniform(-0.5, 0.5, count)
    return x, y


def sample_batch(rng, count, cap=None):
    """Vectorized rejection sampler; returns (x, y, theta, n_proposed)."""
    if cap is None:
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
                raise SamplerStall(f"rejection sampler exceeded {cap} proposals")
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


def _bases(x, y, theta):
    """Stack of basis matrices R(theta) [[1/sqrt(y), x/sqrt(y)], [0, sqrt(y)]]."""
    sy = np.sqrt(y)
    N = len(x)
    B = np.empty((N, 2, 2))
    c, s = np.cos(theta), np.sin(theta)
    b00, b01, b10, b11 = 1.0 / sy, x / sy, np.zeros(N), sy
    B[:, 0, 0] = c * b00 - s * b10
    B[:, 0, 1] = c * b01 - s * b11
    B[:, 1, 0] = s * b00 + c * b10
    B[:, 1, 1] = s * b01 + c * b11
    return B


def gauss_reduce_batch(B):
    """Lagrange-reduce the column pairs of a (N,2,2) stack; returns (u, w) columns."""
    u = B[:, :, 0].copy()
    w = B[:, :, 1].copy()
    for _ in range(64):
        nu = np.sum(u * u, axis=1)
        nw = np.sum(w * w, axis=1)
        swap = nw < nu
        if np.any(swap):
            us = u[swap].copy()
            u[swap] = w[swap]
            w[swap] = us
            nu = np.where(swap, nw, nu)
        mu = np.rint(np.sum(u * w, axis=1) / nu)
        if not np.any(swap) and not np.any(mu):
            break
        w -= mu[:, None] * u
    return u, w


def delta2_batch(B, norm="sup"):
    """Exact shortest-vector length for each 2x2 basis in the stack."""
    u, w = gauss_reduce_batch(B)
    if norm == "euclid":
        return np.sqrt(np.minimum(np.sum(u * u, axis=1), np.sum(w * w, axis=1)))
    if norm != "sup":
        raise ValidationError("norm", f"unknown norm {norm!r}")
    best = None
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        v = a * u + b * w
        s = np.max(np.abs(v), axis=1)
        best = s if best is None else np.minimum(best, s)
    return best


def _require_d2(w):
    if w.d != 2:
        raise UnsupportedDimension("Haar sampling is implemented for d = 2 only")


def siegel_prediction(eps, w):
    """Primitive-vector Siegel density: 2^d eps^d / (2 zeta(d)).

    The region {quasinorm < eps} is a box of volume (2 eps)^d; the
    primitive Siegel constant is 1/zeta(d) and vectors come in +/-
    pairs, hence the 2 in the denominator.  For d = 2 this is
    12 eps^2 / pi^2.
    """
    _require_d2(w)
    return (2.0**w.d) * eps**w.d / (2.0 * _zeta(w.d))


def _zeta(d):
    if d == 2:
        return math.pi**2 / 6.0
    return float(sum(k ** (-float(d)) for k in range(1, 200000)))


def estimate_mu_U(eps, w, n_samples, seed, threads=1, norm="quasi", theta_mode="sample"):
    """Monte Carlo estimate of mu({delta_w < eps}) with the Siegel prediction.

    norm="quasi" uses the weighted quasinorm (= sup norm at d = 2);
    norm="euclid" is for rotation-invariance diagnostics.  theta_mode=
    "zero" skips the rotation (only legitimate for euclid).
    """
    _require_d2(w)
    if eps < 0:
        raise ValidationError("eps", "must be nonnegative")
    if norm not in ("quasi", "euclid"):
        raise ValidationError("norm", f"unknown norm {norm!r}")
    knorm = "sup" if norm == "quasi" else "euclid"

    def work(rng, count, _):
        x, y, theta, _p = sample_batch(rng, count)
        if theta_mode == "zero":
            theta = np.zeros_like(theta)
        d = delta2_batch(_bases(x, y, theta), knorm)
        return int(np.count_nonzero(d < eps))

    hits = sum(rngmod.chunked_map(work, int(n_samples), seed, stream_id=1, threads=threads))
    mean = hits / n_samples
    stderr = math.sqrt(max(mean * (1.0 - mean), 0.0) / n_samples)
    pred = siegel_prediction(eps, w) if 0 < eps < 1 else None
    warn = "small-count: fewer than 20 hits, stderr unreliable" if 0 < hits < 20 else None
    return MeasureEstimate(
        eps=float(eps),
        n_samples=int(n_samples),
        hits=int(hits),
        mean=mean,
        stderr=stderr,
        prediction=pred,
        warning=warn,
    )


def sampler_calibration(n_samples, seed, threads=1, y_cuts=(1.5, 2.0, 3.0)):
    """Empirical tail Pr[y >= c] and rejection acceptance rate.

    The stated density integrates to Pr[y >= c] = 3/(c pi) for c >= 1
    (the x-strip has width 1 and the domain mass is pi/3).
    """

    def work(rng, count, _):
        x, y, theta, proposed = sample_batch(rng, count)
        tail = [int(np.count_nonzero(y >= cut)) for cut in y_cuts]
        dmax = float(np.max(delta2_batch(_bases(x, y, theta), "euclid")))
        return tail, proposed, count, dmax

    out = rngmod.chunked_map(work, int(n_samples), seed, stream_id=2, threads=threads)
    tails = np.sum([o[0] for o in out], axis=0)
    proposed = sum(o[1] for o in out)
    accepted = sum(o[2] for o in out)
    return {
        "y_cuts": list(y_cuts),
        "tail_fractions": (tails / n_samples).tolist(),
        "tail_analytic": [3.0 / (c * math.pi) for c in y_cuts],
        "acceptance_rate": accepted / proposed,
        "max_delta_euclid": max(o[3] for o in out),
        "n_samples": int(n_samples),
    }


def nondivergence_profile(x, w, t, eps_grid, n_samples, seed, threads=1):
    """Fractions of h in B^P(2) with delta(g_t u_h x, sup) < eps, with a log-log fit.

    h is uniform on the cube {||A||_inf < 2}; the fractions share one
    sample set across the eps grid (common random numbers), so they are
    monotone in eps by construction.
    """
    _require_d2(w)
    eps_grid = sorted((float(e) for e in eps_grid), reverse=True)
    if len(eps_grid) < 3:
        raise ValidationError("eps_grid", "need at least 3 epsilon values")
    if min(eps_grid) <= 0:
        raise ValidationError("eps_grid", "epsilons must be positive")
    B = x.basis
    et, emt = math.exp(t), math.exp(-t)

    def work(rng, count, _):
        h = rng.uniform(-2.0, 2.0, count)
        bases = np.empty((count, 2, 2))
        # g_t u_h B: top row (B0 + h B1) e^t, bottom row B1 e^-t
        bases[:, 0, :] = (B[0, :][None, :] + h[:, None] * B[1, :][None, :]) * et
        bases[:, 1, :] = B[1, :][None, :] * emt
        d = delta2_batch(bases, "sup")
        return np.array([int(np.count_nonzero(d < e)) for e in eps_grid])

    hits = np.sum(
        rngmod.chunked_map(work, int(n_samples), seed, stream_id=3, threads=threads), axis=0
    )
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
    half = float(tdist.ppf(0.975, dof)) * se
    return ScalingFit(
        eps_grid=list(eps_grid),
        fractions=fractions.tolist(),
        slope=float(slope),
        slope_ci=(float(slope) - half, float(slope) + half),
    )


def admissible_radius(eps, w, C11=2.0):
    """Largest perturbation radius the inner-core inclusion is stated for."""
    return (2.0**w.alpha - 1.0) / (w.d * C11) * eps ** max(w.m, w.n)


@dataclass(frozen=True)
class InclusionReport:
    pairs: int
    violations: int
    r_used: float
    admissible_r: float
    within_admissible: bool
    renorm_rejects: int


def core_inclusion_check(eps, r, w, n_samples, n_perturb, seed, C11=2.0, threads=1):
    """Check U(eps/2) stays inside U(eps) under perturbations of size r.

    Haar samples are filtered to delta_w < eps/2; each gets n_perturb
    random g = (I + r R)/sqrt(det), R normalized to operator norm 1,
    re-verified to satisfy max(||g-I||, ||g^-1-I||) <= C11 r.  Within
    the admissible radius the inclusion is unconditional, so the
    expected violation count is zero; beyond it the count is
    informational.
    """
    _require_d2(w)
    if r < 0:
        raise ValidationError("r", "must be nonnegative")
    adm = admissible_radius(eps, w, C11)
    rng = rngmod.stream(seed, stream_id=4)
    half = eps / 2.0
    keep = []
    proposed = 0
    while sum(len(k) for k in keep) < n_samples:
        if proposed > 10**8:
            raise BudgetExceeded("could not collect enough samples inside U(eps/2)")
        x, y, theta, _ = sample_batch(rng, 1 << 15)
        proposed += 1 << 15
        bases = _bases(x, y, theta)
        d = delta2_batch(bases, "sup")
        keep.append(bases[d < half])
    bases = np.concatenate(keep)[:n_samples]

    prng = rngmod.stream(seed, stream_id=5)
    perturbed = []
    renorm_rejects = 0
    for s in range(n_samples):
        for _ in range(n_perturb):
            for _try in range(1000):
                R = prng.normal(size=(2, 2))
                R /= np.linalg.svd(R, compute_uv=False)[0]
                g = np.eye(2) + r * R
                det = float(np.linalg.det(g))
                if det <= 0:
                    renorm_rejects += 1
                    continue
                g /= math.sqrt(det)
                gi = np.linalg.inv(g)
                op = max(
                    float(np.linalg.svd(g - np.eye(2), compute_uv=False)[0]),
                    float(np.linalg.svd(gi - np.eye(2), compute_uv=False)[0]),
                )
                if r > 0 and op > C11 * r:
                    renorm_rejects += 1
                    continue
                break
            else:
                raise BudgetExceeded("perturbation renormalization kept failing")
            perturbed.append(g @ bases[s])
    violations = int(np.count_nonzero(delta2_batch(np.array(perturbed).reshape(-1, 2, 2), "sup") >= eps))
    return InclusionReport(
        pairs=n_samples * n_perturb,
        violations=violations,
        r_used=float(r),
        admissible_r=float(adm),
        within_admissible=bool(r <= adm),
        renorm_rejects=renorm_rejects,
    )
