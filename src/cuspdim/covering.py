"""Tessellations, Bowen-box counting, survivor covers, and dimension fits.

The unipotent coordinate space P = M_{m,n}(R) (dimension L = mn) is
tiled by cubes of side r/(4 sqrt(L)) on the grid side*Z^L, with the
representative cube (0, side)^L.  Conjugation by the time-t flow
contracts coordinate kappa = (k, l) by exp(-(i_k + j_l) t), giving the
anisotropic Bowen boxes.  Three computations live here:

  * count_S_rt      - exact number of grid translates whose Bowen box
                      meets the base cube, checked against an upper
                      bound of the product-volume form
  * survivor_cover  - the recursive cover of the set of h whose orbit
                      has not certifiably entered {delta_w < c^(1/d)}
                      by level k (centers tested at time k*t with a
                      conservative safety factor, so boxes are only
                      discarded when the whole box is certainly inside)
  * box_dimension_fit / cf_digit_oracle - a log-log box-count estimate
                      and a continued-fraction cylinder oracle that is
                      fully independent of the dynamical code path

For m = n = 1 the per-box cusp function is evaluated by an exact
integer-pair Gauss reduction: basis vectors of g_T u_h x0 are tracked
as integer combinations of the original generators and re-expanded in
extended precision each step, because a naive float reduction loses
the short vector once e^{2T} exceeds 1/eps_machine.  The cover keeps
the reduced integer basis of every kept box, and each child's
reduction starts from its parent's (the child's h moves by less than
the parent's side, so a few steps finish it); each pass of the
reduction runs only on the rows not yet reduced.  Coefficients past the
exact-int64 range raise CoefficientBudgetExceeded.  Other weights and
dimensions evaluate delta_w(g_T u_h x0) by exact enumeration per box.
The float reduction in `haar` stays separate: one integer-tracked
reducer for both was either less accurate with float64 expansion or
about twice as slow on Haar batches with long double.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    BudgetExceeded,
    CoefficientBudgetExceeded,
    DegenerateFit,
    DimensionMismatch,
    InvariantViolation,
    ValidationError,
    require_int,
)
from .flows import T_LIMIT, cusp_radius, g_t, u_A
from .lattices import delta_weighted, make_lattice

BOX_BUDGET = 10**7
CF_BUDGET = 10**7
KERNEL_BLOCK = 1 << 14  # rows per block of the d = 2 kernel (~4 MB of working arrays)
R_CAP = 1.0
_NEAR_INT_TOL = 1e-9


@dataclass(frozen=True)
class Tessellation:
    """Cubes of the given side on the grid side*Z^L; base cube (0, side)^L."""

    L: int
    side: float


def tessellation_new(L, r):
    L = require_int("L", L)
    if not 0 < r < math.inf:
        raise ValidationError("r", "must be positive and finite")
    return Tessellation(L=L, side=float(r) / (4.0 * math.sqrt(L)))


def _lambdas(w):
    """Contraction rates i_k + j_l, coordinate order (k, l) row-major."""
    return np.array([ik + jl for ik in w.i for jl in w.j])


def _per_axis_count(E):
    """Translates of a length-1/E interval meeting (0, 1), open boxes.

    Exactly ceil(E), except that E within relative _NEAR_INT_TOL of an
    integer is taken as that integer (the open intervals then tile
    without the extra boundary translate).
    """
    R = round(E)
    if abs(E - R) <= _NEAR_INT_TOL * E:
        return int(R)
    return int(math.ceil(E))


def count_S_rt(tess, w, t):
    """Exact count of gamma in Lambda_r with g_{-t} V_r gamma g_t meeting V_r."""
    if not 0 <= t < math.inf:
        raise ValidationError("t", "must be nonnegative and finite")
    if tess.L != w.m * w.n:
        raise DimensionMismatch(f"tessellation L={tess.L} != m*n={w.m * w.n}")
    total = 1
    for lam in _lambdas(w):
        total *= _per_axis_count(math.exp(lam * t))
    return total


def count_S_rt_brute(tess, w, t):
    """Independent enumeration oracle: test every translate's interval overlap.

    Works per coordinate (the boxes are axis-aligned products) over
    |gamma_kappa| <= ceil(e^{lambda_max t}) + 2, with the same relative
    tolerance convention for the open-interval comparisons.
    """
    if not 0 <= t < math.inf:
        raise ValidationError("t", "must be nonnegative and finite")
    total = 1
    for lam in _lambdas(w):
        f = math.exp(-lam * t)
        G = int(math.ceil(math.exp(lam * t))) + 2
        cnt = 0
        for gamma in range(-G, G + 1):
            lo = gamma * f
            hi = (gamma + 1) * f
            # open intervals (lo, hi) vs (0, 1) in units of the cube side
            if lo < 1.0 - _NEAR_INT_TOL and hi > _NEAR_INT_TOL:
                cnt += 1
        total *= cnt
    return total


def lemma61_bound(tess, w, t, K3):
    """Volume-ratio bound e^{(sum lambda) t} (1 + K3 e^{-lambda0 t} / vol(V_r)), lambda0 = min lambda."""
    if not 0 < K3 < math.inf:
        raise ValidationError("K3", "must be positive and finite")
    lams = _lambdas(w)
    lam0 = float(np.min(lams))
    vol = tess.side**tess.L
    return math.exp(float(np.sum(lams)) * t) * (1.0 + K3 * math.exp(-lam0 * t) / vol)


def calibrate_K3(tess, w, t_grid):
    """Smallest K3 making the bound dominate the exact count on the grid.

    Measured once as the max observed excess; any larger K3 also works.
    """
    lams = _lambdas(w)
    lam0 = float(np.min(lams))
    vol = tess.side**tess.L
    need = 1e-12
    for t in t_grid:
        exact = count_S_rt(tess, w, t)
        ratio = math.exp(float(np.sum(lams)) * t)
        excess = (exact / ratio - 1.0) * vol * math.exp(lam0 * t)
        need = max(need, excess)
    return need * (1.0 + 1e-12)


@dataclass(frozen=True)
class CoverLevel:
    k: int
    centers: np.ndarray  # (count, L)
    half_sides: np.ndarray  # (L,) uniform within the level
    count: int

    @property
    def box_size(self):
        """The longest side of the level's boxes."""
        return 2.0 * float(np.max(self.half_sides))


@dataclass(frozen=True)
class CoverResult:
    """The CoverLevels in order (iterable) plus run metadata."""

    levels: list
    truncated: bool
    eps: float
    safety: float
    total_boxes: int

    def __iter__(self):
        return iter(self.levels)


def _coeff_guard(*arrays):
    # int64 products in the reduction stay exact only below 2^31
    for a in arrays:
        if np.any(np.abs(a) > (1 << 31)):
            raise CoefficientBudgetExceeded("Gauss reduction coefficients exceeded the exact-int64 range 2^31")


def sup_delta_flow_batch(h, T, basis, coeffs):
    """Exact delta_sup(g_T u_h x0) for a batch of h, d = 2, equal weights.

    Integer coefficient pairs of both working basis vectors are carried
    through the Gauss reduction and re-expanded in extended precision
    every step; with |coeffs| <= 2^31 the arithmetic is exact (beyond it
    CoefficientBudgetExceeded is raised), and the final sup minimizer
    over a reduced pair has coefficients in {(1,0), (0,1), (1,1), (1,-1)}
    (a^2 - |ab| + b^2 <= 2).

    The reduction starts from the unimodular integer rows (a1, b1, a2,
    b2) of the (4, N) int64 array `coeffs`, which is overwritten with
    the reduced rows.  A start that is already nearly reduced, such as a
    parent box's basis at an earlier time, needs only a few steps.  Each
    pass runs only on the rows still active: a row leaves once it has no
    swap and mu = 0.  Every reduced basis holds the same minimal vectors,
    so the values do not depend on the start.  Rows go through in blocks
    of KERNEL_BLOCK, which bounds the long-double working memory.
    """
    h = np.asarray(h, dtype=np.longdouble)
    N = h.shape[0]
    B = np.asarray(basis, dtype=np.longdouble)
    eT = np.exp(np.longdouble(T))
    emT = np.exp(-np.longdouble(T))
    out = np.empty(N)
    for lo in range(0, N, KERNEL_BLOCK):
        rows = slice(lo, lo + KERNEL_BLOCK)
        out[rows] = _reduce_block(h[rows], coeffs[:, rows], B, eT, emT)
    return out


def _reduce_block(h, coeffs, B, eT, emT):
    """The sup-minimum for one block of rows, reducing `coeffs` in place."""

    def vecs(a, b, h):
        v1 = B[0, 0] * a + B[0, 1] * b
        v2 = B[1, 0] * a + B[1, 1] * b
        return eT * (v1 + h * v2), emT * v2

    def sup(x, y):
        return np.maximum(np.abs(x), np.abs(y))

    best = np.empty(len(h), dtype=np.longdouble)
    rows, hr, C = np.arange(len(h)), h, coeffs
    u0, u1 = vecs(C[0], C[1], hr)
    n1 = u0 * u0 + u1 * u1
    for _ in range(96):
        w0, w1 = vecs(C[2], C[3], hr)
        n2 = w0 * w0 + w1 * w1
        swap = n2 < n1
        # the shorter vector goes first (its expansion is carried to the next
        # pass); the projection onto it is symmetric in the two vectors
        mu = np.rint((u0 * w0 + u1 * w1) / np.minimum(n1, n2)).astype(np.int64)
        C = np.where(swap, C[[2, 3, 0, 1]], C)
        C[2:] -= mu * C[:2]
        _coeff_guard(mu, C)
        u0, u1, n1 = np.where(swap, w0, u0), np.where(swap, w1, u1), np.minimum(n1, n2)
        done = ~swap & (mu == 0)
        if done.any():
            # a reduced row leaves, with the candidates (1,0) and (0,1) of its minimum
            coeffs[:, rows[done]] = C[:, done]
            best[rows[done]] = np.minimum(sup(u0[done], u1[done]), sup(w0[done], w1[done]))
            keep = ~done
            rows, hr, C, u0, u1, n1 = rows[keep], hr[keep], C[:, keep], u0[keep], u1[keep], n1[keep]
            if rows.size == 0:
                break
    else:
        raise InvariantViolation(f"Gauss reduction of {rows.size} rows did not converge in 96 passes")
    a1, b1, a2, b2 = coeffs
    for cb in (1, -1):
        best = np.minimum(best, sup(*vecs(a1 + cb * a2, b1 + cb * b2, h)))
    return best


def default_safety(w, side):
    """Quasinorm distortion of u_W with ||W||_inf <= side/2 (conjugated box radius).

    Exact multiplicative factor 1 + n side/2 at equal weights; for
    general weights the worst quasinorm exponent is applied on top,
    which is conservative.
    """
    return (1.0 + w.n * side / 2.0) ** (1.0 / float(np.min(w.powers)))


def _delta_at_centers(centers, T, x0, w, coeffs):
    """delta_w at the box centers; the d = 2 kernel starts from `coeffs` and updates them."""
    if coeffs is not None:
        return sup_delta_flow_batch(centers[:, 0], T, x0.basis, coeffs)
    G = g_t(w, T)
    out = np.empty(len(centers))
    for idx, hrow in enumerate(centers):
        U = u_A(hrow.reshape(w.m, w.n))
        out[idx] = delta_weighted(make_lattice(G @ U @ x0.basis), w)
    return out


def survivor_cover(x0, w, c, r, t, k_max, budget=BOX_BUDGET):
    """Recursive Bowen-box cover of the h whose orbit avoids U(c^(1/d)).

    Level 0 is the single cube V_r = (0, side)^L.  Level k+1 refines
    every surviving box into its conjugated-tessellation sub-boxes and
    keeps a sub-box unless its center certifiably enters U at time
    (k+1) t: survive iff delta_w(g_{(k+1)t} u_center x0) >= eps/safety
    (at d = 2, equal weights, each child's reduction starts from the
    reduced integer basis of its parent).  The safety factor,
    `default_safety`, covers the distance from the center to any point
    of the box after conjugation, so discarding is sound (conservative
    keep).  Children are placed on the refined grid from the parent's
    low corner, the last translate per axis snapped inward, so level
    k+1 boxes stay inside the closure of their parent while covering
    it (a check that raises InvariantViolation otherwise).  Hitting the
    total box budget truncates the run gracefully.
    """
    eps = cusp_radius(c, w.d)
    if not 0 < r <= R_CAP:
        raise ValidationError("r", f"must be in (0, {R_CAP}]")
    lams = _lambdas(w)
    t_cap = T_LIMIT / float(np.max(lams))
    if not 0 < t <= t_cap:
        raise ValidationError("t", f"must be positive with e^((i_k + j_l) t) finite: need t <= {t_cap:.6g}")
    k_max = require_int("k-max", k_max)
    budget = require_int("budget", budget)
    if x0.dim != w.d:
        raise DimensionMismatch(f"x0 dim {x0.dim} != weight dimension {w.d}")
    L = w.m * w.n
    tess = tessellation_new(L, r)
    side = tess.side
    safety = default_safety(w, side)
    thresh = eps / safety

    lows = np.zeros((1, L))
    sides0 = np.full(L, side)
    levels = [
        CoverLevel(k=0, centers=lows + sides0 / 2.0, half_sides=sides0 / 2.0, count=1)
    ]
    total = 1
    truncated = False
    m_axis = [_per_axis_count(math.exp(lam * t)) for lam in lams]
    n_children = math.prod(m_axis)
    # d = 2, equal weights: reduced integer bases of the kept boxes, so that
    # each child's reduction starts from its parent's (level 0: the identity)
    coeffs = np.array([[1], [0], [0], [1]], dtype=np.int64) if w.d == 2 else None
    for k in range(1, k_max + 1):
        child_sides = side * np.exp(-lams * k * t)
        parent_sides = side * np.exp(-lams * (k - 1) * t)
        if total + len(lows) * n_children > budget:
            truncated = True
            break
        offsets = []
        for ax in range(L):
            off = np.arange(m_axis[ax]) * child_sides[ax]
            # snap the last translate inward: containment in the parent
            # closure and full coverage both hold
            off = np.minimum(off, parent_sides[ax] - child_sides[ax])
            # nesting check: the furthest child edge stays within the parent
            if not off[-1] + child_sides[ax] <= parent_sides[ax] * (1 + 1e-12):
                raise InvariantViolation(f"level {k} children leave their parent box on axis {ax}")
            offsets.append(off)
        grids = np.meshgrid(*offsets, indexing="ij")
        off_grid = np.stack([g.reshape(-1) for g in grids], axis=1)
        child_lows = (lows[:, None, :] + off_grid[None, :, :]).reshape(-1, L)
        centers = child_lows + child_sides / 2.0
        total += len(centers)
        child_coeffs = None if coeffs is None else np.repeat(coeffs, n_children, axis=1)
        dvals = _delta_at_centers(centers, k * t, x0, w, child_coeffs)
        keep = dvals >= thresh
        lows = child_lows[keep]
        if coeffs is not None:
            coeffs = child_coeffs[:, keep]
        lvl = CoverLevel(
            k=k,
            centers=centers[keep],
            half_sides=child_sides / 2.0,
            count=int(np.count_nonzero(keep)),
        )
        levels.append(lvl)
        if lvl.count == 0:
            break
    return CoverResult(
        levels=levels,
        truncated=truncated,
        eps=eps,
        safety=float(safety),
        total_boxes=total,
    )


@dataclass(frozen=True)
class DimensionEstimate:
    levels_used: list
    log_counts: list
    slope: float
    intercept: float
    r2: float


def box_dimension_fit(levels, sizes=None):
    """Least-squares slope of log(count) against log(1/size).

    `levels` is a CoverResult/list of CoverLevel, whose level 0 (the
    single starting cube) is excluded as a transient, or a plain list of
    integer counts >= 0 paired with explicit `sizes`, one positive size
    per count, all of which are fitted.
    Needs >= 3 usable levels with positive counts.
    """
    if sizes is None:
        levels = [lv for lv in levels if lv.k > 0]
        ks = [lv.k for lv in levels]
        counts = [lv.count for lv in levels]
        sizes = [lv.box_size for lv in levels]
    else:
        ks = list(range(len(levels)))
        counts = [require_int("counts", n, least=0) for n in levels]
        sizes = [float(s) for s in sizes]
        if len(sizes) != len(counts) or not all(0 < s < math.inf for s in sizes):
            raise ValidationError("sizes", "need one positive finite size per count")
    pts = []
    for k, cnt, sz in zip(ks, counts, sizes):
        if cnt <= 0:
            break
        pts.append((k, math.log(1.0 / sz), math.log(cnt)))
    if len(pts) < 3:
        raise DegenerateFit(f"{len(pts)} usable levels, need >= 3")
    X = np.array([p[1] for p in pts])
    Y = np.array([p[2] for p in pts])
    A = np.stack([X, np.ones_like(X)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = Y - (slope * X + intercept)
    sstot = float(np.sum((Y - Y.mean()) ** 2))
    r2 = 1.0 if sstot < 1e-30 else max(0.0, 1.0 - float(np.sum(resid**2)) / sstot)
    return DimensionEstimate(
        levels_used=[p[0] for p in pts],
        log_counts=Y.tolist(),
        slope=float(slope),
        intercept=float(intercept),
        r2=min(1.0, r2),
    )


def _cf_lengths(N, depth):
    """Cylinder interval lengths 1/(q_k (q_k + q_{k-1})) at the given depth."""
    cur = np.array([1], dtype=np.int64)  # q_0
    prev = np.array([0], dtype=np.int64)  # q_{-1}
    digits = np.arange(1, N + 1, dtype=np.int64)
    for _ in range(depth):
        new_cur = (digits[:, None] * cur[None, :] + prev[None, :]).reshape(-1)
        prev = np.tile(cur, N)
        cur = new_cur
    q = cur.astype(np.float64)
    qp = prev.astype(np.float64)
    return 1.0 / (q * (q + qp))


def cf_digit_oracle(N, depth):
    """Box-dimension estimate of E_N = {all partial quotients <= N}.

    Enumerates all depth-level continued-fraction cylinders with digits
    <= N and returns the exponent s at which the total s-weighted
    cylinder length is the same at depths depth-1 and depth (the
    root of log sum l^s across two consecutive depths).  Entirely
    independent of the dynamical code path.
    """
    N = require_int("N", N)
    depth = require_int("depth", depth, least=4)
    if N**depth > CF_BUDGET:
        raise BudgetExceeded(f"N^depth = {N ** depth} exceeds cap {CF_BUDGET}")
    if N == 1:
        return 0.0  # single cylinder per depth: the one-point golden tail
    l_prev = _cf_lengths(N, depth - 1)
    l_cur = _cf_lengths(N, depth)

    def f(s):
        return math.log(float(np.sum(l_cur**s))) - math.log(float(np.sum(l_prev**s)))

    return float(brentq(f, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16))
