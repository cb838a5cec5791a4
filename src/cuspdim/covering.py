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
                      by level k (children tile their parent; centers
                      tested at time k*t with a conservative safety
                      factor, so boxes are only discarded when the
                      whole box is certainly inside)
  * box_dimension_fit / cf_digit_oracle - a log-log box-count estimate
                      and a continued-fraction cylinder oracle that is
                      fully independent of the dynamical code path

For m = n = 1 the per-box cusp function is evaluated by an
integer-tracked Gauss reduction: basis vectors of g_T u_h x0 are carried
as integer combinations of the original generators, so every step is
exact, and re-expanded each step, because a naive float reduction loses
the short vector once e^{2T} exceeds 1/eps_machine.  Each block of rows
is reduced in float64, which only picks the steps.  The values kernel,
`sup_delta_flow_batch`, then reduces in long double from those rows,
which checks them, and `haar.reduced_sup_min` evaluates the reduced pair
expanded in long double (relative error about 2^-64 e^{2T}).  The
survivor cover needs only whether a child's value clears eps/safety.
Its keep test, `_keep_flow_batch`, expands the float64-picked rows once
in float64 and bounds each component's distance from the long-double one
by 16 (u64 + u_ld) S, with S the sum of the absolute terms of the
expansion.  A row whose pair is Gauss-reduced with a margin above that
bound, and whose value clears the threshold by more than it, is decided
in float64: the long-double decision is proven the same.  Long double
runs only on the rows the bound leaves open (6 of 1.44 million rows in
one `cover_dim` benchmark pass).  Each child's reduction starts from its
parent's reduced integer basis (its h moves by less than the parent's
side, so a few steps finish it), and each pass runs only on the rows not
yet reduced.  Coefficients past the
exact-int64 range raise BudgetExceeded.  Other weights and dimensions
evaluate delta_w(g_T u_h x0) by exact enumeration per box.  The float
Gauss loop in `haar` stays separate: on its measured client, `nondiv`'s
flowed bases (2^16 rows of g_t u_h Z^2 at t = 4.5-6), it takes
0.015-0.026 s against this kernel's 0.045-0.066 s, and one
integer-tracked loop with float64 expansion was less accurate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DegenerateFit, InvariantViolation, ValidationError, require_int
from .flows import T_LIMIT, cusp_radius, g_t, u_A
from .haar import reduced_sup_min
from .lattices import CELL_BUDGET, delta_weighted, make_lattice

BOX_BUDGET = 10**7
CF_BUDGET = 10**7
KERNEL_BLOCK = 1 << 14  # rows per block of the d = 2 kernel (~4 MB of working arrays)
KERNEL_PASSES = 96  # Gauss reduction passes of the d = 2 kernel before a row counts as not converging
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


def _require_flow_time(t, rate, positive=False):
    """ValidationError("t") unless t >= 0 (t > 0 if `positive`) and e^(rate t) is finite."""
    t_cap = T_LIMIT / rate
    if not ((t > 0 if positive else t >= 0) and t <= t_cap):
        kind = "positive" if positive else "nonnegative"
        raise ValidationError("t", f"must be {kind} with e^((i_k + j_l) t) finite: need t <= {t_cap:.6g}")


def _flow_rates(w, t, positive=False):
    """The rates i_k + j_l, once t >= 0 (t > 0 if `positive`) and every e^((i_k + j_l) t) is finite."""
    lams = _lambdas(w)
    _require_flow_time(t, float(np.max(lams)), positive)
    return lams


def _volume_rate(w, t):
    """The sum of the rates i_k + j_l, once t >= 0 and the volume ratio e^((sum of i_k + j_l) t) is finite.

    The sum is m + n, at least the largest rate, so this cap is the
    tighter one whenever m n >= 2.
    """
    total = float(np.sum(_lambdas(w)))
    _require_flow_time(t, total)
    return total


def _require_tess_dim(tess, w):
    """ValidationError("dim") unless the tessellation tiles the weights' space: L = m n."""
    if tess.L != w.m * w.n:
        raise ValidationError("dim", f"tessellation L={tess.L} != m*n={w.m * w.n}")


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
    _require_tess_dim(tess, w)
    lams = _flow_rates(w, t)
    total = 1
    for lam in lams:
        total *= _per_axis_count(math.exp(lam * t))
    return total


def count_S_rt_brute(tess, w, t):
    """Independent enumeration oracle: test every translate's interval overlap.

    Works per coordinate (the boxes are axis-aligned products) over
    |gamma_kappa| <= ceil(e^{lambda t}) + 2, with the same relative
    tolerance convention for the open-interval comparisons.  Raises
    BudgetExceeded before any walk when one axis has more than
    CELL_BUDGET translates.
    """
    _require_tess_dim(tess, w)
    lams = _flow_rates(w, t)
    Gs = [int(math.ceil(math.exp(lam * t))) + 2 for lam in lams]
    if 2 * max(Gs) + 1 > CELL_BUDGET:
        raise BudgetExceeded(f"{2 * max(Gs) + 1} translates on one axis, budget is {CELL_BUDGET}")
    total = 1
    for lam, G in zip(lams, Gs):
        f = math.exp(-lam * t)
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
    _require_tess_dim(tess, w)
    total = _volume_rate(w, t)
    lam0 = float(np.min(_lambdas(w)))
    vol = tess.side**tess.L
    return math.exp(total * t) * (1.0 + K3 * math.exp(-lam0 * t) / vol)


def calibrate_K3(tess, w, t_grid):
    """Smallest K3 making the bound dominate the exact count on the grid.

    Measured once as the max observed excess; any larger K3 also works.
    """
    _require_tess_dim(tess, w)
    lam0 = float(np.min(_lambdas(w)))
    vol = tess.side**tess.L
    need = 1e-12
    for t in t_grid:
        total = _volume_rate(w, t)
        exact = count_S_rt(tess, w, t)
        ratio = math.exp(total * t)
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


def sup_delta_flow_batch(h, T, basis, coeffs):
    """delta_sup(g_T u_h x0) for a batch of h, d = 2, equal weights.

    The Gauss reduction starts from the unimodular integer rows (a1, b1,
    a2, b2) of the (4, N) int64 array `coeffs` and overwrites them with
    the reduced rows; a nearly reduced start, such as a parent box's basis
    at an earlier time, needs only a few steps.  Every step is exact in
    int64 while |coeffs| <= 2^31 (beyond it BudgetExceeded is raised).
    Each block of KERNEL_BLOCK rows is reduced by `_float_steps` in
    float64, which only picks the steps (a row it cannot finish keeps its
    start), then in long double from those rows, which checks them and
    finishes any row float64 left short.  `haar.reduced_sup_min` evaluates
    the reduced pair expanded in long double.  That expansion cancels from
    about e^T |coeffs| down to the vector's size, so its relative error
    grows like 2^-64 e^{2T} (up to about 1e-6 at T = 15 on a sheared
    hexagonal x0, 0 on Z^2 at T = 8).  Every reduced basis holds the same
    minimal vectors, so the values do not depend on the start.  These
    values and that error are the kernel's whatever calls it.  The
    survivor cover asks only whether a value clears its threshold:
    `_keep_flow_batch` decides that in float64 where its bound,
    16 (u64 + u_ld) S per component, proves the long-double decision the
    same, and runs this kernel only on the rows the bound leaves open.
    """
    h64, B64 = np.asarray(h, dtype=float), np.asarray(basis, dtype=float)
    h, B = np.asarray(h, dtype=np.longdouble), B64.astype(np.longdouble)
    eT, emT = np.exp(np.longdouble(T)), np.exp(-np.longdouble(T))
    out = np.empty(len(h))
    for lo in range(0, len(h), KERNEL_BLOCK):
        rows = slice(lo, lo + KERNEL_BLOCK)
        hr, C = h[rows], coeffs[:, rows]  # a view: the reduced rows land in `coeffs`
        _float_steps(h64[rows], T, B64, C)
        guarded, stuck = _reduce_block(hr, C, B, eT, emT)
        if guarded:
            raise BudgetExceeded("Gauss reduction coefficients exceeded the exact-int64 range 2^31")
        if stuck:
            raise InvariantViolation(f"Gauss reduction of {stuck} rows did not converge in {KERNEL_PASSES} passes")
        out[rows] = reduced_sup_min(*_expand(C[0], C[1], hr, B, eT, emT), *_expand(C[2], C[3], hr, B, eT, emT))
    return out


def _float_steps(h, T, B, coeffs):
    """The float64 Gauss passes of one block: they pick the steps; a row they cannot finish keeps its start.

    Past T of about 354 the norms overflow (past 709.8, e^T itself; every
    digit is lost well before), so floating-point warnings are off.
    Returns the float64 (e^T, e^-T) it expanded with.
    """
    with np.errstate(all="ignore"):
        eT, emT = np.exp(T), np.exp(-T)
        _reduce_block(h, coeffs, B, eT, emT)
    return eT, emT


def _keep_flow_batch(h, T, basis, coeffs, thresh):
    """sup_delta_flow_batch(h, T, basis, coeffs) >= thresh, its reduced rows and errors; float64 decides where it can.

    Each block of KERNEL_BLOCK rows takes the kernel's float64 steps
    (`_float_steps`) and expands the picked rows once in float64.  Let
    u64, u_ld be the unit roundoffs of float64 and long double (half their
    `np.finfo` eps) and S the sum, over the row's two vectors (a, b), of
    e^T (|B00 a| + |B01 b| + |h| (|B10 a| + |B11 b|)) + e^-T (|B10 a| + |B11 b|).
    The error bound follows the standard rounding model (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 2-3; gamma_n = n u / (1 - n u)):
      * a, b, h and B are exact in both precisions, and a component
        e^T (v1 + h v2) or e^-T v2 takes at most five rounded operations
        and one np.exp (taken within 2 ulp, 4 u), so in either precision it
        is within gamma_9(u) times its part of S of its real value;
      * a component of u + w or u - w adds one rounding: gamma_10(u) S;
      * so every candidate component of `haar.reduced_sup_min` in float64
        is within D = 10.01 (u64 + u_ld) S of the long-double one, and
        err = 16 (u64 + u_ld) S exceeds D with room for the rounding of
        this test.
    A row is decided here when both hold:
      * its pair is Gauss-reduced with a margin: |a1| + |a2| and
        |b1| + |b2| are at most 2^31 and, with n1, n2, p = |u|^2, |w|^2,
        <u, w> and R = |u0| + |u1| + |w0| + |w1| in float64, n2 - n1 >= m
        and n1 - 2 |p| >= m for m = 8 err (R + 2 err).  The long-double n1,
        n2, p differ from these by at most
        2.01 (D + (u64 + u_ld)(R + 2 D))(R + 2 D) < m / 3 (R <= S), so the
        long-double pass passes its guard and sees n2 >= n1 and
        |p / n1| <= 1/2: it takes no step, and these rows are its result;
      * its float64 value v clears thresh by more than err.  The
        long-double minimum lies within D of v and is rounded to float64,
        which is monotone: v - err > thresh keeps the row, and v + err
        below the float64 just under thresh discards it.
    A bound that overflows is not finite and decides nothing.  Every other
    row (ties, values near thresh, rows the float64 pass left short or
    past the 2^31 guard, rows deep in the cusp) goes through
    `sup_delta_flow_batch`, one call per block, from its float64-picked
    rows, which the kernel's own float64 pass leaves as they are; its
    reduced rows are written back and its errors are the kernel's.  Long
    double runs only there, and the bound holds where np.longdouble is
    float64.
    """
    h, B = np.asarray(h, dtype=float), np.asarray(basis, dtype=float)
    unit = float(np.finfo(float).eps + np.finfo(np.longdouble).eps) / 2  # u64 + u_ld
    below = np.nextafter(thresh, -np.inf)
    keep = np.empty(len(h), dtype=bool)
    for lo in range(0, len(h), KERNEL_BLOCK):
        rows = slice(lo, lo + KERNEL_BLOCK)
        hr, C = h[rows], coeffs[:, rows]  # a view: the reduced rows land in `coeffs`
        eT, emT = _float_steps(hr, T, B, C)
        with np.errstate(all="ignore"):
            u0, u1 = _expand(C[0], C[1], hr, B, eT, emT)
            w0, w1 = _expand(C[2], C[3], hr, B, eT, emT)
            a, b = np.abs(C[0]) + np.abs(C[2]), np.abs(C[1]) + np.abs(C[3])
            top = np.abs(B[0, 0]) * a + np.abs(B[0, 1]) * b
            bottom = np.abs(B[1, 0]) * a + np.abs(B[1, 1]) * b
            S = eT * (top + np.abs(hr) * bottom) + emT * bottom
            err = 16.0 * unit * S
            m = 8.0 * err * (np.abs(u0) + np.abs(u1) + np.abs(w0) + np.abs(w1) + 2.0 * err)
            n1, p2 = u0 * u0 + u1 * u1, 2.0 * np.abs(u0 * w0 + u1 * w1)
            reduced = (w0 * w0 + w1 * w1 - n1 >= m) & (n1 - p2 >= m) & (np.maximum(a, b) <= 1 << 31)
            v = reduced_sup_min(u0, u1, w0, w1)
            over = v - err > thresh
            keep[rows] = over
            open_ = np.flatnonzero(~(reduced & (over | (v + err < below))))
        if open_.size:
            C_open = C[:, open_]
            keep[lo + open_] = sup_delta_flow_batch(hr[open_], T, basis, C_open) >= thresh
            C[:, open_] = C_open
    return keep


def _expand(a, b, h, B, eT, emT):
    """The vectors g_T u_h x0 (a, b) for integer rows a, b, in the float precision of `B`."""
    a, b = a.astype(B.dtype), b.astype(B.dtype)
    v1 = B[0, 0] * a + B[0, 1] * b
    v2 = B[1, 0] * a + B[1, 1] * b
    return eT * (v1 + h * v2), emT * v2


def _reduce_block(h, coeffs, B, eT, emT):
    """Gauss-reduce one block of rows in the float precision of `h`, `B` and `eT`; raises nothing.

    Returns (rows past the 2^31 coefficient guard, rows not reduced in
    KERNEL_PASSES passes); only the rows it finished are written back
    into `coeffs`.
    """
    guarded, rows, hr, C = 0, np.arange(len(h)), h, coeffs
    u0, u1 = _expand(C[0], C[1], hr, B, eT, emT)
    n1 = u0 * u0 + u1 * u1
    for _ in range(KERNEL_PASSES):
        w0, w1 = _expand(C[2], C[3], hr, B, eT, emT)
        n2 = w0 * w0 + w1 * w1
        swap = n2 < n1
        # the shorter vector goes first (its expansion is carried to the next
        # pass); the projection onto it is symmetric in the two vectors
        n1 = np.minimum(n1, n2)
        mu = np.rint((u0 * w0 + u1 * w1) / n1).astype(float, copy=False)
        # int64 products stay exact while |mu|, |C| <= 2^31; a row past it (or with a NaN mu) takes mu = 0, then leaves
        fits = np.abs(mu) <= 1 << 31
        mu = np.where(fits, mu, 0).astype(np.int64)
        C = np.where(swap, C[[2, 3, 0, 1]], C)
        C[2:] -= mu * C[:2]
        fits &= np.all(np.abs(C) <= 1 << 31, axis=0)
        u0, u1 = np.where(swap, w0, u0), np.where(swap, w1, u1)
        done = fits & ~swap & (mu == 0)
        leave = done | ~fits
        if leave.any():
            # a reduced row leaves with its reduced rows, a row past the guard with its start rows
            coeffs[:, rows[done]] = np.compress(done, C, axis=1)
            guarded += int(np.count_nonzero(~fits))
            keep = ~leave
            rows, hr, C, u0, u1, n1 = rows[keep], hr[keep], np.compress(keep, C, axis=1), u0[keep], u1[keep], n1[keep]
            if rows.size == 0:
                break
    return guarded, rows.size


def default_safety(w, side):
    """Quasinorm distortion of u_W with ||W||_inf <= side/2 (conjugated box radius).

    Exact multiplicative factor 1 + n side/2 at equal weights; for
    general weights the worst quasinorm exponent is applied on top,
    which is conservative.
    """
    return (1.0 + w.n * side / 2.0) ** (1.0 / float(np.min(w.powers)))


def _delta_at_centers(centers, T, x0, w):
    """delta_w at the box centers by exact enumeration, one box at a time (the cover's path off d = 2)."""
    G = g_t(w, T)
    out = np.empty(len(centers))
    for idx, hrow in enumerate(centers):
        U = u_A(hrow.reshape(w.m, w.n))
        out[idx] = delta_weighted(make_lattice(G @ U @ x0.basis), w)
    return out


def survivor_cover(x0, w, c, r, t, k_max):
    """Recursive Bowen-box cover of the h whose orbit avoids U(c^(1/d)).

    Level 0 is the single cube V_r = (0, side)^L.  Level k+1 refines
    every surviving box into its conjugated-tessellation sub-boxes and
    keeps a sub-box unless its center certifiably enters U at time
    (k+1) t: survive iff delta_w(g_{(k+1)t} u_center x0) >= eps/safety.
    At d = 2, equal weights, `_keep_flow_batch` decides this from each
    child's reduction, started from the reduced integer basis of its
    parent: in float64 where its error bound proves the long-double
    decision of `sup_delta_flow_batch` the same, by that kernel for the
    rows the bound leaves open, so the counts are the kernel's.  Other
    weights evaluate delta_w box by box.  The safety factor,
    `default_safety`, covers the distance from the center to any point
    of the box after conjugation, so discarding is sound (conservative
    keep).  Each parent axis splits into M = `_per_axis_count(e^(lambda t))`
    equal children, so level k+1 boxes tile their parent exactly (a check
    raises InvariantViolation if one leaves it) and level k boxes have
    side side/M^k.  M is ceil(e^(lambda t)) but for an e^(lambda t)
    within relative _NEAR_INT_TOL of an integer, so after conjugation by
    g_{kt} a level k box has half side at most (side/2)(1 + _NEAR_INT_TOL)^k:
    the Bowen box that `default_safety` covers, up to that tolerance.
    Hitting the total box budget BOX_BUDGET truncates the run gracefully.
    """
    eps = cusp_radius(c, w.d)
    if not 0 < r <= R_CAP:
        raise ValidationError("r", f"must be in (0, {R_CAP}]")
    lams = _flow_rates(w, t, positive=True)
    k_max = require_int("k-max", k_max)
    if x0.dim != w.d:
        raise ValidationError("dim", f"x0 dim {x0.dim} != weight dimension {w.d}")
    L = w.m * w.n
    tess = tessellation_new(L, r)
    side = tess.side
    safety = default_safety(w, side)
    thresh = eps / safety

    m_axis = [_per_axis_count(math.exp(lam * t)) for lam in lams]
    n_children = math.prod(m_axis)
    parent_sides = np.full(L, side)
    kept = parent_sides[None, :] / 2.0
    levels = [CoverLevel(k=0, centers=kept, half_sides=parent_sides / 2.0, count=1)]
    total = 1
    truncated = False
    # d = 2, equal weights: reduced integer bases of the kept boxes, so that
    # each child's reduction starts from its parent's (level 0: the identity)
    coeffs = np.array([[1], [0], [0], [1]], dtype=np.int64) if w.d == 2 else None
    for k in range(1, k_max + 1):
        # before the sides: an M past 2^64 (t > 22.2 at d = 2) is a Python int numpy cannot take
        if total + len(kept) * n_children > BOX_BUDGET:
            truncated = True
            break
        child_sides = side / np.float_power(m_axis, k)
        offsets = []
        for ax in range(L):
            off = np.arange(m_axis[ax]) * child_sides[ax]
            # nesting check: the furthest child edge stays within the parent
            if not off[-1] + child_sides[ax] <= parent_sides[ax] * (1 + 1e-12):
                raise InvariantViolation(f"level {k} children leave their parent box on axis {ax}")
            offsets.append(off)
        grids = np.meshgrid(*offsets, indexing="ij")
        off_grid = np.stack([g.reshape(-1) for g in grids], axis=1)
        parent_lows = kept - parent_sides / 2.0
        centers = (parent_lows[:, None, :] + off_grid[None, :, :]).reshape(-1, L) + child_sides / 2.0
        total += len(centers)
        if coeffs is None:
            keep = _delta_at_centers(centers, k * t, x0, w) >= thresh
        else:
            child_coeffs = np.repeat(coeffs, n_children, axis=1)
            keep = _keep_flow_batch(centers[:, 0], k * t, x0.basis, child_coeffs, thresh)
            coeffs = child_coeffs[:, keep]
        kept = centers[keep]
        parent_sides = child_sides
        lvl = CoverLevel(k=k, centers=kept, half_sides=child_sides / 2.0, count=len(kept))
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
        r2=r2,
    )


def _cf_lengths(N, depth, levels=2):
    """Cylinder interval lengths 1/(q_k (q_k + q_{k-1})) at the last `levels` depths up to `depth`, from one walk.

    The denominators are built in float64, where they are exact integers:
    CF_BUDGET keeps every q_k below 6e8 (N = 2, depth 23), far under 2^53.
    """
    cur = np.ones(1)  # q_0
    prev = np.zeros(1)  # q_{-1}
    digits = np.arange(1.0, N + 1)
    out = []
    for k in range(1, depth + 1):
        cur, prev = (digits[:, None] * cur + prev).reshape(-1), np.tile(cur, N)
        if k > depth - levels:
            out.append(1.0 / (cur * (cur + prev)))
    return out


def _brent_root(f):
    """Root of f on [0, 1]: the Brent (zeroin) iteration of scipy's brentq.c, step for step.

    Same tolerances as `brentq(f, 0, 1, xtol=1e-12, rtol=8.9e-16)` and its
    100-iteration cap, so it returns the same float.  A bracket without a
    sign change, or no convergence, raises InvariantViolation.
    """
    xtol, rtol = 1e-12, 8.9e-16
    xpre, xcur = 0.0, 1.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise InvariantViolation(f"no sign change on [0, 1]: f(0) = {fpre!r}, f(1) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise InvariantViolation("Brent root on [0, 1] did not converge in 100 iterations")


def cf_digit_oracle(N, depth, prev=False):
    """Box-dimension estimate of E_N = {all partial quotients <= N}.

    Enumerates all depth-level continued-fraction cylinders with digits
    <= N and returns the exponent s at which the total s-weighted
    cylinder length is the same at depths depth-1 and depth (the
    root of log sum l^s across two consecutive depths).  Entirely
    independent of the dynamical code path.  With `prev` (depth >= 5)
    it returns (the estimate, the estimate at depth - 1), both from one
    walk of the cylinders that keeps one more level.
    """
    N = require_int("N", N)
    depth = require_int("depth", depth, least=5 if prev else 4)
    if N**depth > CF_BUDGET:
        raise BudgetExceeded(f"N^depth = {N ** depth} exceeds cap {CF_BUDGET}")
    if N == 1:
        return (0.0, 0.0) if prev else 0.0  # single cylinder per depth: the one-point golden tail
    lengths = _cf_lengths(N, depth, 3 if prev else 2)

    def root(l_prev, l_cur):
        return _brent_root(lambda s: math.log(float(np.sum(l_cur**s))) - math.log(float(np.sum(l_prev**s))))

    est = root(lengths[-2], lengths[-1])
    return (est, root(lengths[0], lengths[1])) if prev else est
