"""Exact geometry of unimodular lattices in R^d.

A point of the space X = SL_d(R)/SL_d(Z) is a covolume-1 lattice given
by a basis matrix whose columns generate it.  The cusp functions

    delta(x)      = length of the shortest nonzero vector (sup or euclid)
    delta_w(x)    = shortest weighted quasinorm (see `quasinorm`)

are computed by exhaustive enumeration over a coefficient box that
provably contains every minimizer, so the values are exact up to float
roundoff.  The box bound holds for any basis of the lattice, so the
basis is first LLL-reduced (Lenstra-Lenstra-Lovasz 1982): reduction
changes the size of the box, and so the cost, but not the answer.
Along a diagonal flow the raw box grows like e^{2T}; the reduced one
stays small.  The sup norm is the quasinorm of the weights (1; 1/(d-1),
..., 1/(d-1)), and the euclidean minimizer runs the same loop with its
own box and norm; `quasinorm` is the one-row case of the row-wise
quasinorm the loop uses.  d <= 5 keeps the boxes tractable.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ValidationError

DET_TOL = 1e-9
CELL_BUDGET = 10**8
# Ties between minimizing vectors are broken on the coefficient vector:
# canonical sign (first nonzero coefficient positive), then smallest
# when compared from the last coordinate backwards, so that on Z^2 the
# generator (1,0) wins against (0,1).
_TIE_TOL = 1e-12
# Lovasz constant of the basis reduction
_LLL_DELTA = 0.99
# candidates whose reduced-basis length is within this relative gap of
# the running minimum are re-evaluated on the raw basis, so that roundoff
# between the two bases cannot drop a tie
_PRECUT = 1e-6
# integer coefficients stay exact as float64 below 2^53
_EXACT_INT = 2.0**53


@dataclass(frozen=True)
class Lattice:
    """Unimodular lattice; `basis` columns are the generators."""

    dim: int
    basis: np.ndarray


@dataclass(frozen=True)
class WeightVector:
    """Expansion/contraction weights (i, j): positive, each block sums to 1.

    `powers` holds m i_k and n j_l in coordinate order: the quasinorm
    takes |v_k|^(1/powers_k), and its ball of radius b is the box
    |v_k| <= b^powers_k.
    """

    i: tuple
    j: tuple
    powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        i = tuple(float(v) for v in self.i)
        j = tuple(float(v) for v in self.j)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        if not i or not j:
            raise ValidationError("weights", "both weight blocks must be nonempty")
        if not all(v > 0 for v in i + j):
            raise ValidationError("weights", "weights must be positive")
        if not (abs(sum(i) - 1.0) <= 1e-12 and abs(sum(j) - 1.0) <= 1e-12):
            raise ValidationError("weights", "each weight block must sum to 1 within 1e-12")
        powers = np.array([len(i) * v for v in i] + [len(j) * v for v in j])
        powers.flags.writeable = False
        object.__setattr__(self, "powers", powers)

    @property
    def m(self):
        return len(self.i)

    @property
    def n(self):
        return len(self.j)

    @property
    def d(self):
        return len(self.i) + len(self.j)

    @property
    def alpha(self):
        return min(min(self.i), min(self.j))


EQUAL_WEIGHTS_2D = WeightVector((1.0,), (1.0,))


@dataclass(frozen=True)
class ShortVec:
    """A minimizing lattice vector: vec = basis @ coeffs."""

    coeffs: tuple
    vec: np.ndarray
    length: float


def make_lattice(basis):
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValidationError("basis", "basis must be a square matrix")
    d = basis.shape[0]
    if not 2 <= d <= 5:
        raise ValidationError("dim", f"supported dimensions are 2..5, got {d}")
    if not np.isfinite(basis).all():
        raise ValidationError("basis", "entries must be finite")
    det = float(np.linalg.det(basis))
    if abs(det) < 1e-12:
        raise ValidationError("basis", "basis matrix is singular")
    if not abs(det - 1.0) <= DET_TOL:
        raise ValidationError("basis", f"|det - 1| = {abs(det - 1.0):.3e} exceeds tol {DET_TOL:.1e}")
    if np.linalg.matrix_rank(basis) < d:  # det 1 but deep in the cusp: float64 enumeration would cancel
        cap = 1 / (d * np.finfo(float).eps)
        raise BudgetExceeded(f"basis is too ill-conditioned for float64 enumeration: condition number above 1/(d eps) = {cap:.1e}")
    return Lattice(dim=d, basis=basis)


def _euclid(V):
    return np.sqrt(np.sum(V * V, axis=1))


def _iter_coeff_box(basis, bounds):
    """Yield (C, V) slabs over the integer box |c_k| <= bounds[k], origin removed.

    Slabbed along axis 0 so memory stays bounded while the total cell
    count is only limited by CELL_BUDGET.
    """
    bounds = [int(b) for b in bounds]
    cells = 1
    for b in bounds:
        cells *= 2 * b + 1
    if cells > CELL_BUDGET:
        raise BudgetExceeded(f"coefficient box has {cells} cells, budget is {CELL_BUDGET}")
    d = len(bounds)
    tail_axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds[1:]]
    tail_cells = cells // (2 * bounds[0] + 1)
    slab = max(1, int(4_000_000 // max(tail_cells, 1)))
    first = np.arange(-bounds[0], bounds[0] + 1, dtype=np.int64)
    for lo in range(0, len(first), slab):
        axes = [first[lo : lo + slab]] + tail_axes
        grids = np.meshgrid(*axes, indexing="ij")
        C = np.stack([g.reshape(-1) for g in grids], axis=1)
        mask = np.any(C != 0, axis=1)
        C = C[mask]
        if len(C) == 0:
            continue
        V = C.astype(float) @ basis.T
        yield C, V


def _canonical(coeffs):
    """Flip sign so the first nonzero coefficient is positive."""
    for v in coeffs:
        if v != 0:
            return coeffs if v > 0 else tuple(-w for w in coeffs)
    return coeffs


def _pick_min(C, lengths):
    """Minimum with deterministic tie-breaking on canonical coefficients."""
    best = float(np.min(lengths))
    near = np.nonzero(lengths <= best + _TIE_TOL * max(1.0, best))[0]
    cands = [_canonical(tuple(int(v) for v in C[i])) for i in near]
    # smallest when read from the last coordinate: (1,0) beats (0,1) on Z^2
    chosen = min(cands, key=lambda c: tuple(reversed(c)))
    return chosen, best


def _gram_schmidt(Br):
    """mu[k, j] = <b_k, b*_j> / |b*_j|^2 and |b*_j|^2 for the columns of Br."""
    r = np.linalg.qr(Br, mode="r")
    diag = np.diag(r)
    return (r / diag[:, None]).T, diag * diag


def _lll_reduce(B):
    """LLL-reduce the columns of B: (B @ M, M) with M unimodular int64.

    Textbook LLL at delta = 0.99 with float Gram-Schmidt, recomputed
    after every size-reduction or swap step (d <= 5).  Only M is
    updated; the reduced basis is recomputed from it as B @ M, so it
    carries no accumulated roundoff.
    """
    d = B.shape[1]
    M = np.eye(d, dtype=np.int64)
    Br = B
    k = 1
    while k < d:
        mu, bb = _gram_schmidt(Br)
        for j in range(k - 1, -1, -1):
            r = round(mu[k, j])
            if r:
                M[:, k] -= r * M[:, j]
                Br = B @ M
                mu, bb = _gram_schmidt(Br)
        if bb[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * bb[k - 1]:
            k += 1
        else:
            M[:, [k - 1, k]] = M[:, [k, k - 1]]
            Br = B @ M
            k = max(k - 1, 1)
    return Br, M


def _enumerate_min(B, Br, M, bounds, lengths_of):
    """Minimizer over the reduced-coefficient box, reported on the raw basis.

    Each slab of the box over the reduced basis Br = B M is cut loosely
    (`_PRECUT`) at the running minimum.  The survivors are mapped to raw
    coefficients C M^T and their lengths are evaluated again on B, so
    the pick, its tie-break, `vec` and `length` are those of the raw basis.
    Raw coefficients must stay below 2^53, where floats hold them exactly.
    """
    if float(np.max(np.abs(M) @ np.asarray(bounds, dtype=float))) >= _EXACT_INT:
        raise BudgetExceeded("raw coefficients of the search box exceed 2^53")
    best_len = np.inf
    keep_C = []
    for C, V in _iter_coeff_box(Br, bounds):
        lengths = lengths_of(V)
        best_len = min(best_len, float(np.min(lengths)))
        keep_C.append(C[lengths <= best_len * (1.0 + _PRECUT)])
    C = np.concatenate(keep_C) @ M.T
    coeffs, length = _pick_min(C, lengths_of(C.astype(float) @ B.T))
    vec = B @ np.asarray(coeffs, dtype=float)
    return ShortVec(coeffs=coeffs, vec=vec, length=length)


def shortest_vector(lat, norm="euclid"):
    """Exact shortest nonzero vector of the lattice in the given norm.

    "sup" is the quasinorm of the weights (1; 1/(d-1), ..., 1/(d-1)),
    whose exponents are all exactly 1 for d <= 5.  For "euclid" the box
    comes from the shortest column R of the LLL-reduced basis Br = B M:
    |c_k| = |(Br^-1 v)_k| <= |row_k(Br^-1)| R by Cauchy-Schwarz.  The
    coefficients reported are those on B.
    """
    if norm == "sup":
        d = lat.dim
        return shortest_vector_weighted(lat, WeightVector((1.0,), (1.0 / (d - 1),) * (d - 1)))
    if norm != "euclid":
        raise ValidationError("norm", f"unknown norm {norm!r}")
    B = lat.basis
    Br, M = _lll_reduce(B)
    Brinv = np.linalg.inv(Br)
    incumbent = float(np.min(_euclid(Br.T)))
    bounds = np.maximum(np.floor(_euclid(Brinv) * incumbent + 1e-9).astype(int), 1)
    return _enumerate_min(B, Br, M, bounds, _euclid)


def delta(lat, norm="sup"):
    """Cusp function: length of the shortest nonzero vector."""
    return shortest_vector(lat, norm).length


def quasinorm(v, w):
    """Weighted quasinorm max(||p||_i^(1/m), ||q||_j^(1/n)).

    p is the first m coordinates, q the last n, and ||p||_i =
    max_k |p_k|^(1/i_k).  At equal weights this is the sup norm.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != w.d:
        raise ValidationError("dim", f"vector length {v.shape[-1]} != weight dimension {w.d}")
    return float(_quasinorm_rows(v.reshape(1, -1), w)[0])


def _quasinorm_rows(V, w):
    return np.max(np.abs(V) ** (1.0 / w.powers), axis=1)


def shortest_vector_weighted(lat, w):
    """Exact quasinorm minimizer.

    Every unimodular lattice has a nonzero vector of quasinorm <= 1
    (the quasinorm ball of radius b is a box of volume (2b)^d, so
    Minkowski applies at b = 1); the incumbent is therefore capped at
    1 and sharpened by the columns of the LLL-reduced basis.  A
    candidate of quasinorm <= b lies in the box |v_k| <= b^(m i_k),
    |v_{m+l}| <= b^(n j_l).
    """
    if lat.dim != w.d:
        raise ValidationError("dim", f"lattice dim {lat.dim} != weight dimension {w.d}")
    B = lat.basis
    Br, M = _lll_reduce(B)
    Brinv = np.linalg.inv(Br)
    col_q = _quasinorm_rows(Br.T, w)
    b = min(1.0, float(np.min(col_q))) + 1e-9
    amb = np.array([b**p for p in w.powers])
    bounds = np.maximum(np.floor(np.abs(Brinv) @ amb + 1e-9).astype(int), 1)
    return _enumerate_min(B, Br, M, bounds, lambda V: _quasinorm_rows(V, w))


def delta_weighted(lat, w):
    """Weighted cusp function delta_{i,j}: inf of the quasinorm over the lattice."""
    return shortest_vector_weighted(lat, w).length

