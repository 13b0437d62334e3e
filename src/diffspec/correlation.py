"""Autocorrelation coefficients of weighted sequences and point sets.

For a complex-weighted sequence y the coefficients are

    eta(m) = lim (1/(2N+1)) sum_{n=-N..N} conj(y_n) y_{n+m},

estimated here with boundary-exact normalization: each lag divides by
the exact number of pairs the finite window supplies, so eta(-m) equals
conj(eta(m)) identically and no window taper biases small samples.

For a weighted point set the analogue divides by the covered length
instead of the pair count; the value at difference 0 is then the
weighted point density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .delone import MERGE_TOL, _chain
from .errors import EmptyPointSet, NotHermitian, OutOfRange, WindowTooShort, ZTooLarge
from .factors import BlockMap, apply_block_map
from .subshift import SymbolicWindow


@dataclass
class CorrelationSeq:
    """eta(m) for m in [-max_lag, max_lag], hermitian by construction."""

    max_lag: int
    data: np.ndarray  # index m + max_lag
    n_used: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (2 * self.max_lag + 1,):
            raise ValueError("data must cover every lag in [-max_lag, max_lag]")

    def value(self, m: int) -> complex:
        if abs(m) > self.max_lag:
            raise IndexError(f"lag {m} outside [-{self.max_lag}, {self.max_lag}]")
        return complex(self.data[m + self.max_lag])

    def pair_count(self, m: int) -> int:
        return self.n_used - abs(m)

    def check_hermitian(self, tol: float = 0.0):
        dev = np.abs(self.data - np.conj(self.data[::-1])).max()
        if dev > tol:
            raise NotHermitian(f"eta(-m) != conj(eta(m)), deviation {dev:g}")

    def to_csv(self) -> str:
        lags = range(-self.max_lag, self.max_lag + 1)
        return _csv(lags, self.data, map(self.pair_count, lags))


def _csv(keys, values, counts) -> str:
    """The correlation CSV, a row per lag or difference; an integer lag,
    below 10^12, prints as itself at 12 significant digits."""
    rows = (f"{k:.12g},{v.real:.12g},{v.imag:.12g},{int(c)}\n"
            for k, v, c in zip(keys, values, counts))
    return "lag_or_diff,re,im,n_used\n" + "".join(rows)


# sites per row of the lag kernel's site matrix, at most: each product
# H_q holds at most _LAG_BLOCK**2 numbers, whatever max_lag asks for
_LAG_BLOCK = 1024
# rows of B sites per product, at least: on a short window at many lags a
# wide B leaves few rows, and each product's B^2-sized output then costs
# more than its n B multiply-adds
_MIN_ROWS = 32
# sites per piece of the gather into the kernel's padded buffer
_GATHER_PIECE = 2**16
# sites per piece of the conjugated rows of a complex product
_CONJ_PIECE = 2**18


def _gram(y: np.ndarray, q: int, out: np.ndarray) -> None:
    """out = Y^H Y_{+q}: the rows of y against the rows q further down.

    Complex rows are conjugated _CONJ_PIECE sites at a time and their
    products added up, so no conjugate of the whole of y is made.
    """
    rows = len(y) - q
    if not np.iscomplexobj(y):
        np.matmul(y[:rows].T, y[q:], out=out)
        return
    step = min(rows, max(1, _CONJ_PIECE // y.shape[1]))
    np.matmul(np.conj(y[:step]).T, y[q : q + step], out=out)
    for lo in range(step, rows, step):
        hi = min(lo + step, rows)
        out += np.conj(y[lo:hi]).T @ y[lo + q : hi + q]


def _correlate_values(
    table: np.ndarray, letters: np.ndarray, max_lag: int, norm: float = 1.0
) -> CorrelationSeq:
    """eta(m) = norm sum conj(y_n) y_{n+m} / (n - m) for y = table[letters].

    The zero-padded y is cut into rows of B = min(max_lag + 1,
    _LAG_BLOCK, n // _MIN_ROWS) sites (at least 1), Y[i, j] = y[iB + j].
    H_q = Y^H Y_{+q}, Y against itself shifted down q rows, holds every
    pair at offset qB + k - j in H_q[j, k].  So lag m = qB + d
    (0 <= d < B) is the sum of diagonal d of H_q and diagonal d - B of
    H_{q+1}, each column d of a sheared view of H's buffer, summed.  y
    is gathered into its buffer, and conjugated (_gram), piece by piece,
    so no other array of its length is made.  A real table is summed in
    real arithmetic and scaled by norm once per lag; complex callers
    leave norm at 1.  Sums of integers (weights +-1 and 0/1) are exact
    in any order, so their eta does not depend on B.
    """
    n = len(letters)
    if n < 2 * max_lag + 4:
        raise WindowTooShort(
            f"{n} values cannot support max_lag {max_lag} (need {2 * max_lag + 4})"
        )
    b = max(1, min(max_lag + 1, _LAG_BLOCK, n // _MIN_ROWS))
    y = np.zeros(-(-n // b) * b, dtype=table.dtype)
    for lo in range(0, n, _GATHER_PIECE):
        hi = min(lo + _GATHER_PIECE, n)
        # clip reads what indexing would: letters are >= 0 (SymbolicWindow
        # checks), and weight_table, like its r, ends at the largest letter
        np.take(table, letters[lo:hi], out=y[lo:hi], mode="clip")
    y = y.reshape(-1, b)
    # H_q in the right half of a buffer whose left half and last row
    # stay 0: upper[j, d] = H_q[j, j + d] and lower[j, d] = H_q[j, j + d - b]
    # where those exist and 0 elsewhere, both reshapes of the flat buffer
    pair = np.zeros((b + 1, 2 * b), dtype=y.dtype)
    flat = pair.reshape(-1)
    lower = flat[: b * (2 * b + 1)].reshape(b, -1)[:, :b]
    upper = flat[b:].reshape(b, -1)[:, :b]
    blocks = max_lag // b + 1
    sums = np.empty((blocks, b), dtype=y.dtype)
    for q in range(blocks + 1):
        _gram(y, q, pair[:b, b:])
        if q:
            sums[q - 1] += lower.sum(axis=0)
        if q < blocks:
            upper.sum(axis=0, out=sums[q])
    sums = sums.reshape(-1)[: max_lag + 1]
    sums[0] = sums[0].real  # sum |y_n|^2, whatever a fused multiply-add left
    if norm != 1.0:
        sums *= norm
    pairs = n - np.arange(max_lag + 1)
    data = np.empty(2 * max_lag + 1, dtype=np.complex128)
    data[max_lag:] = sums / pairs
    data[max_lag::-1] = np.conj(sums) / pairs
    return CorrelationSeq(max_lag, data, n)


def _line_coordinates(table: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Real r and |v|^2 with table == r v for one complex v, else None.

    v = p + iq is the first weight of largest modulus, so |r| <= 1 and
    no product r_u r_v can overflow.  Whether x q == y p holds for every
    weight x + iy is decided in exact rationals, so no rounding or
    underflow of the products can fake or miss a line.  r divides by
    the larger of p and q, so the weight -v gives r = -1 exactly.
    """
    weights = table.tolist()
    if not all(math.isfinite(w.real) and math.isfinite(w.imag) for w in weights):
        return None
    v = max(weights, key=abs) or 1.0 + 0j
    p, q = v.real, v.imag
    if any(Fraction(w.real) * Fraction(q) != Fraction(w.imag) * Fraction(p)
           for w in weights):
        return None
    norm = p * p + q * q
    if not math.isfinite(norm):
        return None
    if abs(p) >= abs(q):
        return np.array([w.real / p for w in weights]), norm
    return np.array([w.imag / q for w in weights]), norm


def autocorr_symbolic(window: SymbolicWindow, max_lag: int) -> CorrelationSeq:
    """Boundary-exact autocorrelation of the window's weight sequence.

    When every weight is a real multiple r of one complex v (real
    weights, +-w, the 0/1 images of indicator maps) the lag kernel runs
    on the real sequence r and eta(m) = |v|^2 sum r_u r_{u+m} / (n - m),
    with an imaginary part of exactly 0.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    table = window.weight_table()
    line = _line_coordinates(table)
    if line is None:
        return _correlate_values(table, window.letters, max_lag)
    r, norm = line
    return _correlate_values(r, window.letters, max_lag, norm)


def autocorr_via_spectral_inner(
    window: SymbolicWindow, g: BlockMap, max_lag: int
) -> CorrelationSeq:
    """eta(m) as the ergodic average of conj(g(S^n x)) g(S^{n+m} x).

    g(S^n x) is g evaluated on the block of x anchored at n, so the
    average runs over exactly the n where both evaluation blocks fit.
    The result is the spectral inner product <g | U^m g> of the shift
    operator U.  It is computed as autocorr_symbolic of the factor
    image, through the same lag kernel, so comparing the two checks the
    factor-image lookup, not a second algorithm.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    return autocorr_symbolic(apply_block_map(window, g), max_lag)


@dataclass
class PointCorrelation:
    """Eberlein coefficients of a weighted point set.

    values maps each realized difference z (|z| <= z_max, merged within
    merge_tol) to (1/volume) sum conj(w_x) w_{x+z}.  For nonnegative
    real weights every value is real and nonnegative.  counts holds the
    number of pairs each value sums: n, the pairs (x, x), at z = 0.
    """

    z_max: float
    diffs: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    merge_tol: float = MERGE_TOL

    def value(self, z: float) -> complex:
        i = np.searchsorted(self.diffs, z)
        for j in (i - 1, i):
            if 0 <= j < len(self.diffs) and abs(self.diffs[j] - z) <= self.merge_tol:
                return complex(self.values[j])
        return 0.0 + 0j

    def to_csv(self) -> str:
        return _csv(self.diffs, self.values, self.counts)


# pairs (x, x + z) with 0 <= z <= z_max that autocorr_pointset reduces, at
# most: n (L + 1) for the L lags the smallest gap lets reach z_max, checked
# before the loop.  Memory is O(n) at any z_max, so this bounds the time:
# 18-26 ns per pair of the bound on the 1e5 silver chain at z_max 10 to
# 200 on a 2-core Xeon, about 7 s at the limit
PAIR_LIMIT = 2**28


def autocorr_pointset(ps, z_max: float, merge_tol: float = MERGE_TOL) -> PointCorrelation:
    """Difference-set autocorrelation of a finite weighted point set.

    The averaging volume is the sample extent (largest minus smallest
    coordinate), so value(0) estimates the weighted density.  Requires
    z_max in [0, extent) and merge_tol >= 0, by default delone.MERGE_TOL.

    Differences chain as in one sorted list of them all: a difference
    more than merge_tol above the one before it opens a new group, and a
    group's difference is the mean of its members.  Each lag d (the
    pairs x_i, x_{i+d}) is reduced as it is made: its differences within
    z_max + merge_tol are sorted (np.sort, no argsort) and chained, and
    each chain becomes one row (lowest and highest difference, sum of
    differences in sorted order, pair count, sum of conj(w_i) w_{i+d} in
    order of i).  The rows of all lags are then chained once more, a row
    joining the one before when its lowest difference is within
    merge_tol of the highest difference so far, which gives the groups
    of the one sorted list: a gap in that list is a place no lag's chain
    reaches across.  So memory is O(n) at any z_max.  The group at
    difference 0 counts the n pairs (x, x).  More than PAIR_LIMIT pairs
    within reach of z_max raise OutOfRange before the loop.
    """
    if not z_max >= 0:
        raise OutOfRange(f"z_max {z_max} must be nonnegative")
    if not merge_tol >= 0:
        raise OutOfRange(f"merge_tol {merge_tol} must be nonnegative")
    x = ps.coords
    w = ps.weights
    n = len(x)
    if n == 0:
        raise EmptyPointSet("no points")
    extent = float(x[-1] - x[0])
    if extent <= 0:
        raise EmptyPointSet("zero extent")
    if z_max >= extent:
        raise ZTooLarge(f"z_max {z_max} exceeds extent {extent:g}")
    reach = (z_max + merge_tol) / float(np.diff(x).min())
    lags = int(reach) if reach < n - 1 else n - 1
    if n * (lags + 1) > PAIR_LIMIT:
        raise OutOfRange(
            f"{n} points at up to {lags} lags within z_max {z_max} make up to "
            f"{n * (lags + 1)} pairs, over the limit of {PAIR_LIMIT} (PAIR_LIMIT)"
        )

    zero = np.vdot(w, w)
    rows = [(np.zeros(1), np.zeros(1), np.zeros(1), np.array([n]),
             np.array([zero.real]), np.array([zero.imag]))]
    dz = np.empty(n - 1)
    for d in range(1, n):
        np.subtract(x[d:], x[:-d], out=dz[: n - d])
        idx = np.flatnonzero(dz[: n - d] <= z_max + merge_tol)
        if not len(idx):
            break
        near = dz[idx]
        prods = np.conj(w[idx]) * w[d:][idx]
        lo, hi, sizes, (sdz, re, im) = _chain(
            near, None, (near, prods.real, prods.imag), merge_tol
        )
        rows.append((lo, hi, sdz, sizes, re, im))

    lo, hi, *cols = (np.concatenate(col) for col in zip(*rows))
    *_, (reps, counts, re, im) = _chain(lo, hi, cols, merge_tol)
    sums = re.astype(np.complex128)
    sums.imag = im
    counts = counts.astype(np.int64)
    reps /= counts

    # mirror to negative differences (z=0 group is first)
    neg_reps = -reps[1:][::-1]
    neg_sums = np.conj(sums[1:][::-1])
    neg_sums.imag += 0.0  # -0.0 + 0.0 is +0.0: a real value mirrors without a -0
    neg_counts = counts[1:][::-1]
    diffs_full = np.concatenate([neg_reps, reps])
    values_full = np.concatenate([neg_sums, sums]) / extent
    counts_full = np.concatenate([neg_counts, counts])
    return PointCorrelation(z_max, diffs_full, values_full, counts_full, merge_tol)
