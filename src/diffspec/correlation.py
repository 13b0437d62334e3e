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

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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

    def lags(self) -> np.ndarray:
        return np.arange(-self.max_lag, self.max_lag + 1)

    def pair_count(self, m: int) -> int:
        return self.n_used - abs(m)

    def check_hermitian(self, tol: float = 0.0):
        dev = np.abs(self.data - np.conj(self.data[::-1])).max()
        if dev > tol:
            raise NotHermitian(f"eta(-m) != conj(eta(m)), deviation {dev:g}")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("lag_or_diff,re,im,n_used\n")
        for m in range(-self.max_lag, self.max_lag + 1):
            z = self.value(m)
            buf.write(f"{m},{z.real:.12g},{z.imag:.12g},{self.pair_count(m)}\n")
        return buf.getvalue()


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
        y[lo:hi] = table[letters[lo:hi]]
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
    real weights every value is real and nonnegative.
    """

    z_max: float
    diffs: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    radius_used: float
    merge_tol: float = 1e-9

    def value(self, z: float) -> complex:
        i = np.searchsorted(self.diffs, z)
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.diffs) and abs(self.diffs[j] - z) <= self.merge_tol:
                return complex(self.values[j])
        return 0.0 + 0j

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("lag_or_diff,re,im,n_used\n")
        for z, v, c in zip(self.diffs, self.values, self.counts):
            buf.write(f"{z:.12g},{v.real:.12g},{v.imag:.12g},{int(c)}\n")
        return buf.getvalue()


def autocorr_pointset(ps, z_max: float, merge_tol: float = 1e-9) -> PointCorrelation:
    """Difference-set autocorrelation of a finite weighted point set.

    The averaging volume is the sample extent (largest minus smallest
    coordinate), so value(0) estimates the weighted density.  Requires
    z_max in [0, extent); merged differences use merge_tol.
    """
    if not z_max >= 0:
        raise OutOfRange(f"z_max {z_max} must be nonnegative")
    x = ps.coords
    w = ps.weights
    if len(x) == 0:
        raise EmptyPointSet("no points")
    extent = float(x[-1] - x[0])
    if extent <= 0:
        raise EmptyPointSet("zero extent")
    if z_max >= extent:
        raise ZTooLarge(f"z_max {z_max} exceeds extent {extent:g}")
    vol = extent

    diffs: list[np.ndarray] = [np.zeros(1)]
    prods: list[np.ndarray] = [np.array([np.vdot(w, w)])]
    d = 1
    while d < len(x):
        dz = x[d:] - x[:-d]
        keep = dz <= z_max + merge_tol
        if not keep.any():
            break
        diffs.append(dz[keep])
        prods.append(np.conj(w[: len(dz)][keep]) * w[d:][keep])
        d += 1

    all_d = np.concatenate(diffs)
    all_p = np.concatenate(prods)
    order = np.argsort(all_d, kind="stable")
    all_d = all_d[order]
    all_p = all_p[order]
    # merge differences agreeing within merge_tol
    group = np.zeros(len(all_d), dtype=np.int64)
    if len(all_d) > 1:
        group[1:] = np.cumsum(np.diff(all_d) > merge_tol)
    n_groups = int(group[-1]) + 1 if len(group) else 0
    sums = np.zeros(n_groups, dtype=np.complex128)
    reps = np.zeros(n_groups)
    counts = np.zeros(n_groups, dtype=np.int64)
    np.add.at(sums, group, all_p)
    np.add.at(counts, group, 1)
    np.add.at(reps, group, all_d)
    reps /= counts

    # mirror to negative differences (z=0 group is first)
    neg_reps = -reps[1:][::-1]
    neg_sums = np.conj(sums[1:][::-1])
    neg_counts = counts[1:][::-1]
    diffs_full = np.concatenate([neg_reps, reps])
    values_full = np.concatenate([neg_sums, sums]) / vol
    counts_full = np.concatenate([neg_counts, counts])
    return PointCorrelation(
        z_max, diffs_full, values_full, counts_full, extent / 2.0, merge_tol
    )
