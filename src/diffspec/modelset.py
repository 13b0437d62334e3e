"""The silver-mean chain with exact Z[sqrt(2)] arithmetic.

The chain is generated by the tile substitution long -> long long short,
short -> long with tile lengths lambda = 1 + sqrt(2) and 1.  All
coordinates live in Z[sqrt(2)] and are kept as exact integer pairs
(a, b) <-> a + b sqrt(2): PointSet1D.exact is an int64 array of shape
(n, 2) with one row per point.  Bragg peak positions live in the Fourier
module (sqrt(2)/4) Z[sqrt(2)]; their exponential sums are evaluated with
phases reduced exactly: the rational half-integer part by integer
parity, the irrational part m sqrt(2)/4 in 64-bit fixed point, where
uint64 multiplication by the top 64 fractional bits of sqrt(2)/4 wraps
exactly modulo 1 and a float term carries the remaining bits.  The
reduction is accurate to a few 1e-16 on every platform and keeps
extinctions clean at sample sizes where naively multiplied float phases
would drown them in rounding noise.

A list of module elements is evaluated as one table (intensity_table_at).
The phase of k = (a, b) at x is a alpha_x + b beta_x, so e(k x) is the
product of two factors: one row per distinct a, reduced exactly at
k = (a, 0), and one per distinct b, reduced at k = (0, b), each followed
by one exponential.  Every box sum is then an entry of one matrix
product, taken over blocks of 8192 points cut at the window ends, so
memory stays flat.  The table is used when it needs fewer exponential
rows than the list has elements (|A| + |B| < |K|, after k and -k are
folded together for real weights); a single k, as in intensity_at, keeps
the direct sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

import numpy as np

from .delone import SQRT2, PointSet1D, exact_coords
from .errors import NotSilverMean, OutOfRange

# sqrt(2)/4 = (_Q + _EPS) / 2^64: _Q holds its first 64 fractional bits
# and _EPS (in [0, 1)) the rest, both from 50-digit arithmetic
_Q = np.uint64(0x5A827999FCEF3242)
_EPS = 0.17478590312625418
# |m| and |b c + a d| stay below this, so no int64 product or sum wraps
_INT_LIMIT = 2**62
_BELOW_ONE = np.nextafter(1.0, 0.0)


@total_ordering
@dataclass(frozen=True)
class QuadraticInt:
    """The ring element a + b sqrt(2) with integer a, b."""

    a: int
    b: int

    def __add__(self, other: "QuadraticInt") -> "QuadraticInt":
        if not isinstance(other, QuadraticInt):
            return NotImplemented
        return QuadraticInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadraticInt") -> "QuadraticInt":
        if not isinstance(other, QuadraticInt):
            return NotImplemented
        return QuadraticInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "QuadraticInt") -> "QuadraticInt":
        if not isinstance(other, QuadraticInt):
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadraticInt(a * c + 2 * b * d, a * d + b * c)

    def __neg__(self) -> "QuadraticInt":
        return QuadraticInt(-self.a, -self.b)

    def star(self) -> "QuadraticInt":
        """The algebraic conjugate a - b sqrt(2)."""
        return QuadraticInt(self.a, -self.b)

    def __float__(self) -> float:
        return self.a + self.b * SQRT2

    def __lt__(self, other: "QuadraticInt") -> bool:
        # exact order: a + b sqrt(2) < c + d sqrt(2) iff (a - c) < (d - b) sqrt(2)
        da = self.a - other.a
        db = other.b - self.b
        if db == 0:
            return da < 0
        if db > 0:
            return da < 0 or da * da < 2 * db * db
        return da < 0 and da * da > 2 * db * db

    def __str__(self) -> str:
        return f"{self.a}+{self.b}r2"


LAMBDA = QuadraticInt(1, 1)  # the silver mean 1 + sqrt(2)
LAMBDA_SQ = LAMBDA * LAMBDA  # 3 + 2 sqrt(2)


@dataclass(frozen=True)
class FourierModuleElement:
    """k = (sqrt(2)/4) (a + b sqrt(2)) = b/2 + a sqrt(2)/4."""

    a: int
    b: int

    @property
    def value(self) -> float:
        return self.b / 2.0 + self.a * SQRT2 / 4.0

    @property
    def star_value(self) -> float:
        return self.b / 2.0 - self.a * SQRT2 / 4.0

    def times_lambda(self) -> "FourierModuleElement":
        """lambda * k stays in the module: q -> (1 + sqrt(2)) q."""
        return FourierModuleElement(self.a + 2 * self.b, self.a + self.b)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def is_extinct(k: FourierModuleElement) -> bool:
    """True iff the Bragg amplitude at k vanishes identically.

    The conjugate k* equals b/2 - a sqrt(2)/4; the amplitude is zero
    exactly when k* is a nonzero integer multiple of 1/sqrt(2), i.e.
    when b = 0 and a is even and nonzero.
    """
    return k.b == 0 and k.a % 2 == 0 and k.a != 0


def silver_mean_chain(n_points: int) -> PointSet1D:
    """Left endpoints of the first n_points tiles of the fixed chain.

    Starts at 0; gaps are lambda after a long tile and 1 after a short
    one, following the substitution long -> long long short,
    short -> long iterated from a single long tile.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    word = np.zeros(1, dtype=np.int8)  # 0 = long, 1 = short
    while len(word) < n_points:
        long = word == 0
        ends = np.cumsum(np.where(long, 3, 1))
        nxt = np.zeros(int(ends[-1]), dtype=np.int8)
        nxt[ends[long] - 1] = 1  # the short tile closing each long image
        word = nxt
    # gap vectors: lambda = (1, 1), 1 = (1, 0)
    gaps = np.ones((n_points - 1, 2), dtype=np.int64)
    gaps[:, 1] = word[: n_points - 1] == 0
    exact = np.zeros((n_points, 2), dtype=np.int64)
    np.cumsum(gaps, axis=0, out=exact[1:])
    return PointSet1D(exact_coords(exact), np.ones(n_points, dtype=np.complex128), exact)


def _coord_bounds(c: np.ndarray, d: np.ndarray) -> tuple[int, int]:
    """max |c| and max |d| over the coordinate columns, at least 1."""
    if not len(c):
        return 1, 1
    return max(1, -int(c.min()), int(c.max())), max(1, -int(d.min()), int(d.max()))


def _check_phase_range(k: FourierModuleElement, c_max: int, d_max: int) -> None:
    """OutOfRange when the integer sums of k x could leave +-2^62."""
    a, b = abs(k.a), abs(k.b)
    if a * c_max + 2 * b * d_max >= _INT_LIMIT or b * c_max + a * d_max >= _INT_LIMIT:
        raise OutOfRange(f"k = {k} too large for exact phases of these coordinates")


def _reduce_phases(c: np.ndarray, d: np.ndarray, a, b) -> np.ndarray:
    """Fractional parts of k x for k = (a, b) and x = c + d sqrt(2).

    k x = (b c + a d)/2 + m sqrt(2)/4 with m = a c + 2 b d.  The first
    term is a half-integer reduced by parity.  For the second,
    m sqrt(2)/4 = m (_Q + _EPS) / 2^64: the uint64 product m _Q wraps
    exactly modulo 2^64, which is the reduction modulo 1, and m _EPS / 2^64
    is a float term below 0.05.  a and b are ints or int64 columns, which
    broadcast against the coordinate rows; the caller has checked the
    range (_check_phase_range).
    """
    half = ((b * c + a * d) & 1) * 0.5  # & 1 is the parity for negatives too
    return wrap_phases(a * c + 2 * b * d, _Q, _EPS, half)


def wrap_phases(m: np.ndarray, q, eps, offset=0.0) -> np.ndarray:
    """Fractional parts of offset + m (q + eps) / 2^64 for int64 m.

    q is a uint64 and eps a float in [0, 1), or arrays of them that
    broadcast against m: the fixed-point form of a real number modulo 1.
    The uint64 product m q wraps exactly modulo 2^64, which is the
    reduction modulo 1, and m eps / 2^64 is a float term that stays
    small while |m| does.  The result is accurate to a few 1e-16 on the
    circle, however large m q is.
    """
    frac = (m.view(np.uint64) * q).astype(np.float64) * 2.0**-64
    frac += m * (eps * 2.0**-64)
    frac += offset
    frac -= np.floor(frac)
    # a phase just below an integer can round up to 1.0, which is 0
    # on the circle; the largest double below 1 is as close
    return np.minimum(frac, _BELOW_ONE, out=frac)


def _phase_reducer(exact: np.ndarray):
    """k -> fractional parts of k x for the exact points x = c + d sqrt(2).

    Raises OutOfRange when k is so large that the integer sums could
    leave +-2^62 (see _reduce_phases).
    """
    c = np.ascontiguousarray(exact[:, 0])
    d = np.ascontiguousarray(exact[:, 1])
    c_max, d_max = _coord_bounds(c, d)

    def phases(k: FourierModuleElement) -> np.ndarray:
        _check_phase_range(k, c_max, d_max)
        return _reduce_phases(c, d, k.a, k.b)

    return phases


def exact_phases(ps: PointSet1D, k: FourierModuleElement) -> np.ndarray:
    """Fractional parts of k * x for every exact point x = c + d sqrt(2).

    Exact up to a few 1e-16 on the circle at any coordinate size the
    int64 pairs hold (see _reduce_phases).
    """
    if ps.exact is None:
        raise NotSilverMean("operation needs exact coordinates")
    return _phase_reducer(ps.exact)(k)


def unit_phase(theta, scale: float = 1.0) -> np.ndarray:
    """e^{-2 pi i scale theta} for a real array theta.

    The angle (-2 pi scale) theta is written into the imaginary view of
    the result, and its cosine and sine into the two views, so the
    complex exponential of a purely imaginary argument costs one pass
    each and no complex temporaries.
    """
    out = np.empty(np.shape(theta), dtype=np.complex128)
    np.multiply(theta, -2.0 * np.pi * scale, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def block_sums(terms: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Sums of terms[starts[j]:stops[j]] for every j, from one reduction.

    terms must run from the first start to the last stop.  The block
    ends cut it into segments, each summed once (pairwise, like np.sum),
    and every block adds up its few segments; nested blocks of all
    sizes thus cost one pass over the largest.
    """
    cuts = np.unique(np.concatenate([starts, stops]))
    seg = np.add.reduceat(terms, cuts[:-1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return cum[np.searchsorted(cuts, stops)] - cum[np.searchsorted(cuts, starts)]


# window widths 2R whose square is a normal float
_WIDTHS = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max))


def _nested_windows(ps: PointSet1D, radii) -> tuple[np.ndarray, np.ndarray]:
    """Window ends and (2R)^2 normalizers for the radii, validated.

    The window of radius R holds the points in [x_0, x_0 + 2R], so every
    window is a prefix of the sample and ends at its entry of stops.
    """
    if len(ps) == 0:
        raise OutOfRange("empty point set")
    radii = np.asarray(radii, dtype=float)
    extent = ps.extent
    if 2 * radii.max() > extent + 1e-9:
        raise OutOfRange(f"2R = {2 * radii.max():g} exceeds extent {extent:g}")
    if radii.min() <= 0:
        raise OutOfRange(f"radius {radii.min():g} is not positive (extent {extent:g})")
    if not (_WIDTHS[0] <= 2 * radii.min() and 2 * radii.max() <= _WIDTHS[1]):
        raise OutOfRange(f"a window width 2R leaves [{_WIDTHS[0]:g}, {_WIDTHS[1]:g}]")
    x = ps.coords
    stops = np.searchsorted(x, x[0] + 2 * radii + 1e-9, side="right")
    return stops, (2 * radii) ** 2


def intensity_profile_at(ps: PointSet1D, radii):
    """The evaluator k -> normalized intensities at every radius in radii.

    The window of radius R holds the points in [x_0, x_0 + 2R], anchored
    at the left end of the sample (the chains here grow rightward from
    0), so the windows are nested prefixes: each k costs one exponential
    sum over the largest window, read at every radius.  Exact phase
    reduction is used when both the point set and k are exact.
    """
    stops, norm = _nested_windows(ps, radii)
    n = int(stops.max())
    x, w = ps.coords[:n], ps.weights[:n]
    starts = np.zeros_like(stops)
    exact_phases_of = _phase_reducer(ps.exact[:n]) if ps.exact is not None else None

    def profile(k: "FourierModuleElement | float") -> np.ndarray:
        if isinstance(k, FourierModuleElement) and exact_phases_of is not None:
            terms = w * unit_phase(exact_phases_of(k))
        else:
            kv = k.value if isinstance(k, FourierModuleElement) else float(k)
            terms = w * unit_phase(x, kv)
        return np.abs(block_sums(terms, starts, stops)) ** 2 / norm

    return profile


# points per block of the factor tables: bounds their memory at
# (|A| + |B|) * _TABLE_CHUNK complex numbers, whatever the sample size
_TABLE_CHUNK = 8192


def intensity_table_at(ps: PointSet1D, ks, radii) -> np.ndarray:
    """Intensities of every module element in ks at every radius.

    Returns an array of shape (len(ks), len(radii)), the rows of
    intensity_profile_at.  Every exact phase is linear in k, so
    e(k x) = e(a alpha_x) e(b beta_x) with alpha, beta the phases at
    k = (1, 0) and (0, 1).  One factor row per distinct a (reduced
    exactly at k = (a, 0)) and one per distinct b (at k = (0, b)), each
    followed by one exponential, give every sum of the list as one
    matrix product (U w) V^T; each term carries one rounded product
    more than the direct sum, whatever the size of a and b.  The points
    are walked in blocks cut at the window ends, and the block products
    are accumulated into the nested window sums.

    With real weights the sum at -k is the conjugate of the sum at k,
    so k and -k share one entry and have equal intensities.  The table
    costs |A| + |B| exponential rows, A and B the distinct a and b left
    after that folding, against |K| for the direct route; it is used
    when |A| + |B| < |K| on an exact point set, and otherwise every k
    goes through intensity_profile_at.
    """
    ks = list(ks)
    stops, norm = _nested_windows(ps, radii)
    pairs = np.array([(k.a, k.b) for k in ks], dtype=np.int64).reshape(len(ks), 2)
    if not np.any(ps.weights.imag):
        # real weights: the sum at -k is the conjugate of the sum at k
        flip = (pairs[:, 0] < 0) | ((pairs[:, 0] == 0) & (pairs[:, 1] < 0))
        pairs[flip] *= -1
    a_vals, a_idx = np.unique(pairs[:, 0], return_inverse=True)
    b_vals, b_idx = np.unique(pairs[:, 1], return_inverse=True)
    if ps.exact is None or len(a_vals) + len(b_vals) >= len(ks):
        profile = intensity_profile_at(ps, radii)
        return np.array([profile(k) for k in ks]).reshape(len(ks), len(norm))

    cuts = np.unique(np.concatenate([[0], stops]))
    n = int(cuts[-1])
    c = np.ascontiguousarray(ps.exact[:n, 0])
    d = np.ascontiguousarray(ps.exact[:n, 1])
    w = ps.weights[:n]
    c_max, d_max = _coord_bounds(c, d)
    for k in ks:
        _check_phase_range(k, c_max, d_max)
    a_col, b_col = a_vals[:, None], b_vals[:, None]

    # cum[j] holds the sums over the points before cuts[j]
    cum = np.zeros((len(cuts), len(a_vals), len(b_vals)), dtype=np.complex128)
    for j in range(len(cuts) - 1):
        cum[j + 1] = cum[j]
        for lo in range(cuts[j], cuts[j + 1], _TABLE_CHUNK):
            hi = min(lo + _TABLE_CHUNK, cuts[j + 1])
            u = unit_phase(_reduce_phases(c[lo:hi], d[lo:hi], a_col, 0)) * w[lo:hi]
            v = unit_phase(_reduce_phases(c[lo:hi], d[lo:hi], 0, b_col))
            cum[j + 1] += u @ v.T
    sums = cum[np.searchsorted(cuts, stops)][:, a_idx, b_idx]  # (radii, ks)
    return (np.abs(sums) ** 2 / norm[:, None]).T


def intensities_at(ps: PointSet1D, ks) -> list[float]:
    """intensity_at over the whole sample for every k in ks, as one table."""
    return intensity_table_at(ps, ks, [ps.extent / 2.0])[:, 0].tolist()


def intensity_at(
    ps: PointSet1D, k: "FourierModuleElement | float", radius: float | None = None
) -> float:
    """Normalized intensity |sum_x w_x e^{-2 pi i k x}|^2 / (2R)^2.

    The sum runs over the points within a window of length 2R anchored
    at the left end of the sample; radius None uses the whole sample.
    The one-radius case of intensity_profile_at.
    """
    r = ps.extent / 2.0 if radius is None else radius
    return float(intensity_profile_at(ps, [r])(k)[0])


def _gap_kinds(ps: PointSet1D) -> np.ndarray:
    """0 for a lambda gap, 1 for a unit gap; NotSilverMean otherwise."""
    if ps.exact is None:
        raise NotSilverMean("gap classification needs exact coordinates")
    g = np.diff(ps.exact, axis=0)
    bad = (g[:, 0] != 1) | ((g[:, 1] != 0) & (g[:, 1] != 1))
    if bad.any():
        a, b = g[int(np.argmax(bad))].tolist()
        raise NotSilverMean(f"gap {QuadraticInt(a, b)} is neither 1 nor lambda")
    return (1 - g[:, 1]).astype(np.int8)


def inflate_factor(ps: PointSet1D) -> PointSet1D:
    """The points opening an inflation block: start of two long tiles.

    A point that begins a long tile whose successor also begins a long
    tile is exactly the image under multiplication by lambda of a chain
    point, so the result is the chain rescaled by lambda (up to the two
    trailing points whose forward gaps the sample cannot classify).
    """
    kinds = _gap_kinds(ps)
    keep = np.flatnonzero((kinds[:-1] == 0) & (kinds[1:] == 0))
    return PointSet1D(ps.coords[keep], np.ones(len(keep), dtype=np.complex128), ps.exact[keep])


def weighted_silver_comb(
    ps: PointSet1D, w_short_start: complex, w_long_start: complex
) -> PointSet1D:
    """Reweight each point by the kind of tile it begins.

    The final point begins no tile and is dropped.  Weights (1, 1) give
    back the plain comb minus that endpoint; weights (0, 1) mark the
    long-tile starts.
    """
    kinds = _gap_kinds(ps)
    w = np.where(kinds == 0, complex(w_long_start), complex(w_short_start))
    exact = ps.exact[:-1] if ps.exact is not None else None
    return PointSet1D(ps.coords[:-1], w.astype(np.complex128), exact)


# the most elements, (2 a_max + 1)(2 b_max + 1), that module_box lists
MODULE_BOX_LIMIT = 10**6


def module_box(
    a_max: int, b_max: int, k_max: float | None = None
) -> list[FourierModuleElement]:
    """All module elements with |a| <= a_max, |b| <= b_max (and |k| <= k_max).

    Sorted by (k, a).  Only the b with |b/2 + a sqrt(2)/4| <= k_max are
    listed for each a, so a small k_max costs little in a large box.
    Raises OutOfRange for a negative bound or a box of more than
    MODULE_BOX_LIMIT elements, before anything is listed.
    """
    if a_max < 0 or b_max < 0:
        raise OutOfRange(f"module box bounds must be nonnegative, got {a_max}, {b_max}")
    size = (2 * a_max + 1) * (2 * b_max + 1)
    if size > MODULE_BOX_LIMIT:
        raise OutOfRange(f"module box of {size} elements exceeds {MODULE_BOX_LIMIT}")
    if k_max is not None and k_max < 0:
        return []
    s = SQRT2 / 4.0
    # a bound below the box's largest |k| cuts a b-range per a; nan never cuts
    cut = k_max is not None and k_max < b_max / 2.0 + a_max * s
    out = []
    for a in range(-a_max, a_max + 1):
        b_lo, b_hi = -b_max, b_max
        if cut:
            # |b/2 + a sqrt(2)/4| <= k_max, widened by one b at each end
            # against rounding; the float check below decides those
            b_lo = max(b_lo, math.ceil(-2.0 * (k_max + a * s)) - 1)
            b_hi = min(b_hi, math.floor(2.0 * (k_max - a * s)) + 1)
        for b in range(b_lo, b_hi + 1):
            k = FourierModuleElement(a, b)
            if k_max is not None and abs(k.value) > k_max:
                continue
            out.append(k)
    return sorted(out, key=lambda k: (k.value, k.a))


@dataclass
class InflationRow:
    k: FourierModuleElement
    inflated_intensity: float
    original_at_lambda_k: float
    rel_error: float


@dataclass
class InflationReport:
    rows: list[InflationRow]
    density_ratio: float  # density(inflated) / density(original)
    scale_constant: float  # density_ratio squared, the intensity ratio
    max_rel_error: float
    extinction_transport: list[tuple[FourierModuleElement, float]]


def verify_inflation_identity(
    ps: PointSet1D,
    candidates: list[FourierModuleElement],
    top: int = 20,
    intensity_floor: float = 1e-3,
) -> InflationReport:
    """Check I_inflated(k) == C * I_original(lambda k) over candidates.

    C is the squared density ratio of the two chains (the per-chain
    normalization makes the identity hold only up to this constant,
    which is reported).  Candidates whose lambda k is extinct have both
    sides zero and are skipped; the remaining ones are ranked by
    inflated intensity and the strongest ``top`` are compared.
    Additionally every extinct candidate is checked to carry intensity
    in the inflated chain (extinctions do not transport).  The inflated
    chain is evaluated once over the candidates and the original once
    over their lambda k, each as one table (intensities_at).
    """
    infl = inflate_factor(ps)
    dens_orig = len(ps) / ps.extent
    dens_infl = len(infl) / infl.extent
    ratio = dens_infl / dens_orig
    c_scale = ratio * ratio

    candidates = list(candidates)
    i_infl = intensities_at(infl, candidates)
    compared = [j for j, k in enumerate(candidates) if not is_extinct(k.times_lambda())]
    i_orig = intensities_at(ps, [candidates[j].times_lambda() for j in compared])

    rows: list[InflationRow] = []
    for j, orig in zip(compared, i_orig):
        target = c_scale * orig
        if max(i_infl[j], target) < intensity_floor:
            continue
        rel = abs(i_infl[j] - target) / max(target, 1e-300)
        rows.append(InflationRow(candidates[j], i_infl[j], orig, rel))
    rows.sort(key=lambda r: -r.inflated_intensity)
    rows = rows[:top]
    max_rel = max((r.rel_error for r in rows), default=0.0)

    transport = [(k, i) for k, i in zip(candidates, i_infl) if is_extinct(k)]
    return InflationReport(rows, ratio, c_scale, max_rel, transport)
