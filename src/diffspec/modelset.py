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
"""

from __future__ import annotations

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


def _phase_reducer(exact: np.ndarray):
    """k -> fractional parts of k x for the exact points x = c + d sqrt(2).

    k x = (b c + a d)/2 + m sqrt(2)/4 with m = a c + 2 b d.  The first
    term is a half-integer reduced by parity.  For the second,
    m sqrt(2)/4 = m (_Q + _EPS) / 2^64: the uint64 product m _Q wraps
    exactly modulo 2^64, which is the reduction modulo 1, and m _EPS / 2^64
    is a float term below 0.05.  Raises OutOfRange when k is so large
    that the integer sums could leave +-2^62.
    """
    c = np.ascontiguousarray(exact[:, 0])
    d = np.ascontiguousarray(exact[:, 1])
    c_max = max(1, -int(c.min()), int(c.max())) if len(c) else 1
    d_max = max(1, -int(d.min()), int(d.max())) if len(d) else 1

    def phases(k: FourierModuleElement) -> np.ndarray:
        a, b = k.a, k.b
        if (
            abs(a) * c_max + 2 * abs(b) * d_max >= _INT_LIMIT
            or abs(b) * c_max + abs(a) * d_max >= _INT_LIMIT
        ):
            raise OutOfRange(f"k = {k} too large for exact phases of these coordinates")
        half = ((b * c + a * d) & 1) * 0.5  # & 1 is the parity for negatives too
        m = a * c + 2 * b * d
        frac = (m.view(np.uint64) * _Q).astype(np.float64) * 2.0**-64
        frac += m * (_EPS * 2.0**-64)
        frac += half
        frac -= np.floor(frac)
        # a phase just below an integer can round up to 1.0, which is 0
        # on the circle; the largest double below 1 is as close
        return np.minimum(frac, _BELOW_ONE, out=frac)

    return phases


def exact_phases(ps: PointSet1D, k: FourierModuleElement) -> np.ndarray:
    """Fractional parts of k * x for every exact point x = c + d sqrt(2).

    Exact up to a few 1e-16 on the circle at any coordinate size the
    int64 pairs hold (see _phase_reducer).
    """
    if ps.exact is None:
        raise NotSilverMean("operation needs exact coordinates")
    return _phase_reducer(ps.exact)(k)


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


def intensity_profile_at(ps: PointSet1D, radii):
    """The evaluator k -> normalized intensities at every radius in radii.

    The window of radius R holds the points in [x_0, x_0 + 2R], anchored
    at the left end of the sample (the chains here grow rightward from
    0), so the windows are nested prefixes: each k costs one exponential
    sum over the largest window, read at every radius.  Exact phase
    reduction is used when both the point set and k are exact.
    """
    if len(ps) == 0:
        raise OutOfRange("empty point set")
    radii = np.asarray(radii, dtype=float)
    extent = ps.extent
    if 2 * radii.max() > extent + 1e-9:
        raise OutOfRange(f"2R = {2 * radii.max():g} exceeds extent {extent:g}")
    if radii.min() <= 0:
        raise OutOfRange(f"radius {radii.min():g} is not positive (extent {extent:g})")
    x = ps.coords
    stops = np.searchsorted(x, x[0] + 2 * radii + 1e-9, side="right")
    n = int(stops.max())
    x, w = x[:n], ps.weights[:n]
    starts = np.zeros_like(stops)
    norm = (2 * radii) ** 2
    exact_phases_of = _phase_reducer(ps.exact[:n]) if ps.exact is not None else None

    def profile(k: "FourierModuleElement | float") -> np.ndarray:
        if isinstance(k, FourierModuleElement) and exact_phases_of is not None:
            arg = -2j * np.pi * exact_phases_of(k)
        else:
            kv = k.value if isinstance(k, FourierModuleElement) else float(k)
            arg = -2j * np.pi * kv * x
        return np.abs(block_sums(w * np.exp(arg), starts, stops)) ** 2 / norm

    return profile


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


def module_box(
    a_max: int, b_max: int, k_max: float | None = None
) -> list[FourierModuleElement]:
    """All module elements with |a| <= a_max, |b| <= b_max (and |k| <= k_max)."""
    out = []
    for a in range(-a_max, a_max + 1):
        for b in range(-b_max, b_max + 1):
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
    in the inflated chain (extinctions do not transport).
    """
    infl = inflate_factor(ps)
    dens_orig = len(ps) / ps.extent
    dens_infl = len(infl) / infl.extent
    ratio = dens_infl / dens_orig
    c_scale = ratio * ratio

    rows: list[InflationRow] = []
    for k in candidates:
        lk = k.times_lambda()
        if is_extinct(lk):
            continue
        i_infl = intensity_at(infl, k)
        i_orig = intensity_at(ps, lk)
        target = c_scale * i_orig
        if max(i_infl, target) < intensity_floor:
            continue
        rel = abs(i_infl - target) / max(target, 1e-300)
        rows.append(InflationRow(k, i_infl, i_orig, rel))
    rows.sort(key=lambda r: -r.inflated_intensity)
    rows = rows[:top]
    max_rel = max((r.rel_error for r in rows), default=0.0)

    transport = []
    for k in candidates:
        if is_extinct(k):
            transport.append((k, intensity_at(infl, k)))
    return InflationReport(rows, ratio, c_scale, max_rel, transport)
