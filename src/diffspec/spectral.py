"""Spectral estimation: intensities, atom detection, grid measures.

The finite-sample intensity of a weighted sequence y at frequency k is

    I_N(k) = | sum_n y_n e^{-2 pi i k n} |^2 / N^2

over a block of N sites; for a point-set comb the sum runs over a
window of length 2R and the normalizer is (2R)^2.  At a Bragg peak
I_N stabilizes as N doubles; in the continuous part of the spectrum it
decays.  Atom detection turns that dichotomy into a criterion: a
candidate is an atom when the intensity is positive and its relative
variation across the last two schedule doublings stays within rel_tol.

There is one intensity table per source type, and intensity_table
dispatches to it: intensity_table_symbolic for a SymbolicWindow (every
candidate, block-factored), intensity_table_at for a PointSet1D (factor
rows for module lists on an exact sample when they need fewer
exponentials than the list has module elements, direct rows for every
other candidate).  detect_atoms and intensity_ratios each read one
table; a single k is a one-row table.  Both tables reduce their exact
phases with the one fixed-point reduction of modelset (_turns): the
symbolic table at the site n, the module elements at the coordinates.

Spectral distribution functions are represented as measures on the
circle [0, 1) cut into equal cells.  spectral_distribution reads the
Fejer (Cesaro) average of a correlation sequence at the cell centres
with one folded FFT, so its grid masses total eta(0).  The candidate
generators (and the CLI's --dyadic) give at most CANDIDATE_LIMIT
frequencies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationSeq
from .delone import PointSet1D
from .errors import GridMismatch, OutOfRange, ZeroMass
from .modelset import (
    FourierModuleElement,
    _fixed_point,
    _turns,
    intensity_table_at,
    unit_phase,
)
from .subshift import SymbolicWindow


def _symbolic_blocks(window: SymbolicWindow, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop site of the block of every size N, validated.

    A block starts at the index origin when the window allows, so
    doubling N extends a substitution-aligned sample; it slides left
    only when the right half is too short.
    """
    sizes = list(sizes)
    if not sizes:
        raise OutOfRange("no block sizes")
    for n in sizes:  # checked before any conversion, so 1e300 or inf cannot overflow
        if not 1 <= n <= len(window):
            raise OutOfRange(f"N = {n} outside window of {len(window)} sites")
    sizes = np.array(sizes, dtype=np.int64)
    starts = np.maximum(window.lo, np.minimum(0, window.hi - sizes + 1))
    return starts, starts + sizes


# candidates per group of the symbolic table: its factor tables hold
# (B + Q + segments) * _TABLE_GROUP complex numbers, whatever len(ks)
_TABLE_GROUP = 64


def intensity_table_symbolic(window: SymbolicWindow, ks, sizes) -> np.ndarray:
    """I_N(k) for every candidate in ks and every block size N in sizes.

    Returns an array of shape (len(ks), len(sizes)).  The block ends cut
    the largest block into segments.  A site of the segment starting at
    s is n = s + qB + r, with B a power of two near the square root of
    the longest segment, so e(-k n) = e(-k s) e(-k qB) e(-k r): the
    letters of a segment form a (Q, B) matrix Y, the sum at every k of a
    group is the row-wise dot of Y R with P, where R[r, k] = e(-k r) and
    P[q, k] = e(-k qB), and the candidates cost K (B + Q + segments)
    exponentials in all.  Each k n is reduced modulo 1 in 64-bit fixed
    point before its exponential (modelset._turns, the reduction of the
    module elements), so the phases are exact to a few 1e-16 however
    large k n is.  Segment sums are added up into every block;
    candidates go in groups of _TABLE_GROUP, so memory does not grow
    with len(ks).
    """
    ks = [k.value if isinstance(k, FourierModuleElement) else float(k) for k in ks]
    starts, stops = _symbolic_blocks(window, sizes)
    norm = (stops - starts).astype(np.float64) ** 2
    cuts = np.unique(np.concatenate([starts, stops]))
    first, last = np.searchsorted(cuts, starts), np.searchsorted(cuts, stops)
    vals = window.values()[cuts[0] - window.lo : cuts[-1] - window.lo]
    if not np.any(vals.imag):
        vals = vals.real  # real letters: half the multiplies
    lengths = np.diff(cuts)
    b = 1 << (int(lengths.max()).bit_length() // 2)
    segments = []  # (Q, B) letter matrices, zero-padded at the end
    for lo, n in zip(cuts[:-1] - cuts[0], lengths):
        y = np.zeros(-(-n // b) * b, dtype=vals.dtype)
        y[:n] = vals[lo : lo + n]
        segments.append(y.reshape(-1, b))
    r = np.arange(b, dtype=np.int64)[:, None]
    qb = np.arange(max(len(y) for y in segments), dtype=np.int64)[:, None] * b
    s = cuts[:-1, None]

    out = np.empty((len(ks), len(norm)))
    for g in range(0, len(ks), _TABLE_GROUP):
        q, eps = _fixed_point(ks[g : g + _TABLE_GROUP])
        rk = unit_phase(_turns((r, q, eps)))
        pk = unit_phase(_turns((qb, q, eps)))
        seg = unit_phase(_turns((s, q, eps)))  # e(-k s), one row per segment
        for j, y in enumerate(segments):
            if y.dtype == np.float64:  # real Y times complex R, as one real product
                yr = (y @ rk.view(np.float64)).view(np.complex128)
            else:
                yr = y @ rk
            seg[j] *= np.einsum("qk,qk->k", yr, pk[: len(y)])
        sums = np.array([seg[i:j].sum(axis=0) for i, j in zip(first, last)])
        out[g : g + _TABLE_GROUP] = (np.abs(sums) ** 2 / norm[:, None]).T
    return out


def intensity_table(source, ks, sizes, n_jobs: int = 1) -> np.ndarray:
    """Intensities of every candidate in ks at every size, one table.

    Returns an array of shape (len(ks), len(sizes)).  sizes are block
    sizes N for a SymbolicWindow (intensity_table_symbolic) and radii R
    for a PointSet1D (intensity_table_at, whose direct rows n_jobs
    threads share); a single k is a one-row table.
    """
    if isinstance(source, SymbolicWindow):
        return intensity_table_symbolic(source, ks, sizes)
    if isinstance(source, PointSet1D):
        return intensity_table_at(source, ks, sizes, n_jobs)
    raise TypeError(f"cannot estimate intensity of {type(source).__name__}")


def sampled_comb_intensity(
    t_samples: np.ndarray, f_samples: np.ndarray, k: float, norm_length: float
) -> float:
    """Quadrature intensity |integral f(t) e^{-2 pi i k t} dt|^2 / L^2.

    Plain Riemann sum on a uniform grid; accurate when the grid step is
    small against both 1/k and the sample's finest feature.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    h = float(t_samples[1] - t_samples[0])
    s = h * np.sum(f_samples * unit_phase(t_samples, k))
    return float(abs(s) ** 2) / norm_length**2


@dataclass
class Atom:
    k: float
    intensity: float
    stability: float
    k_exact: tuple[int, int] | None = None


@dataclass
class SpectralEstimate:
    """Detected atoms plus an optional sampled density grid."""

    atoms: list[Atom]
    schedule: list[float]
    grid: "MeasureOnGrid | None" = None

    def to_json(self) -> str:
        obj = {
            "atoms": [
                {
                    "k": a.k,
                    "k_exact": list(a.k_exact) if a.k_exact is not None else None,
                    "intensity": a.intensity,
                    "stability": a.stability,
                }
                for a in self.atoms
            ],
            "grid": None
            if self.grid is None
            else {
                "min": 0.0,
                "max": 1.0,
                "step": self.grid.grid.step,
                "values": [float(v) for v in self.grid.masses],
            },
            "schedule": list(self.schedule),
        }
        return json.dumps(obj, indent=2)

def detect_atoms(
    source,
    candidates,
    schedule,
    rel_tol: float = 0.05,
    min_intensity: float = 1e-6,
    n_jobs: int = 1,
) -> SpectralEstimate:
    """Classify each candidate frequency as atom or not.

    schedule is an increasing list (at least 3 entries) of block sizes
    N (sequences) or radii R (point sets); a candidate is kept when its
    intensity at the largest size exceeds min_intensity and the maximal
    relative variation across the last two doublings is at most
    rel_tol.  All candidates are read at all sizes from one
    intensity_table.  n_jobs threads serve only the direct rows of a
    point set: float candidates, module elements on a float sample, and
    module lists too short for the factor rows (intensity_table_at).
    Windows, and module lists on an exact sample that take the factor
    rows, are one table and need no threads.  Results are sorted by
    frequency, so parallel evaluation cannot change the output.
    """
    schedule = list(schedule)
    if len(schedule) < 3:
        raise ValueError("schedule needs at least 3 sizes")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must increase")

    candidates = list(candidates)
    rows = intensity_table(source, candidates, schedule, n_jobs).tolist()
    atoms = []
    for k, vals in zip(candidates, rows):
        last = vals[-3:]
        rels = [
            abs(b - a) / max(abs(a), abs(b), 1e-300)
            for a, b in zip(last, last[1:])
        ]
        stability = max(rels)
        if stability <= rel_tol and vals[-1] >= min_intensity:
            kv = k.value if isinstance(k, FourierModuleElement) else float(k)
            exact = (k.a, k.b) if isinstance(k, FourierModuleElement) else None
            atoms.append(Atom(kv, vals[-1], stability, exact))
    atoms.sort(key=lambda a: a.k)
    return SpectralEstimate(atoms, [float(s) for s in schedule])


# Sums that vanish identically leave only rounding residue; one surviving
# site would already give I = 1/N^2, many orders above this floor.
NOISE_FLOOR = 1e-18


def intensity_ratios(source, candidates, schedule) -> np.ndarray:
    """Mean of I_{next}/I_{prev} over candidates, one per schedule step.

    Every candidate's intensities come from one intensity_table, as in
    detect_atoms.  Raises OutOfRange for an empty candidate list, whose
    mean would be undefined.

    Pairs where both intensities sit below NOISE_FLOOR count as fully
    decayed (ratio 0): the underlying sums are exact zeros and the
    stored values are rounding residue, so their quotient carries no
    information.
    """
    candidates = list(candidates)
    if not candidates:
        raise OutOfRange("need at least one candidate, got 0")
    rows = intensity_table(source, candidates, list(schedule))
    prev, nxt = rows[:, :-1], rows[:, 1:]
    ratios = np.where(
        np.maximum(prev, nxt) < NOISE_FLOOR, 0.0, nxt / np.maximum(prev, NOISE_FLOOR)
    )
    return ratios.mean(axis=0)


# candidates a generator or --dyadic gives, at most: 2^24 float64
# frequencies take 128 MiB, and each is a row of an intensity table
CANDIDATE_LIMIT = 2**24


def _check_candidate_count(n: int):
    if n < 1:
        raise OutOfRange(f"need at least one candidate, got {n}")
    if n > CANDIDATE_LIMIT:
        raise OutOfRange(f"{n} candidates, over the limit of {CANDIDATE_LIMIT}")


def sobol_candidates(n: int) -> np.ndarray:
    """The first n nonzero points of the unscrambled one-dimensional Sobol
    sequence, sorted.

    These are dyadic rationals j/2^m, not generic frequencies: in one
    dimension the Sobol sequence is the van der Corput sequence in
    Gray-code order, point i being the bits of i ^ (i >> 1) reversed over
    m bits, over 2^m.  Any m with 2^m > n gives the same points; m here
    is the bit length of n.  The
    dyadics are the eigenvalues of Thue-Morse (Z[1/2]), at which it has no
    diffraction atoms, so checks that find no Thue-Morse atoms among these
    candidates test the paper's example.
    """
    _check_candidate_count(n)
    m = int(n).bit_length()
    i = np.arange(1, n + 1, dtype=np.int64)
    gray = i ^ (i >> 1)
    rev = np.zeros_like(gray)
    for b in range(m):
        rev |= ((gray >> b) & 1) << (m - 1 - b)
    return np.sort(rev / 2.0**m)


def kronecker_candidates(n: int) -> np.ndarray:
    """n irrational frequencies frac(i * golden mean); never dyadic."""
    _check_candidate_count(n)
    g = (np.sqrt(5.0) - 1.0) / 2.0
    return np.sort((np.arange(1, n + 1) * g) % 1.0)


@dataclass(frozen=True)
class UniformGrid:
    """The circle R/Z as [0, 1) cut into n equal cells.

    A frequency k sits in the cell of k modulo 1, so every real k has a
    cell; the last cell also takes the k that round up to 1.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one cell")

    @property
    def step(self) -> float:
        return 1.0 / self.n

    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.step

    def cell_of(self, k: float) -> int:
        if not np.isfinite(k):
            raise OutOfRange(f"{k} is not a point of the circle")
        return min(int(k % 1.0 * self.n), self.n - 1)


CIRCLE_GRID = UniformGrid(1024)


@dataclass
class MeasureOnGrid:
    """A nonnegative measure given by one mass per grid cell."""

    grid: UniformGrid
    masses: np.ndarray

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.grid.n,):
            raise ValueError("one mass per cell required")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def check_compatible(self, other: "MeasureOnGrid"):
        if self.grid != other.grid:
            raise GridMismatch("measures live on different grids")

    def normalized(self) -> "MeasureOnGrid":
        t = self.total_mass
        if t <= 0:
            raise ZeroMass("cannot normalize a measure without mass")
        return MeasureOnGrid(self.grid, self.masses / t)

    def convolve(self, other: "MeasureOnGrid") -> "MeasureOnGrid":
        """Convolution on the circle, exact by FFT; mass wraps around."""
        self.check_compatible(other)
        fa = np.fft.rfft(self.masses)
        fb = np.fft.rfft(other.masses)
        conv = np.fft.irfft(fa * fb, n=self.grid.n)
        return MeasureOnGrid(self.grid, np.maximum(conv, 0.0))

    @classmethod
    def from_atoms(cls, atoms: list[Atom], grid: UniformGrid) -> "MeasureOnGrid":
        masses = np.zeros(grid.n)
        for a in atoms:
            masses[grid.cell_of(a.k)] += a.intensity
        return cls(grid, masses)


def spectral_distribution(eta: CorrelationSeq) -> MeasureOnGrid:
    """CIRCLE_GRID measure of the Fejer average of eta.

    The density sum_{|l| <= M} (1 - |l|/(M+1)) eta(l) e(-l t) is
    sampled at the n cell centres t_i = (i + 1/2)/n as one DFT: since
    e(-l t_i) = e(-l i/n) e(-l/2n), lag l is weighted, twisted by
    e(-l/2n) (its turn reduced exactly, (l mod 2n)/2n), folded onto
    l mod n, and the n folded sums go through one FFT.  Each cell mass is
    the density at its centre times the cell width (the midpoint rule),
    with every negative value floored to zero.  With more cells than
    2 max_lag the midpoint rule is exact, and the masses before the
    floor total eta(0).
    """
    eta.check_hermitian(1e-12)
    m, n = eta.max_lag, CIRCLE_GRID.n
    lags = np.arange(m + 1)
    folded = np.zeros(-(-(m + 1) // n) * n, dtype=np.complex128)
    folded[: m + 1] = (1.0 - lags / (m + 1.0)) * eta.data[m:] * unit_phase(
        lags % (2 * n) / (2.0 * n)
    )
    folded[0] = 0.0
    sums = np.fft.fft(folded.reshape(-1, n).sum(axis=0))
    density = eta.value(0).real + 2.0 * sums.real
    return MeasureOnGrid(CIRCLE_GRID, np.maximum(density, 0.0) * CIRCLE_GRID.step)


def nu_family(
    gamma_hat: MeasureOnGrid, h_samples: np.ndarray, n_max: int
) -> list[MeasureOnGrid]:
    """nu_1 = normalized h * gamma_hat and its convolution powers.

    h must be strictly positive on the grid so that nu_1 is equivalent
    to gamma_hat; the n-th entry is the n-fold convolution nu_1^{*n}.
    Each returned measure keeps total mass 1 to rounding.
    """
    h = np.asarray(h_samples, dtype=float)
    if h.shape != (gamma_hat.grid.n,):
        raise GridMismatch("h must be sampled on the measure's grid")
    if np.any(h <= 0):
        raise ValueError("h must be strictly positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    nu1 = MeasureOnGrid(gamma_hat.grid, gamma_hat.masses * h).normalized()
    out = [nu1]
    for _ in range(n_max - 1):
        out.append(out[-1].convolve(nu1))
    return out
