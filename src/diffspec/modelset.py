"""The silver-mean chain with exact Z[sqrt(2)] arithmetic.

The chain is generated by the tile substitution long -> long long short,
short -> long with tile lengths lambda = 1 + sqrt(2) and 1.  All
coordinates live in Z[sqrt(2)] and are kept as exact integer pairs
(a, b) <-> a + b sqrt(2): PointSet1D.exact is an int64 array of shape
(n, 2) with one row per point.  Bragg peak positions live in the Fourier
module (sqrt(2)/4) Z[sqrt(2)]; their exponential sums are evaluated with
phases reduced exactly, in 64-bit fixed point.  A real number modulo 1
is (q + eps) / 2^64, q a uint64 and eps a float in [0, 1): _fixed_point
finds it for a double, sqrt(2)/4 is (_Q + _EPS) / 2^64, and the
half-integer part of a module element is the top bit of q, half a turn.
One function, _turns, reduces every exact phase: sum_j m_j (q_j + eps_j)
/ 2^64 for int64 m_j is one uint64 wrap, read as a signed turn, plus
float terms for the remaining bits, and goes to the exponential with no
floor.  It takes two columns here (the coordinates c and d of x = c +
d sqrt(2)) and one in the symbolic table of spectral (the site n).  The
reduction is accurate to a few 1e-16 on every platform and keeps
extinctions clean at sample sizes where naively multiplied float phases
would drown them in rounding noise.

Every point-set intensity is read from one evaluator,
intensity_table_at(ps, ks, radii), which takes any list of candidates:
module elements and float frequencies, on exact or float samples, at
nested window radii.  Both of its kinds of rows walk the points once,
in blocks of 8192 from the first: every block adds one matrix product
to the running sums, and a window end inside a block reads the product
of the block's first part, so memory stays flat and the sum at one
radius does not depend on the other radii.  The phase of k = (a, b) at
x is a alpha_x + b beta_x, so e(k x) is the product of two factors: the
factor rows reduce one row per distinct a exactly at k = (a, 0) and one
per distinct b at k = (0, b), each followed by one exponential, and
every sum is an entry of the product of the two.  The module elements K
of the list take them on an exact sample when they need fewer
exponential rows than there are module elements: |A| + |B| < |K|, with
A and B the distinct a and b after k and -k are folded together for real
weights.  Every other candidate takes a direct row, one exponential per
point over the largest window: floats, module elements on a float
sample, and short module lists, among them the single k of
intensity_at.  A block of a direct row is one dot product of the
weights with the exponentials.

On an exact sample no row takes a cosine or sine per point: since
sqrt(2) k = (2b, a) is again a module element, e(-k x) factors along
the two coordinate axes, and each point's exponential is the product of
four entries of one short row of k over the sample's axis grid
(_AxisGrid).  A sample whose grid would not be shorter than the sample
itself, and a list with a module element in range on its window but not
on the whole sample and its grid, take the turns of every point instead.

The exact diffraction of the paper evaluates one sample at many module
elements: Bragg peaks, extinctions and the factors of locator sets.  So
the grid, the bounds of |c| and |d| and each point's four entries in the
grid's row are the sample's axis plan (_axis_plan), built by its first
exact row and read by every later call on it.  The four index columns
take the narrowest unsigned dtype that holds them, uint16 on the
10^5-point chain, so 4 n 2 bytes (0.8 MB there).  The plan is kept on
its sample (subshift.derived) for as long as the sample lives.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .delone import MERGE_TOL, SQRT2, PointSet1D, exact_coords
from .errors import NotSilverMean, OutOfRange
from .subshift import BUILTIN_RULES, _grow, derived

# sqrt(2)/4 = (_Q + _EPS) / 2^64: _Q holds its first 64 fractional bits
# and _EPS (in [0, 1)) the rest, both from 50-digit arithmetic
_Q = np.uint64(0x5A827999FCEF3242)
_EPS = 0.17478590312625418
# bounds of |m| and |b c + a d| over a sample: a and b then fit int64, and
# the float term m _EPS / 2^64 of a phase stays below 0.05 turns
_INT_LIMIT = 2**62
# a float phase k x is a rounded product, off by up to |k x| 2^-53 cycles;
# past this many cycles of error the phases, and the sum, are noise
FLOAT_PHASE_ERROR_LIMIT = 2.0**-20


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
    one, read off the silver-mean fixed point (long -> long long short,
    short -> long) grown from a single long tile.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    word = _grow(BUILTIN_RULES["silver-mean"], 0, n_points)[0][: n_points - 1]
    # after j tiles, i of them long (letter 0, lambda = 1 + sqrt(2)): j + i sqrt(2)
    exact = np.zeros((n_points, 2), dtype=np.int64)
    exact[1:, 0] = np.arange(1, n_points)
    np.cumsum(word == 0, out=exact[1:, 1])
    return PointSet1D(exact_coords(exact), np.ones(n_points, dtype=np.complex128), exact)


def _coord_bounds(c: np.ndarray, d: np.ndarray) -> tuple[int, int]:
    """max |c| and max |d| over the coordinate columns, at least 1."""
    if not len(c):
        return 1, 1
    return max(1, -int(c.min()), int(c.max())), max(1, -int(d.min()), int(d.max()))


def _in_phase_range(k: FourierModuleElement, c_max: int, d_max: int) -> bool:
    """True when the integer sums of k x stay inside +-2^62 for |c| <= c_max, |d| <= d_max."""
    a, b = abs(k.a), abs(k.b)
    return a * c_max + 2 * b * d_max < _INT_LIMIT and b * c_max + a * d_max < _INT_LIMIT


def _fixed_point(ks: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Every k modulo 1 as (q + eps) / 2^64, q uint64 and eps in [0, 1).

    A double is m / 2^j exactly, so q and eps come from one integer
    division; k n mod 1 is then _turns((n, q, eps)) for any int64 n.
    """
    q = np.empty(len(ks), dtype=np.uint64)
    eps = np.empty(len(ks))
    for i, k in enumerate(ks):
        if not np.isfinite(k):
            raise OutOfRange(f"candidate frequency {k} is not finite")
        num, den = k.as_integer_ratio()
        top, rem = divmod(num << 64, den)
        q[i] = top & 0xFFFFFFFFFFFFFFFF
        eps[i] = rem / den
    return q, eps


def _turns(*terms) -> np.ndarray:
    """sum_j m_j (q_j + eps_j) / 2^64 modulo 1, as a signed turn.

    Each term is an int64 array m with the fixed point (q, eps) of a
    real number modulo 1 (_fixed_point), q uint64 and eps a float, or
    arrays of them that broadcast against m, every term to one shape.
    The uint64 products m q and their sum wrap exactly modulo 2^64,
    which is the reduction modulo 1; read through the int64 view the
    sum is a turn in [-1/2, 1/2), and the float terms m eps / 2^64 are
    added to it.  So the result is accurate to a few 1e-16 on the
    circle however large m q is, and lies within the sum of
    |m eps| / 2^64 of [-1/2, 1/2): no floor, since unit_phase takes
    any real phase.
    """
    (m, q, _), *rest = terms
    u = m.view(np.uint64) * q
    for m, q, _ in rest:
        u += m.view(np.uint64) * q
    t = u.view(np.int64) * 2.0**-64
    for m, _, eps in terms:
        t += m * (eps * 2.0**-64)
    return t


def _module_turns(c: np.ndarray, d: np.ndarray, a, b) -> np.ndarray:
    """k x in turns, for k = (a, b) and x = c + d sqrt(2), exact modulo 1.

    k x = c k + d (sqrt(2) k), and sqrt(2) k is the module element
    (2b, a).  The fixed point of (a, b) = b/2 + a sqrt(2)/4 is
    (a _Q + b 2^63, a _EPS): the half-integer b/2 is the top bit, half a
    turn, of b 2^63.  So the turns are _turns over the two columns, one
    uint64 wrap, with float terms (a c + 2 b d) _EPS / 2^64 below 0.05
    in size: the result lies in (-0.55, 0.55).  a and b are ints or
    int64 columns, which broadcast against the coordinate rows; the
    caller has checked the range (_in_phase_range).
    """
    # arrays, not numpy scalars: scalar arithmetic warns when a product wraps
    ua = np.atleast_1d(np.asarray(a, dtype=np.int64)).view(np.uint64)
    ub = np.atleast_1d(np.asarray(b, dtype=np.int64)).view(np.uint64)
    return _turns(
        (c, ua * _Q + (ub << 63), a * _EPS),
        (d, (ub + ub) * _Q + (ua << 63), 2 * b * _EPS),
    )


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


@dataclass(frozen=True)
class _AxisGrid:
    """e(-k x) at the points of an exact sample from short rows of k.

    Write a coordinate of the sample as c = c0 + (h << s) + l with
    0 <= l < 2^s, c0 the least c, and d = d0 + (h' << s) + l' alike.
    Then x = c + d sqrt(2) is the sum of four grid points, c0 + h 2^s,
    l, (d0 + h' 2^s) sqrt(2) and l' sqrt(2), and e(-k x) is the product
    of the exponentials of k at them.  One row of k over the grid, from
    the exact turns (_module_turns) through unit_phase, so serves every
    point by four reads and three products, with no cosine or sine per
    point.  The split s is half the bits of the wider column span, so
    the grid holds about 4 sqrt(span) points.  Origin and split come
    from the whole sample: a point's exponential does not depend on the
    window or on the other points evaluated with it.  index holds, for
    every point of the sample, where its four grid points lie in the
    row, in the narrowest unsigned dtype that holds them.
    """

    points: np.ndarray  # (g, 2) int64: the high c, low c, high d and low d parts
    index: np.ndarray  # (4, n): each point's entries of the four parts

    def rows(self, a, b) -> np.ndarray:
        """e(-k g) over the grid for k = (a, b).

        a and b are ints or int64 columns, as for _module_turns; there
        is then one row per entry of the columns.
        """
        return unit_phase(_module_turns(self.points[:, 0], self.points[:, 1], a, b))

    def phases(self, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """e(-k x) at the points lo..hi-1 of the sample, for each row of rows.

        The block's index columns are read once as intp, and the last
        three factors go in one row at a time, so besides the result
        only those columns and one row of factors are held.
        """
        index = self.index[:, lo:hi].astype(np.intp)
        out = rows.take(index[0], axis=-1)

        def times(row, factors):
            for part in index[1:]:
                row *= factors.take(part)

        if rows.ndim == 1:
            times(out, rows)
        else:
            for row, factors in zip(out, rows):
                times(row, factors)
        return out


def _axis_grid(exact: np.ndarray) -> tuple[_AxisGrid | None, tuple[int, int]]:
    """The grid of a whole exact sample and bounds of |c| and |d| over both.

    The bounds are at least 1 and read the columns once.  The grid is
    None where its rows would not be shorter than the sample,
    2^(s + 1) > len(exact): there the points take their turns directly.
    """
    lo = int(exact[:, 0].min()), int(exact[:, 1].min())
    hi = int(exact[:, 0].max()), int(exact[:, 1].max())
    shift = (max(hi[0] - lo[0], hi[1] - lo[1]).bit_length() + 1) // 2
    step = 1 << shift
    bounds = (max(1, -lo[0], hi[0], step - 1), max(1, -lo[1], hi[1], step - 1))
    if 2 * step > len(exact):
        return None, bounds
    high_c = lo[0] + (np.arange(((hi[0] - lo[0]) >> shift) + 1, dtype=np.int64) << shift)
    high_d = lo[1] + (np.arange(((hi[1] - lo[1]) >> shift) + 1, dtype=np.int64) << shift)
    low = np.arange(step, dtype=np.int64)
    cuts = (0, len(high_c), len(high_c) + step, len(high_c) + step + len(high_d))
    points = np.zeros((cuts[3] + step, 2), dtype=np.int64)
    points[: cuts[2], 0] = np.concatenate([high_c, low])
    points[cuts[2] :, 1] = np.concatenate([high_d, low])
    index = np.empty((4, len(exact)), dtype=np.min_scalar_type(len(points) - 1))
    # block by block, so the int64 temporaries stay _TABLE_CHUNK entries long
    for start in range(0, len(exact), _TABLE_CHUNK):
        block = slice(start, start + _TABLE_CHUNK)
        for axis in range(2):
            i = exact[block, axis] - lo[axis]
            top, bottom = index[2 * axis : 2 * axis + 2, block]
            np.add(i >> shift, cuts[2 * axis], out=top, casting="unsafe")
            np.add(i & (step - 1), cuts[2 * axis + 1], out=bottom, casting="unsafe")
    return _AxisGrid(points, index), bounds


def _axis_plan(ps: PointSet1D) -> tuple[_AxisGrid | None, tuple[int, int]]:
    """_axis_grid(ps.exact), built on the first call for each sample."""
    return derived(ps, "axes", lambda: _axis_grid(ps.exact))


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
    if 2 * radii.max() > extent + MERGE_TOL:
        raise OutOfRange(f"2R = {2 * radii.max():g} exceeds extent {extent:g}")
    if radii.min() <= 0:
        raise OutOfRange(f"radius {radii.min():g} is not positive (extent {extent:g})")
    if not (_WIDTHS[0] <= 2 * radii.min() and 2 * radii.max() <= _WIDTHS[1]):
        raise OutOfRange(f"a window width 2R leaves [{_WIDTHS[0]:g}, {_WIDTHS[1]:g}]")
    x = ps.coords
    stops = np.searchsorted(x, x[0] + 2 * radii + MERGE_TOL, side="right")
    return stops, (2 * radii) ** 2


# points per block of the table's rows: bounds their memory at
# (|A| + |B|) * _TABLE_CHUNK complex numbers for the factor rows and a few
# _TABLE_CHUNK-point arrays per direct row, whatever the sample size
_TABLE_CHUNK = 8192


def _prefix_sums(stops: np.ndarray, operands) -> np.ndarray:
    """The sums over the first s points for every window end s in stops.

    operands(lo, hi) returns two factors L and R for the points lo..hi-1
    such that L[..., :p] @ R[:p] is the sum over the first p of them.
    The points are walked in blocks of _TABLE_CHUNK from the first; a
    window end inside a block adds the product of the block's first part
    to the sums before it, so the sum at each end does not depend on the
    other ends, and memory is that of one block.
    """
    n = int(stops.max())
    total, sums = 0, [None] * len(stops)
    for lo in range(0, n, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, n)
        left, right = operands(lo, hi)
        for j in np.flatnonzero((stops > lo) & (stops <= hi)).tolist():
            p = int(stops[j]) - lo
            sums[j] = total + left[..., :p] @ right[:p]
        if hi < n:
            total = total + left @ right
    return np.array(sums)


def _exponentials(c, d, grid: _AxisGrid | None, a, b):
    """e(-k x) for k = (a, b) at the points lo..hi-1 of c + d sqrt(2).

    Returns a function of (lo, hi).  The exponentials come from the
    rows of the sample's grid, or, where it has none, from the exact
    turns of every point.  a and b are ints or int64 columns, as for
    _module_turns, which give one row per entry.
    """
    if grid is None:
        return lambda lo, hi: unit_phase(_module_turns(c[lo:hi], d[lo:hi], a, b))
    rows = grid.rows(a, b)
    return lambda lo, hi: grid.phases(rows, lo, hi)


def _factor_sums(c, d, w, stops, a_vals, b_vals, grid) -> np.ndarray:
    """Window sums of w e(a alpha_x) e(b beta_x) for every a and b.

    Returns an array of shape (len(stops), len(a_vals), len(b_vals)):
    each block of points adds one matrix product U V^T of its factor
    rows (_prefix_sums).
    """
    a_rows = _exponentials(c, d, grid, a_vals[:, None], 0)
    b_rows = _exponentials(c, d, grid, 0, b_vals[:, None])
    return _prefix_sums(stops, lambda lo, hi: (a_rows(lo, hi) * w[lo:hi], b_rows(lo, hi).T))


def intensity_table_at(ps: PointSet1D, ks, radii, n_jobs: int = 1) -> np.ndarray:
    """Intensities of every candidate in ks at every radius in radii.

    Returns an array of shape (len(ks), len(radii)); a candidate is a
    FourierModuleElement or a float frequency.  The window of radius R
    holds the points in [x_0, x_0 + 2R], anchored at the left end of
    the sample (the chains here grow rightward from 0), so the windows
    are nested prefixes and every sum is read at all radii from one
    pass over the largest window.  The pass walks blocks of
    _TABLE_CHUNK points and reads each window end inside its block
    (_prefix_sums), so memory does not grow with the sample and the
    sum at each radius does not depend on the other radii.

    On an exact sample the module elements take the factor rows (see
    the module docstring) when |A| + |B| is smaller than their number,
    A and B the distinct a and b after k and -k are folded together for
    real weights; each term then carries one rounded product more than
    the direct sum.  Every other candidate takes a direct row, one
    exponential per point: floats, module elements on a float sample
    (at k.value), and short module lists; each block of a direct row is
    one dot product of the weights with the exponentials.  A float's
    exponentials are unit_phase of its float phases.  A module element's
    come from the rows of the sample's axis grid (_AxisGrid), four reads
    and three products per point; where the sample has no grid, or a
    module element of ks is in range on the window but not on the whole
    sample and its grid, they are unit_phase of each point's fixed-point
    turns (_module_turns).  The factor rows take theirs the same way.
    The column bounds come with the grid from the sample's axis plan,
    built once per sample, and serve both the range check and the grid.
    Up to n_jobs threads, no more than the direct rows or the cores,
    share the direct rows; the result does not depend on n_jobs.
    Non-finite floats, float phases whose rounding error
    |k| max|x| 2^-53 passes FLOAT_PHASE_ERROR_LIMIT cycles, and module
    elements so large that the exact integer sums could leave +-2^62 on
    the window, raise OutOfRange.
    """
    ks = list(ks)
    stops, norm = _nested_windows(ps, radii)
    n = int(stops.max())
    x, w = ps.coords[:n], ps.weights[:n]
    sums = np.empty((len(norm), len(ks)), dtype=np.complex128)
    direct = np.ones(len(ks), dtype=bool)
    module = []  # the module elements, which take exact phases
    if ps.exact is not None:
        module = [j for j, k in enumerate(ks) if isinstance(k, FourierModuleElement)]
    grid = None
    if module:
        c, d = ps.exact[:n, 0], ps.exact[:n, 1]
        grid, bounds = _axis_plan(ps)
        for j in module:
            if not _in_phase_range(ks[j], *bounds):
                # the window's own bounds decide OutOfRange; inside them
                # the points take their turns
                if not _in_phase_range(ks[j], *_coord_bounds(c, d)):
                    raise OutOfRange(
                        f"k = {ks[j]} too large for exact phases of these coordinates"
                    )
                grid = None
    if len(module) > 2:  # |A| + |B| >= 2, so shorter lists take the direct rows
        pairs = np.array([(ks[j].a, ks[j].b) for j in module], dtype=np.int64)
        if not np.any(w.imag):
            # real weights: the sum at -k is the conjugate of the sum at k
            flip = (pairs[:, 0] < 0) | ((pairs[:, 0] == 0) & (pairs[:, 1] < 0))
            pairs[flip] *= -1
        a_vals, a_idx = np.unique(pairs[:, 0], return_inverse=True)
        b_vals, b_idx = np.unique(pairs[:, 1], return_inverse=True)
        if len(a_vals) + len(b_vals) < len(module):
            sums[:, module] = _factor_sums(c, d, w, stops, a_vals, b_vals, grid)[
                :, a_idx, b_idx
            ]
            direct[module] = False

    x_max = max(abs(x[0]), abs(x[-1]))  # the coordinates are sorted

    def direct_sums(k) -> np.ndarray:
        # each block is one dot product of the weights with the exponentials
        if isinstance(k, FourierModuleElement) and ps.exact is not None:
            row = _exponentials(c, d, grid, k.a, k.b)

            def operands(lo, hi):
                return w[lo:hi], row(lo, hi)
        else:
            kv = k.value if isinstance(k, FourierModuleElement) else float(k)
            if not math.isfinite(kv):
                raise OutOfRange(f"candidate frequency {kv} is not finite")
            if abs(kv) * x_max * 2.0**-53 > FLOAT_PHASE_ERROR_LIMIT:
                raise OutOfRange(
                    f"candidate frequency {kv:g} too large for float phases of "
                    f"coordinates up to {x_max:g}"
                )

            def operands(lo, hi):
                return w[lo:hi], unit_phase(x[lo:hi], kv)

        return _prefix_sums(stops, operands)

    rows = np.flatnonzero(direct)
    todo = [ks[j] for j in rows]
    workers = min(n_jobs, len(todo), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(direct_sums, todo))
    else:
        found = [direct_sums(k) for k in todo]
    sums[:, rows] = np.reshape(found, (len(rows), len(norm))).T
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
    A one-entry intensity_table_at, so always the direct sum.
    """
    r = ps.extent / 2.0 if radius is None else radius
    return float(intensity_table_at(ps, [k], [r])[0, 0])


def _gap_kinds(ps: PointSet1D) -> np.ndarray:
    """0 for a lambda gap, 1 for a unit gap; NotSilverMean otherwise."""
    if ps.exact is None:
        raise NotSilverMean("gap classification needs exact coordinates")
    g = np.diff(ps.exact, axis=0)
    bad = (g[:, 0] != 1) | ((g[:, 1] != 0) & (g[:, 1] != 1))
    if bad.any():
        a, b = g[int(np.argmax(bad))].tolist()
        raise NotSilverMean(f"gap {a}+{b}r2 is neither 1 nor lambda")
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
) -> InflationReport:
    """Check I_inflated(k) == C * I_original(lambda k) over candidates.

    C is the squared density ratio of the two chains (the per-chain
    normalization makes the identity hold only up to this constant,
    which is reported).  Candidates whose lambda k is extinct have both
    sides zero and are skipped, and so are those whose two sides both
    lie below 1e-3; the remaining ones are ranked by
    inflated intensity and the strongest ``top`` are compared.
    Additionally every extinct candidate is checked to carry intensity
    in the inflated chain (extinctions do not transport).  The inflated
    chain is evaluated once over the candidates and the original once
    over their lambda k, each as one table (intensities_at); a chain of
    zero extent, original or inflated, raises OutOfRange.
    """
    infl = inflate_factor(ps)
    if not min(ps.extent, infl.extent) > 0:
        raise OutOfRange(f"a sample of {len(ps)} point(s) inflates to {len(infl)}: no extent")
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
        if max(i_infl[j], target) < 1e-3:
            continue
        rel = abs(i_infl[j] - target) / max(target, 1e-300)
        rows.append(InflationRow(candidates[j], i_infl[j], orig, rel))
    rows.sort(key=lambda r: -r.inflated_intensity)
    rows = rows[:top]
    max_rel = max((r.rel_error for r in rows), default=0.0)

    transport = [(k, i) for k, i in zip(candidates, i_infl) if is_extinct(k)]
    return InflationReport(rows, ratio, c_scale, max_rel, transport)
