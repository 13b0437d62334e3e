"""Finite samples of one-dimensional point sets with finite local complexity.

A sample is a strictly increasing list of coordinates with complex
weights.  Coordinates may carry exact representations in Z[sqrt(2)]: an
int64 array of shape (n, 2) whose row (a, b) stands for a + b sqrt(2).
When they do, the cluster operations below compare patterns exactly;
float values are merged by the one rule owned here, MERGE_TOL and the
chain merge _chain: sorted, a value more than MERGE_TOL above the
largest before it opens a new class.  It makes the float gap classes
below and the differences of correlation.autocorr_pointset.  Values
alone take one np.sort and each finds its class by np.searchsorted
(_class_of); only intervals, whose running maximum needs the order,
take a stable argsort.

A K-cluster of a point x is the pattern (Lambda - x) within [-K, K].
The locator set of a cluster collects every point showing that exact
pattern; its density is the cluster's absolute frequency, which ties
point-set geometry to the correlation and diffraction machinery.

The window of x is the points in [x - K - MERGE_TOL, x + K + MERGE_TOL],
found for all interior points by one np.searchsorted per bound.  A
window is keyed by its size, its left count and its word
(subshift.sliding_words) of gap classes: exact (a, b) gap rows, or the
float gap classes of _chain.  Rows are compared only when both the
sample and the cluster are exact.  subshift.row_ranks ranks the gap
rows and groups the keys once per sample, radius and mode into a
cluster plan: one label per interior point and one representative
window per label.  Each plan stays on its sample
(subshift.derived) while the sample lives, so its clusters, locator
sets and frequencies check a cluster against the representatives only
and read the labels for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInterior, EmptyPointSet, IncompatibleCluster, MalformedInput
from .subshift import _is_data, derived, row_ranks, sliding_words

MERGE_TOL = 1e-9  # the one tolerance of float point sets, see _chain
SQRT2 = math.sqrt(2.0)


def _chain(lo, hi, cols, merge_tol):
    """Join the intervals [lo, hi] into chains and add up cols per chain.

    Sorted by lo, an interval opens a new chain when its lo is more than
    merge_tol above the largest hi before it; hi None means hi = lo.
    Returns each chain's lowest lo, highest hi, number of intervals and
    column sums, in order of lo.  np.bincount adds each chain's entries
    one after another.  Given hi, the intervals are stable-sorted (the
    running maximum of hi needs the order) and every column is added in
    that order.  With hi None, lo is only np.sort-ed: each entry's chain
    is the last one starting at or below it (_class_of), a column that
    is lo itself is added in sorted order, so a chain's sum of lo is the
    sequential sum of its sorted values, and any other column in input
    order.
    """
    if hi is None:
        s = top = np.sort(lo)
    else:
        order = np.argsort(lo, kind="stable")
        s, top = lo[order], np.maximum.accumulate(hi[order])
    new = np.empty(len(s), dtype=bool)
    new[:1] = True
    np.greater(s[1:] - top[:-1], merge_tol, out=new[1:])
    first = np.flatnonzero(new)
    sizes = np.diff(first, append=len(s))
    k = len(first)
    if hi is None:
        group = _class_of(s[first], lo) if cols else None
        sums = [
            np.bincount(np.repeat(np.arange(k), sizes), weights=s, minlength=k) if col is lo
            else np.bincount(group, weights=col, minlength=k)
            for col in cols
        ]
    else:
        group = np.repeat(np.arange(k), sizes)
        sums = [np.bincount(group, weights=col[order], minlength=k) for col in cols]
    return s[first], top[first + sizes - 1], sizes, sums


def exact_coords(exact: np.ndarray) -> np.ndarray:
    """Float values a + b sqrt(2) of exact rows (a, b).

    Two roundings per row, float(a) + float(b) * SQRT2, so the result
    is bit-identical to converting the pairs one by one in Python.
    """
    return exact[:, 0].astype(np.float64) + exact[:, 1].astype(np.float64) * SQRT2


@dataclass(frozen=True, eq=False)
class PointSet1D:
    """Sorted, weighted points; optionally with exact coordinates.

    exact, when given, is an int64 array of shape (n, 2) holding the
    pair (a, b) of each point a + b sqrt(2).  A sample is immutable:
    its fields cannot be reassigned and hold read-only views of the
    arrays given (not copies, so those must not be written afterwards),
    so the plans kept on it (subshift.derived), its cluster plans and
    the axis plan of modelset, stay valid.  It is hashed and compared by
    identity.
    """

    coords: np.ndarray
    weights: np.ndarray | None = None
    exact: np.ndarray | None = None
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1:
            raise ValueError("coords must be one-dimensional")
        if len(coords) > 1 and not np.all(np.diff(coords) > 0):
            raise ValueError("coords must be strictly increasing")
        if self.weights is None:
            weights = np.ones(len(coords), dtype=np.complex128)
        else:
            weights = np.asarray(self.weights, dtype=np.complex128)
            if weights.shape != coords.shape:
                raise ValueError("one weight per point required")
        exact = self.exact
        if exact is not None:
            exact = np.asarray(exact, dtype=np.int64)
            if exact.shape != (len(coords), 2):
                raise ValueError("one exact (a, b) pair per point required")
        for name, value in (("coords", coords), ("weights", weights), ("exact", exact)):
            if value is not None:
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def extent(self) -> float:
        if len(self.coords) == 0:
            return 0.0
        return float(self.coords[-1] - self.coords[0])

    @property
    def packing_radius(self) -> float:
        """Half the minimal gap: balls of this radius do not overlap."""
        if len(self.coords) < 2:
            return np.inf
        return float(np.diff(self.coords).min()) / 2.0

    def gaps(self) -> np.ndarray:
        return np.diff(self.coords)

    def distinct_gaps(self) -> np.ndarray:
        """The smallest gap of each class of the float gap merge, sorted."""
        return _chain(self.gaps(), None, (), MERGE_TOL)[0]

    def serialize(self) -> str:
        """Header line, then one point per line.

        Float coordinates are written to 17 significant digits, which
        round-trips every double, so parse(serialize(ps)) gives the same
        coordinates bit for bit; weights keep 12 significant digits.
        """
        mode = "exact" if self.exact is not None else "float"
        pr = self.packing_radius
        pr_s = "inf" if np.isinf(pr) else f"{pr:.12g}"
        if self.exact is not None:
            fmt = "%d %d %s\n"
            cols = [self.exact[:, 0].tolist(), self.exact[:, 1].tolist()]
        else:
            fmt = "%.17g %s\n"
            cols = [self.coords.tolist()]
        # each distinct weight, by the bit patterns of its two 8-byte
        # halves, is formatted once; -0.0 and each NaN keep their own text
        halves = np.ascontiguousarray(self.weights).view(np.uint64).reshape(-1, 2)
        ids, first, _ = row_ranks(halves.T)
        texts = ["%.12g %.12g" % (w.real, w.imag) for w in self.weights[first].tolist()]
        cols.append([texts[i] for i in ids.tolist()])
        fields = [None] * (len(cols) * len(self))
        for j, col in enumerate(cols):
            fields[j :: len(cols)] = col
        return f"pointset {mode} packing_radius {pr_s}\n" + (fmt * len(self)) % tuple(fields)

    @classmethod
    def parse(cls, text: str) -> "PointSet1D":
        """Read the serialize() format; MalformedInput naming the first bad line.

        The header is the first line that is neither blank nor a comment;
        the point lines after it are read by one np.loadtxt, which skips
        blank lines and full-line or trailing # comments.
        """
        lines = text.splitlines()
        i_head = next((i for i, ln in enumerate(lines) if _is_data(ln)), len(lines))
        head = lines[i_head].partition("#")[0].split() if i_head < len(lines) else []
        if not head or head[0] != "pointset":
            raise MalformedInput("point set file must start with a pointset header")
        if len(head) < 2 or head[1] not in ("exact", "float"):
            raise MalformedInput("pointset header needs mode 'exact' or 'float'")
        exact_mode = head[1] == "exact"
        dtype = _EXACT_ROW if exact_mode else _FLOAT_ROW
        body = lines[i_head + 1 :]
        if any(_is_data(ln) for ln in body):
            try:
                rows = np.loadtxt(body, dtype=dtype, comments="#", ndmin=1)
            except ValueError as exc:
                raise _bad_line(lines, i_head + 1, dtype, head[1]) from exc
        else:  # loadtxt warns on input without data
            rows = np.empty(0, dtype=dtype)
        weights = np.empty(len(rows), dtype=np.complex128)
        weights.real = rows["wr"]
        weights.imag = rows["wi"]
        exact = np.stack([rows["a"], rows["b"]], axis=1) if exact_mode else None
        coords = exact_coords(exact) if exact_mode else rows["x"].copy()
        bad, why = np.flatnonzero(~np.isfinite(coords)), "coordinate is not finite"
        if not len(bad):
            bad, why = np.flatnonzero(~(np.diff(coords) > 0)) + 1, "coordinates must increase"
        if len(bad):
            data = [i for i in range(i_head + 1, len(lines)) if _is_data(lines[i])]
            raise MalformedInput(f"line {data[bad[0]] + 1}: {why}")
        return cls(coords, weights, exact)


_EXACT_ROW = np.dtype([("a", "i8"), ("b", "i8"), ("wr", "f8"), ("wi", "f8")])
_FLOAT_ROW = np.dtype([("x", "f8"), ("wr", "f8"), ("wi", "f8")])


def _bad_line(lines: list[str], first: int, dtype: np.dtype, mode: str) -> MalformedInput:
    """The error for the first point line of lines[first:] that np.loadtxt refuses."""
    want = "int64 a, b and floats w_re, w_im" if mode == "exact" else "floats x, w_re, w_im"
    for i in range(first, len(lines)):
        if not _is_data(lines[i]):
            continue
        try:
            np.loadtxt(lines[i : i + 1], dtype=dtype, comments="#", ndmin=1)
        except ValueError:
            return MalformedInput(
                f"line {i + 1}: {mode} point line {lines[i].strip()!r} needs {want}"
            )
    return MalformedInput(f"{mode} point lines need {want}")


@dataclass(frozen=True)
class Cluster:
    """The local pattern (Lambda - x) cap [-K, K] of some point x.

    exact_offsets, for a cluster of an exact sample, holds the offsets
    as (a, b) int pairs, a + b sqrt(2); None for a float sample.
    """

    k_radius: float
    offsets: tuple[float, ...]
    exact_offsets: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if not any(abs(z) <= MERGE_TOL for z in self.offsets):
            raise IncompatibleCluster("cluster must contain its own center 0")
        if any(abs(z) > self.k_radius + MERGE_TOL for z in self.offsets):
            raise IncompatibleCluster("cluster offset outside [-K, K]")

    def __str__(self) -> str:
        inner = ", ".join(f"{z:.6g}" for z in self.offsets)
        return f"Cluster(K={self.k_radius:g}, [{inner}])"


def _interior_indices(ps: PointSet1D, k_radius: float) -> np.ndarray:
    x = ps.coords
    if len(x) == 0:
        raise EmptyPointSet("no points")
    lo = x[0] + k_radius
    hi = x[-1] - k_radius
    idx = np.nonzero((x >= lo - MERGE_TOL) & (x <= hi + MERGE_TOL))[0]
    if len(idx) == 0:
        raise EmptyInterior(f"no point is {k_radius:g} away from both ends")
    return idx


def _windows(ps: PointSet1D, k_radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior points and the index range [lo, hi) of each one's K-window."""
    idx = _interior_indices(ps, k_radius)
    x = ps.coords
    lo = np.searchsorted(x, x[idx] - k_radius - MERGE_TOL, side="left")
    hi = np.searchsorted(x, x[idx] + k_radius + MERGE_TOL, side="right")
    return idx, lo, hi


def _class_of(lows: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """The last class, given the smallest gap of each, whose smallest gap is
    not above each value; for a gap of the sample, that is its own class."""
    return np.searchsorted(lows, gaps, side="right") - 1


@dataclass(frozen=True, eq=False)
class _ClusterPlan:
    """The K-windows of a sample's interior points, grouped once.

    The interior is points start .. stop - 1.  labels[i] (smallest
    unsigned dtype) names the group of interior point start + i: its
    window size, left count and word of gap classes, exact rows when
    exact is set and float gap classes otherwise.  Label j occurs
    counts[j] times, first at point first[j], whose window is points
    lo[j] .. hi[j] - 1.  lows and highs are the smallest and largest gap
    of each float class; None in exact mode.
    """

    k_radius: float
    exact: bool
    start: int
    stop: int
    labels: np.ndarray
    first: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    lows: np.ndarray | None
    highs: np.ndarray | None


def _group_windows(
    sizes: np.ndarray, left: np.ndarray, lo: np.ndarray, gap_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label each window by its size, left count and gap word.

    Labels run by size, then left count, then word rank among the words
    of that length (sliding_words); returns each window's label and each
    label's first window and count.  Left counts are below sizes.
    """
    words = np.zeros(len(sizes), dtype=np.intp)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        if size > 1:
            members = np.flatnonzero(sizes == size)
            words[members] = sliding_words(gap_ids, size - 1)[0][lo[members]]
    return row_ranks([sizes, left, words], int(max(sizes.max(), words.max())) + 1)


def _build_plan(ps: PointSet1D, k_radius: float, exact: bool) -> _ClusterPlan:
    """The cluster plan of ps at radius K, on exact gap rows or float gap classes."""
    if k_radius < 0:
        raise IncompatibleCluster(f"cluster radius K = {k_radius:g} must be nonnegative")
    idx, lo, hi = _windows(ps, k_radius)
    sizes, left = hi - lo, idx - lo
    if exact:
        gap_ids = row_ranks(np.diff(ps.exact, axis=0).T)[0]
        lows = highs = None
    else:
        gaps = ps.gaps()
        lows, highs = _chain(gaps, None, (), MERGE_TOL)[:2]
        gap_ids = _class_of(lows, gaps)
    labels, reps, counts = _group_windows(sizes, left, lo, gap_ids)
    labels = labels.astype(np.min_scalar_type(len(reps) - 1))
    return _ClusterPlan(k_radius, exact, int(idx[0]), int(idx[-1]) + 1, labels,
                        idx[reps], lo[reps], hi[reps], counts, lows, highs)


def _cluster_plan(ps: PointSet1D, k_radius: float, exact: bool) -> _ClusterPlan:
    """The plan of ps for (K, mode), built on the first call for it."""
    return derived(ps, (k_radius, exact), lambda: _build_plan(ps, k_radius, exact))


def enumerate_k_clusters(
    ps: PointSet1D, k_radius: float
) -> list[tuple[Cluster, int]]:
    """Distinct K-clusters over interior points with their sample counts.

    Points closer than K to either end are excluded (their pattern could
    be truncated), so counts refer to interior points.  Exact clusters
    carry the float offsets of their first occurrence, float clusters the
    sums of their gap classes' smallest gaps outward from the centre.
    Clusters come sorted by offsets; equal offsets keep the order of
    first occurrence.
    """
    plan = _cluster_plan(ps, k_radius, ps.exact is not None)
    found: list[tuple[int, Cluster, int]] = []
    for x, a, b, n in zip(*(col.tolist() for col in (plan.first, plan.lo, plan.hi, plan.counts))):
        if plan.exact:
            offs = tuple((ps.coords[a:b] - ps.coords[x]).tolist())
            exact = tuple(map(tuple, (ps.exact[a:b] - ps.exact[x]).tolist()))
        else:
            steps = plan.lows[_class_of(plan.lows, np.diff(ps.coords[a:b]))]
            back, ahead = np.cumsum(steps[: x - a][::-1])[::-1], np.cumsum(steps[x - a :])
            offs, exact = (*(-back).tolist(), 0.0, *ahead.tolist()), None
        found.append((x, Cluster(k_radius, offs, exact), n))
    return [(c, n) for _, c, n in sorted(found, key=lambda icn: (icn[1].offsets, icn[0]))]


def _locate(ps: PointSet1D, cluster: Cluster) -> tuple[_ClusterPlan, np.ndarray]:
    """The plan of the cluster's radius and mode, and the mask of its labels
    whose window matches the cluster in size, left count and each gap: as
    exact rows, or as float gap classes of ps."""
    exact = ps.exact is not None and cluster.exact_offsets is not None
    plan = _cluster_plan(ps, cluster.k_radius, exact)
    if exact:
        rows = np.array(cluster.exact_offsets, dtype=np.int64).reshape(-1, 2)
        centre = np.append(np.flatnonzero(~rows.any(axis=1)), -1)[0]  # -1: no (0, 0) row
    else:
        rows = np.asarray(cluster.offsets)
        centre = np.argmin(np.abs(rows))
    match = (plan.hi - plan.lo == len(rows)) & (plan.first - plan.lo == centre)
    reps = np.flatnonzero(match)
    windows = plan.lo[reps, None] + np.arange(len(rows))
    if exact:
        same = (np.diff(ps.exact[windows], axis=1) == np.diff(rows, axis=0)).all(axis=2)
    else:
        gaps = np.diff(rows)
        c = _class_of(plan.lows, gaps + MERGE_TOL)
        # c = -1, below every class, reads the appended -inf and stays -1
        want = np.where(gaps <= np.append(plan.highs, -np.inf)[c] + MERGE_TOL, c, -1)
        same = _class_of(plan.lows, np.diff(ps.coords[windows], axis=1)) == want
    match[reps] = same.all(axis=1)
    return plan, match


def locator_set(ps: PointSet1D, cluster: Cluster) -> PointSet1D:
    """All interior points whose K-pattern equals the cluster.

    The result carries unit weights (and exact coordinates when the
    input has them).  An empty result is returned, not raised.
    """
    plan, match = _locate(ps, cluster)
    sel = plan.start + np.flatnonzero(match[plan.labels])
    exact = ps.exact[sel] if ps.exact is not None else None
    return PointSet1D(ps.coords[sel], np.ones(len(sel), dtype=np.complex128), exact)


@dataclass
class ClusterFrequency:
    absolute: float  # locator points per unit length
    relative: float  # fraction of points carrying the cluster
    count: int


def cluster_frequency(ps: PointSet1D, cluster: Cluster) -> ClusterFrequency:
    """Absolute (per length) and relative (per point) cluster frequency.

    absolute is the density of the locator set over the interior span;
    relative divides by the overall point density, i.e. it is the
    fraction of interior points whose pattern matches.
    """
    plan, match = _locate(ps, cluster)
    count = int(plan.counts[match].sum())
    span = float(ps.coords[plan.stop - 1] - ps.coords[plan.start])
    if span <= 0:
        raise EmptyInterior("interior span is empty")
    return ClusterFrequency(count / span, count / (plan.stop - plan.start), count)


def tent_ft(eps: float, k: np.ndarray | float) -> np.ndarray | float:
    """Transform of the unit-height tent: eps * sinc(eps k)^2.

    np.sinc is the normalized sin(pi x)/(pi x), so the k -> 0 limit is
    eps, the area under the tent.
    """
    if eps <= 0:
        raise ValueError("tent half-width must be positive")
    val = eps * np.sinc(eps * np.asarray(k, dtype=float)) ** 2
    return float(val) if np.isscalar(k) else val


def smooth_comb(ps: PointSet1D, eps: float, t_grid: np.ndarray) -> np.ndarray:
    """Samples of (phi * comb)(t) = sum_x w_x phi(t - x) on the grid.

    phi is the unit-height tent of half-width eps, whose transform is
    tent_ft.
    """
    if eps <= 0:
        raise ValueError("tent half-width must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if len(ps) == 0:
        raise EmptyPointSet("no points")
    x = ps.coords
    w = ps.weights
    out = np.zeros(len(t_grid), dtype=np.complex128)
    lo = np.searchsorted(x, t_grid - eps, side="left")
    hi = np.searchsorted(x, t_grid + eps, side="right")
    n_contrib = hi - lo
    for j in range(int(n_contrib.max(initial=0))):
        has = n_contrib > j
        pts = lo[has] + j
        out[has] += w[pts] * np.maximum(0.0, 1.0 - np.abs(t_grid[has] - x[pts]) / eps)
    if np.abs(out.imag).max(initial=0.0) == 0.0:
        return out.real
    return out
