"""Finite samples of one-dimensional point sets with finite local complexity.

A sample is a strictly increasing list of coordinates with complex
weights.  Coordinates may carry exact representations in Z[sqrt(2)]: an
int64 array of shape (n, 2) whose row (a, b) stands for a + b sqrt(2).
When they do, the cluster operations below compare patterns exactly
instead of through a float merge tolerance.

A K-cluster of a point x is the pattern (Lambda - x) within [-K, K].
The locator set of a cluster collects every point showing that exact
pattern; its density is the cluster's absolute frequency, which ties
point-set geometry to the correlation and diffraction machinery.

The window of x is the points in [x - K - 1e-9, x + K + 1e-9], found for
all interior points by one np.searchsorted per bound.  Windows of equal
size are compared as rows of offsets, exactly ((a, b) rows) or as indices
into one global merge of all float offsets; locator sets are row masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInterior, EmptyPointSet, IncompatibleCluster, MalformedInput

MERGE_TOL = 1e-9
SQRT2 = math.sqrt(2.0)


def exact_coords(exact: np.ndarray) -> np.ndarray:
    """Float values a + b sqrt(2) of exact rows (a, b).

    The same two roundings as float(QuadraticInt(a, b)), so the result
    is bit-identical to converting point by point.
    """
    return exact[:, 0].astype(np.float64) + exact[:, 1].astype(np.float64) * SQRT2


@dataclass
class PointSet1D:
    """Sorted, weighted points; optionally with exact coordinates.

    exact, when given, is an int64 array of shape (n, 2) holding the
    pair (a, b) of each point a + b sqrt(2).
    """

    coords: np.ndarray
    weights: np.ndarray | None = None
    exact: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 1:
            raise ValueError("coords must be one-dimensional")
        if len(self.coords) > 1 and not np.all(np.diff(self.coords) > 0):
            raise ValueError("coords must be strictly increasing")
        if self.weights is None:
            self.weights = np.ones(len(self.coords), dtype=np.complex128)
        else:
            self.weights = np.asarray(self.weights, dtype=np.complex128)
            if self.weights.shape != self.coords.shape:
                raise ValueError("one weight per point required")
        if self.exact is not None:
            self.exact = np.asarray(self.exact, dtype=np.int64)
            if self.exact.shape != (len(self.coords), 2):
                raise ValueError("one exact (a, b) pair per point required")

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

    def distinct_gaps(self, tol: float = MERGE_TOL) -> np.ndarray:
        """Sorted distinct gap values after merging within tol."""
        g = np.sort(self.gaps())
        if len(g) == 0:
            return g
        keep = np.concatenate([[True], np.diff(g) > tol])
        return g[keep]

    def restrict(self, lo: float, hi: float) -> "PointSet1D":
        i = int(np.searchsorted(self.coords, lo, side="left"))
        j = int(np.searchsorted(self.coords, hi, side="right"))
        exact = self.exact[i:j] if self.exact is not None else None
        return PointSet1D(self.coords[i:j], self.weights[i:j], exact)

    def serialize(self) -> str:
        """Header line, then one point per line; floats to 12 significant digits."""
        mode = "exact" if self.exact is not None else "float"
        pr = self.packing_radius
        pr_s = "inf" if np.isinf(pr) else f"{pr:.12g}"
        if self.exact is not None:
            fmt = "%d %d %.12g %.12g\n"
            cols = [self.exact[:, 0], self.exact[:, 1]]
        else:
            fmt = "%.12g %.12g %.12g\n"
            cols = [self.coords]
        cols += [self.weights.real, self.weights.imag]
        fields = [None] * (len(cols) * len(self))
        for j, col in enumerate(cols):
            fields[j :: len(cols)] = col.tolist()
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


def _is_data(line: str) -> bool:
    """Whether a text line holds more than blanks and a # comment."""
    return bool(line.partition("#")[0].strip())


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
    """The local pattern (Lambda - x) cap [-K, K] of some point x."""

    k_radius: float
    offsets: tuple[float, ...]
    exact_offsets: tuple | None = None

    def __post_init__(self):
        if 0.0 not in self.offsets and not any(abs(z) <= MERGE_TOL for z in self.offsets):
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


def _window_rows(values: np.ndarray, idx: np.ndarray, lo: np.ndarray, length: int) -> np.ndarray:
    """values[lo : lo + length] - values[i] for every point i of idx, one row each."""
    rows = values[lo[:, None] + np.arange(length)]
    rows -= values[idx][:, None]
    return rows



def _nearest(merged: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Index of the merged value nearest each offset; ties go right."""
    idx = np.clip(np.searchsorted(merged, offsets), 0, len(merged) - 1)
    left = np.clip(idx - 1, 0, len(merged) - 1)
    use_left = np.abs(merged[left] - offsets) < np.abs(merged[idx] - offsets)
    return np.where(use_left, left, idx)


def enumerate_k_clusters(
    ps: PointSet1D, k_radius: float
) -> list[tuple[Cluster, int]]:
    """Distinct K-clusters over interior points with their sample counts.

    Patterns are compared exactly when exact coordinates are present,
    otherwise through a global merge of all observed offsets within
    1e-9.  Points closer than K to either end are excluded (their
    pattern could be truncated), so counts refer to interior points.
    Clusters come sorted by offsets; equal offsets keep the order of
    first occurrence.
    """
    from .modelset import QuadraticInt

    idx, lo, hi = _windows(ps, k_radius)
    sizes = hi - lo
    if sizes.min() < 1:
        raise IncompatibleCluster("cluster must contain its own center 0")
    groups = [np.nonzero(sizes == size)[0] for size in np.unique(sizes)]
    values = ps.coords if ps.exact is None else ps.exact
    rows = [_window_rows(values, idx[m], lo[m], sizes[m[0]]) for m in groups]
    if ps.exact is None:
        flat = np.sort(np.concatenate([r.ravel() for r in rows]))
        merged = flat[np.diff(flat, prepend=-np.inf) > MERGE_TOL]
        rows = [_nearest(merged, r) for r in rows]

    found: list[tuple[int, Cluster, int]] = []
    for members, r in zip(groups, rows):
        # integer rows compared as raw bytes, one np.void each: np.unique
        # with axis=0 compares field by field, many times slower on wide rows
        flat = r.reshape(len(r), -1)
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        _, firsts, counts = np.unique(keys, return_index=True, return_counts=True)
        for f, n in zip(firsts.tolist(), counts.tolist()):
            i, key = members[f], r[f]
            if ps.exact is None:
                c = Cluster(k_radius, tuple(merged[key].tolist()))
            else:
                offs = ps.coords[lo[i] : hi[i]] - ps.coords[idx[i]]
                exact = tuple(QuadraticInt(a, b) for a, b in key.tolist())
                c = Cluster(k_radius, tuple(offs.tolist()), exact)
            found.append((i, c, n))
    return [(c, n) for _, c, n in sorted(found, key=lambda icn: (icn[1].offsets, icn[0]))]


def locator_set(ps: PointSet1D, cluster: Cluster) -> PointSet1D:
    """All interior points whose K-pattern equals the cluster.

    The result carries unit weights (and exact coordinates when the
    input has them).  An empty result is returned, not raised.
    """
    if any(abs(z) > cluster.k_radius + MERGE_TOL for z in cluster.offsets):
        raise IncompatibleCluster("cluster exceeds its stated radius")
    idx, lo, hi = _windows(ps, cluster.k_radius)
    if ps.exact is not None and cluster.exact_offsets is not None:
        want = np.array([(q.a, q.b) for q in cluster.exact_offsets], dtype=np.int64)
        fits = hi - lo == len(want)
        rows = _window_rows(ps.exact, idx[fits], lo[fits], len(want))
        hit = np.all(rows == want, axis=(1, 2))
    else:
        want = np.asarray(cluster.offsets)
        fits = hi - lo == len(want)
        rows = _window_rows(ps.coords, idx[fits], lo[fits], len(want))
        hit = np.all(np.abs(rows - want) <= MERGE_TOL, axis=1)
    sel = idx[fits][hit]
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
    t = locator_set(ps, cluster)
    idx = _interior_indices(ps, cluster.k_radius)
    span = float(ps.coords[idx[-1]] - ps.coords[idx[0]])
    if span <= 0:
        raise EmptyInterior("interior span is empty")
    absolute = len(t) / span
    relative = len(t) / len(idx)
    return ClusterFrequency(absolute, relative, len(t))


@dataclass(frozen=True)
class BumpFunction:
    """A smoothing bump.

    kind "tent": the unit-height tent of half-width eps with the
    closed-form transform eps * (sin(pi eps k) / (pi eps k))^2.
    kind "identity": a transform-one stub (smoothing by it changes
    nothing; useful as a neutral element in tests).
    kind "custom": sampled values without a closed-form transform.
    """

    kind: str = "tent"
    eps: float = 0.25
    samples: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("tent", "identity", "custom"):
            raise ValueError(f"unknown bump kind {self.kind!r}")
        if self.kind == "tent" and self.eps <= 0:
            raise ValueError("tent half-width must be positive")

    @property
    def has_closed_form_ft(self) -> bool:
        return self.kind in ("tent", "identity")

    def value(self, t: np.ndarray | float) -> np.ndarray | float:
        if self.kind == "tent":
            u = np.abs(np.asarray(t, dtype=float)) / self.eps
            v = np.maximum(0.0, 1.0 - u)
            return float(v) if np.isscalar(t) else v
        if self.kind == "custom":
            ts, vs = self.samples
            return np.interp(t, ts, vs, left=0.0, right=0.0)
        raise ValueError("identity bump has no pointwise values")

    def ft(self, k: np.ndarray | float) -> np.ndarray | float:
        """Fourier transform at frequency k (closed form only)."""
        if self.kind == "identity":
            return np.ones_like(np.asarray(k, dtype=float)) if not np.isscalar(k) else 1.0
        if self.kind == "tent":
            return tent_ft(self.eps, k)
        from .errors import DiffspecError

        raise DiffspecError("custom bump has no closed-form transform")


def tent_ft(eps: float, k: np.ndarray | float) -> np.ndarray | float:
    """Transform of the unit-height tent: eps * sinc(eps k)^2.

    np.sinc is the normalized sin(pi x)/(pi x), so the k -> 0 limit is
    eps, the area under the tent.
    """
    if eps <= 0:
        raise ValueError("tent half-width must be positive")
    val = eps * np.sinc(eps * np.asarray(k, dtype=float)) ** 2
    return float(val) if np.isscalar(k) else val


def smooth_comb(ps: PointSet1D, phi: BumpFunction, t_grid: np.ndarray) -> np.ndarray:
    """Samples of (phi * comb)(t) = sum_x w_x phi(t - x) on the grid.

    With a tent narrower than the packing radius at most one point can
    contribute per t; this is asserted because it is what makes the
    smoothed comb a faithful copy of the point set.
    """
    if phi.kind == "identity":
        raise ValueError("identity bump cannot be sampled")
    t_grid = np.asarray(t_grid, dtype=float)
    if len(ps) == 0:
        raise EmptyPointSet("no points")
    eps = phi.eps if phi.kind == "tent" else float(np.max(np.abs(phi.samples[0])))
    x = ps.coords
    w = ps.weights
    out = np.zeros(len(t_grid), dtype=np.complex128)
    lo = np.searchsorted(x, t_grid - eps, side="left")
    hi = np.searchsorted(x, t_grid + eps, side="right")
    n_contrib = hi - lo
    if phi.kind == "tent" and eps < ps.packing_radius:
        assert int(n_contrib.max(initial=0)) <= 1, "tent narrower than packing radius"
    for j in range(int(n_contrib.max(initial=0))):
        has = n_contrib > j
        pts = lo[has] + j
        out[has] += w[pts] * phi.value(t_grid[has] - x[pts])
    if np.abs(out.imag).max(initial=0.0) == 0.0:
        return out.real
    return out
