"""Point sets, cluster enumeration, locator sets, and bump smoothing."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec import delone, subshift
from diffspec.delone import (
    MERGE_TOL,
    Cluster,
    ClusterFrequency,
    PointSet1D,
    _interior_indices,
    cluster_frequency,
    enumerate_k_clusters,
    exact_coords,
    locator_set,
    smooth_comb,
    tent_ft,
)
from diffspec.errors import EmptyInterior, IncompatibleCluster
from diffspec.modelset import silver_mean_chain


class TestPointSet:
    def test_rejects_unsorted_coords(self):
        with pytest.raises(ValueError):
            PointSet1D(np.array([0.0, 2.0, 1.0]))

    def test_rejects_duplicate_coords(self):
        with pytest.raises(ValueError):
            PointSet1D(np.array([0.0, 1.0, 1.0]))

    def test_is_immutable(self):
        ps = silver_mean_chain(10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ps.coords = np.arange(10.0)
        for array in (ps.coords, ps.weights, ps.exact):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_extent_gaps_packing_radius(self):
        ps = PointSet1D(np.array([0.0, 1.0, 3.5]))
        assert ps.extent == 3.5
        assert ps.gaps().tolist() == [1.0, 2.5]
        assert ps.packing_radius == 0.5

    def test_distinct_gaps_merges_near_equal(self):
        ps = PointSet1D(np.array([0.0, 1.0, 2.0 + 1e-12, 4.0]))
        assert len(ps.distinct_gaps()) == 2

    @pytest.mark.parametrize("col", [
        np.array([], dtype=np.int64),
        np.array([5, -3, 5, 0], dtype=np.int64),
        np.array([2**62, -(2**62), 0, 2**62], dtype=np.int64),
        np.array([2**63 - 1, -(2**63), 2**63 - 1], dtype=np.int64),
        np.array([2**63 - 1, 2**63 - 2, 2**63 - 1], dtype=np.int64),
        np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64),
        np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64),
    ], ids=["empty", "short", "wide", "full-int64", "short-at-top", "wide-uint64",
            "short-uint64"])
    def test_column_ranks_are_the_ranks_of_np_unique(self, col):
        # a span past int64 must not wrap, whichever branch ranks it
        ids, n = subshift._column_ranks(col)
        values, want = np.unique(col, return_inverse=True)
        assert (ids.tolist(), n) == (want.tolist(), len(values))

    def test_serialize_parse_float_round_trip(self):
        ps = PointSet1D(np.array([0.0, 1.25]), weights=np.array([1.0, 0.5 - 2j]))
        back = PointSet1D.parse(ps.serialize())
        np.testing.assert_array_equal(back.coords, ps.coords)
        np.testing.assert_array_equal(back.weights, ps.weights)
        assert back.exact is None

    def test_serialize_parse_exact_round_trip(self):
        ps = silver_mean_chain(20)
        back = PointSet1D.parse(ps.serialize())
        np.testing.assert_array_equal(back.exact, ps.exact)
        np.testing.assert_array_equal(back.coords, ps.coords)

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError):
            PointSet1D.parse("0 1 0\n")


class TestClusters:
    def test_cluster_must_contain_center(self):
        with pytest.raises(IncompatibleCluster):
            Cluster(1.0, (0.5, 1.0))

    def test_cluster_offsets_bounded_by_radius(self):
        with pytest.raises(IncompatibleCluster):
            Cluster(1.0, (0.0, 2.0))

    def test_lattice_has_one_cluster(self):
        ps = PointSet1D(np.arange(50.0))
        found = enumerate_k_clusters(ps, 1.1)
        assert len(found) == 1
        cluster, count = found[0]
        assert cluster.offsets == (-1.0, 0.0, 1.0)
        # interior = points whose K-ball fits in the sample: 2 .. 47
        assert count == 46

    def test_silver_chain_has_three_clusters(self):
        ps = silver_mean_chain(2000)
        found = enumerate_k_clusters(ps, 1.1)
        offsets = [c.offsets for c, _ in found]
        assert offsets == [(-1.0, 0.0), (0.0,), (0.0, 1.0)]
        assert sum(n for _, n in found) == len(ps) - 2  # all interior points

    @pytest.mark.parametrize("k_radius", [1.1, 2.5, 6.0, 30.0])
    def test_exact_clusters_match_a_point_by_point_loop(self, k_radius):
        ps = silver_mean_chain(5000)
        x = ps.coords
        first, counts = {}, {}
        for i in _interior_indices(ps, k_radius).tolist():
            lo = np.searchsorted(x, x[i] - k_radius - MERGE_TOL, side="left")
            hi = np.searchsorted(x, x[i] + k_radius + MERGE_TOL, side="right")
            key = tuple(map(tuple, (ps.exact[lo:hi] - ps.exact[i]).tolist()))
            first.setdefault(key, (tuple((x[lo:hi] - x[i]).tolist()), i))
            counts[key] = counts.get(key, 0) + 1
        want = [(offs, key, counts[key]) for key, (offs, _) in
                sorted(first.items(), key=lambda kv: kv[1])]
        got = [(c.offsets, c.exact_offsets, n)
               for c, n in enumerate_k_clusters(ps, k_radius)]
        assert got == want

    def test_exact_and_float_enumeration_agree(self):
        exact = silver_mean_chain(500)
        floats = PointSet1D(exact.coords.copy())
        a = [(c.offsets, n) for c, n in enumerate_k_clusters(exact, 1.1)]
        b = [(c.offsets, n) for c, n in enumerate_k_clusters(floats, 1.1)]
        assert a == b

    def test_locator_set_of_lattice_is_interior(self):
        ps = PointSet1D(np.arange(10.0))
        cluster = enumerate_k_clusters(ps, 1.1)[0][0]
        t = locator_set(ps, cluster)
        assert t.coords.tolist() == list(range(2, 8))

    def test_locator_of_absent_cluster_is_empty(self):
        ps = PointSet1D(np.arange(10.0))
        ghost = Cluster(1.1, (0.0,))
        assert len(locator_set(ps, ghost)) == 0

    def test_one_exact_point_is_one_cluster_at_radius_zero(self):
        # no gaps: the exact plan ranks an empty column of gap rows
        ps = PointSet1D([0.0], exact=[[0, 0]])
        assert enumerate_k_clusters(ps, 0.0) == [(Cluster(0.0, (0.0,), ((0, 0),)), 1)]

    def test_empty_interior(self):
        with pytest.raises(EmptyInterior):
            enumerate_k_clusters(PointSet1D(np.array([0.0, 1.0])), 5.0)

    def test_relative_frequencies_sum_to_one(self):
        ps = silver_mean_chain(5000)
        found = enumerate_k_clusters(ps, 1.1)
        total = sum(cluster_frequency(ps, c).relative for c, _ in found)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k_radius", [1.1, 2.5, 6.0])
    def test_noisy_float_chain_locates_what_it_enumerates(self, k_radius):
        """Coordinate noise of 1e-7, far above the 1e-9 merge tolerance,
        splits gap classes into spurious clusters, but enumeration,
        locator sets and frequencies still count the same points."""
        x = silver_mean_chain(3000).coords
        ps = PointSet1D(x + np.random.default_rng(13).uniform(-1e-7, 1e-7, len(x)))
        found = enumerate_k_clusters(ps, k_radius)
        for cluster, n in found:
            assert len(locator_set(ps, cluster)) == n
            assert cluster_frequency(ps, cluster).count == n
        assert sum(n for _, n in found) == len(_interior_indices(ps, k_radius))

    def test_wide_windows_take_memory_linear_in_points(self):
        """At K = 60 a window holds about 50 points; neither call may hold
        an array of windows times points."""
        ps = silver_mean_chain(100000)
        tracemalloc.start()
        try:
            found = enumerate_k_clusters(ps, 60.0)
            enum_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loc = locator_set(ps, found[0][0])
            loc_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 61
        assert len(loc) == found[0][1]
        assert enum_peak < 40e6
        assert loc_peak < 20e6

    def test_absolute_frequency_of_lattice(self):
        ps = PointSet1D(np.arange(101.0))
        cluster = enumerate_k_clusters(ps, 1.1)[0][0]
        fr = cluster_frequency(ps, cluster)
        assert fr.count == 97
        assert fr.absolute == pytest.approx(97 / 96.0)  # interior spans 2 .. 98


# exact gap rows (a, b) with a + b sqrt(2) > 0, and float gaps, some of
# them within MERGE_TOL of each other and some just past it
GAP_ROWS = [(1, 0), (0, 1), (1, 1), (-1, 1), (2, -1), (3, -2)]
FLOAT_GAPS = [1.0, 1.0 + 2.0**-31, 1.0 + 2.0**-29, 1.5, 2.0 ** 0.5, 2.0 + 1e-7]


@st.composite
def samples(draw):
    """Short exact sets, words over 2-3 gap rows, or float sets over 2-3 gaps;
    starting at 1e9, an exact gap's float values spread past MERGE_TOL."""
    n = draw(st.integers(4, 70))
    if draw(st.booleans()):
        rows = draw(st.lists(st.sampled_from(GAP_ROWS), min_size=2, max_size=3, unique=True))
        start = draw(st.sampled_from([(0, 0), (-5, 3), (10**9, 0)]))
        word = draw(st.lists(st.sampled_from(rows), min_size=n - 1, max_size=n - 1))
        exact = np.cumsum(np.array([start] + word, dtype=np.int64), axis=0)
        return PointSet1D(exact_coords(exact), exact=exact)
    gaps = draw(st.lists(st.sampled_from(FLOAT_GAPS), min_size=2, max_size=3, unique=True))
    word = draw(st.lists(st.sampled_from(gaps), min_size=n - 1, max_size=n - 1))
    start = draw(st.sampled_from([0.0, -3.25, 1e8]))
    return PointSet1D(np.cumsum([start] + word))


def brute_classes(gaps):
    """Each gap's class and each class's smallest and largest gap: in sorted
    order, a gap more than MERGE_TOL above the one before opens a class."""
    ids, lows, highs = [0] * len(gaps), [], []
    for j in sorted(range(len(gaps)), key=gaps.__getitem__):
        if not highs or gaps[j] - highs[-1] > MERGE_TOL:
            lows.append(gaps[j])
            highs.append(gaps[j])
        highs[-1] = gaps[j]
        ids[j] = len(lows) - 1
    return ids, lows, highs


def brute_windows(ps, k_radius):
    """Interior points, point by point, and the window of each point."""
    x, k = ps.coords.tolist(), k_radius
    interior = [i for i, xi in enumerate(x)
                if xi >= x[0] + k - MERGE_TOL and xi <= x[-1] - k + MERGE_TOL]
    return interior, {i: [j for j, xj in enumerate(x)
                          if x[i] - k - MERGE_TOL <= xj <= x[i] + k + MERGE_TOL]
                      for i in interior}


def brute_hits(ps, cluster, windows):
    """The points whose window shows the cluster: the same exact offsets when
    both are exact, else the same size, centre and float gap class of each gap."""
    x, offs = ps.coords.tolist(), list(cluster.offsets)
    centre = min(range(len(offs)), key=lambda j: abs(offs[j]))
    ids, lows, highs = brute_classes([b - a for a, b in zip(x, x[1:])])
    want = [max((c for c in range(len(lows))
                 if lows[c] <= b - a + MERGE_TOL and b - a <= highs[c] + MERGE_TOL), default=-1)
            for a, b in zip(offs, offs[1:])]
    hits = []
    for i, window in windows.items():
        if ps.exact is not None and cluster.exact_offsets is not None:
            a, b = ps.exact[i].tolist()
            same = [(c - a, d - b) for c, d in ps.exact[window].tolist()] == list(
                cluster.exact_offsets)
        else:
            same = (len(window) == len(offs) and window.index(i) == centre
                    and [ids[j] for j in window[:-1]] == want)
        if same:
            hits.append(i)
    return hits


def assert_clusters_match_brute_force(ps, k_radius):
    """Every enumerated cluster, its float-only twin and a few altered
    clusters have the brute-force locator set and frequency."""
    interior, windows = brute_windows(ps, k_radius)
    if not interior:
        with pytest.raises(EmptyInterior):
            enumerate_k_clusters(ps, k_radius)
        return
    found = enumerate_k_clusters(ps, k_radius)
    assert sum(n for _, n in found) == len(interior)
    clusters, floats = [], [Cluster(k_radius, (0.0,))]
    for cluster, n in found:
        assert len(brute_hits(ps, cluster, windows)) == n
        clusters.append(cluster)
        floats.append(Cluster(k_radius, cluster.offsets))
        if len(cluster.offsets) > 1:
            floats.append(Cluster(k_radius, cluster.offsets[1:] if cluster.offsets[0] else
                                  cluster.offsets[:-1]))
        if cluster.exact_offsets:
            (a, b), *rest = cluster.exact_offsets
            clusters.append(Cluster(k_radius, cluster.offsets, ((a - 1, b + 1), *rest)))
    # on an exact sample the float clusters need a plan of their own, which
    # replaces the exact one: checked in two runs, not built for every cluster
    clusters += floats
    span = float(ps.coords[interior[-1]] - ps.coords[interior[0]])
    for cluster in clusters:
        hits = brute_hits(ps, cluster, windows)
        loc = locator_set(ps, cluster)
        assert loc.coords.tolist() == ps.coords[hits].tolist()
        assert loc.weights.tolist() == [1.0] * len(hits)
        if ps.exact is None:
            assert loc.exact is None
        else:
            assert loc.exact.tolist() == ps.exact[hits].tolist()
        if span > 0:
            n = len(hits)
            assert cluster_frequency(ps, cluster) == ClusterFrequency(
                n / span, n / len(interior), n)


class TestClusterPlan:
    @settings(max_examples=40, deadline=None)
    @given(samples(), st.floats(0.5, 8.0), st.floats(0.5, 8.0))
    def test_locators_and_frequencies_match_brute_force(self, ps, k1, k2):
        # k2 replaces the plan of k1, and k1 then replaces it again
        for k_radius in (k1, k2, k1):
            assert_clusters_match_brute_force(ps, k_radius)

    def test_float_cluster_on_exact_sample_at_large_coordinates(self):
        """At 1e9 one exact gap's float values spread past MERGE_TOL, so the
        float plan of an exact sample splits what its exact plan joins."""
        exact = np.cumsum([(10**9, 0)] + [(1, 0), (0, 1), (1, 0)] * 30, axis=0)
        ps = PointSet1D(exact_coords(exact), exact=exact)
        assert len(enumerate_k_clusters(PointSet1D(ps.coords), 1.5)) > len(
            enumerate_k_clusters(ps, 1.5))
        assert_clusters_match_brute_force(ps, 1.5)

    def test_labels_by_size_alone_fail_the_check(self, monkeypatch):
        """The check sees a plan that joins windows of one size but other gaps."""

        def by_size(sizes, left, lo, gap_ids):
            _, first, labels, counts = np.unique(
                sizes, return_index=True, return_inverse=True, return_counts=True)
            return labels, first, counts

        ps = silver_mean_chain(60)
        assert_clusters_match_brute_force(ps, 1.1)
        monkeypatch.setattr(delone, "_group_windows", by_size)
        # an equal sample has no plans yet, so it builds one with by_size
        twin = PointSet1D(ps.coords, ps.weights, ps.exact)
        with pytest.raises(AssertionError):
            assert_clusters_match_brute_force(twin, 1.1)

    def test_one_plan_serves_clusters_locators_and_frequencies(self, monkeypatch):
        original, calls = delone._build_plan, []

        def counting(ps, k_radius, exact):
            calls.append((k_radius, exact))
            return original(ps, k_radius, exact)

        monkeypatch.setattr(delone, "_build_plan", counting)
        ps = silver_mean_chain(100000)
        found = enumerate_k_clusters(ps, 1.1)
        for cluster, n in found:
            assert cluster_frequency(ps, cluster).count == n
            assert len(locator_set(ps, cluster)) == n
        assert [n for _, n in found] == [29289, 41420, 29289]
        assert calls == [(1.1, True)]
        plan = ps._plans[(1.1, True)]
        assert plan.labels.dtype == np.uint8 and len(plan.labels) == 99998
        # a float cluster and another radius each add a plan; every plan stays
        for _ in range(2):
            locator_set(ps, Cluster(1.1, (0.0,)))
            enumerate_k_clusters(ps, 2.5)
            enumerate_k_clusters(ps, 1.1)
        assert calls == [(1.1, True), (1.1, False), (2.5, True)]
        assert list(ps._plans) == calls
        sample, kept = weakref.ref(ps), weakref.ref(plan)
        del ps, plan
        gc.collect()
        assert sample() is None and kept() is None

    def test_alternating_exact_and_float_clusters_build_one_plan_per_mode(self, monkeypatch):
        """Each exact cluster followed by its float twin, on one exact
        sample: both modes' plans stay, so each is built once."""
        original, calls = delone._build_plan, []

        def counting(ps, k_radius, exact):
            calls.append((k_radius, exact))
            return original(ps, k_radius, exact)

        monkeypatch.setattr(delone, "_build_plan", counting)
        ps = silver_mean_chain(20000)
        found = enumerate_k_clusters(ps, 2.5)
        assert len(found) == 3
        for cluster, n in found:
            assert len(locator_set(ps, cluster)) == n
            assert len(locator_set(ps, Cluster(2.5, cluster.offsets))) == n
        assert calls == [(2.5, True), (2.5, False)]


def reference_chain(lo, hi, cols, merge_tol):
    """_chain over one sorted Python list: stable by lo, a value more than
    merge_tol above the largest hi before it opens a chain, and each column
    summed one entry after another from 0.0; lo itself (and, given hi,
    every column) in sorted order, any other column in input order."""
    lo_l = lo.tolist()
    hi_l = lo_l if hi is None else hi.tolist()
    chains, lows, highs, top = [], [], [], -np.inf
    for i in sorted(range(len(lo_l)), key=lo_l.__getitem__):
        if not chains or lo_l[i] - top > merge_tol:
            chains.append([])
            lows.append(lo_l[i])
            highs.append(None)
        chains[-1].append(i)
        top = max(top, hi_l[i])
        highs[-1] = top
    sums = []
    for col in cols:
        values = col.tolist()
        totals = []
        for members in chains:
            total = 0.0
            for i in members if hi is not None or col is lo else sorted(members):
                total += values[i]
            totals.append(total)
        sums.append(totals)
    return lows, highs, [len(c) for c in chains], sums


# values on a grid of 0.25 with ties, some moved by less or more than 1e-9,
# some by a tenth, whose sums depend on the order of the terms
chain_values = st.builds(lambda k, jitter: k * 0.25 + jitter, st.integers(0, 12),
                         st.sampled_from([0.0, 3e-10, 1.1e-9, 0.1, 0.2]))


class TestChain:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(chain_values, max_size=40), st.booleans(),
           st.sampled_from([0.0, 1e-9, 0.3]))
    def test_matches_one_sorted_list(self, data, values, intervals, merge_tol):
        n = len(values)
        lo = np.array(values, dtype=float)
        widths = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 2.0]), min_size=n, max_size=n))
        hi = lo + np.array(widths, dtype=float) if intervals else None
        extra = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n)), dtype=float)
        cols = (lo, extra, lo.copy())
        lows, highs, sizes, sums = delone._chain(lo, hi, cols, merge_tol)
        want = reference_chain(lo, hi, cols, merge_tol)
        assert (lows.tolist(), highs.tolist(), sizes.tolist()) == want[:3]
        assert [s.tolist() for s in sums] == want[3]

    def test_ties_at_a_chain_start_join_that_chain(self):
        lo = np.array([1.0, 0.0, 1.0, 2.0, 1.0])
        lows, highs, sizes, (count,) = delone._chain(lo, None, (np.ones(5),), 0.0)
        assert lows.tolist() == highs.tolist() == [0.0, 1.0, 2.0]
        assert sizes.tolist() == count.tolist() == [1, 3, 1]

    def test_values_add_in_sorted_order(self):
        lo = np.array([0.1, 0.7, 0.3, 0.2])
        total = delone._chain(lo, None, (lo,), 0.5)[3][0]
        assert total.tolist() == [((0.1 + 0.2) + 0.3) + 0.7] != [((0.1 + 0.7) + 0.3) + 0.2]

    def test_a_long_interval_covers_the_ones_after_it(self):
        lo, hi = np.array([0.0, 1.0, 3.0]), np.array([5.0, 1.5, 3.5])
        lows, highs, sizes, _ = delone._chain(lo, hi, (), 0.0)
        assert (lows.tolist(), highs.tolist(), sizes.tolist()) == ([0.0], [5.0], [3])

    def test_empty_input(self):
        empty = np.empty(0)
        for hi in (None, empty):
            lows, highs, sizes, (total,) = delone._chain(empty, hi, (empty,), MERGE_TOL)
            assert len(lows) == len(highs) == len(sizes) == len(total) == 0


class TestBumps:
    def test_tent_values(self):
        ps = PointSet1D(np.array([0.0]))
        f = smooth_comb(ps, 0.5, np.array([0.0, 0.25, 0.5, -10.0]))
        assert f.tolist() == [1.0, 0.5, 0.0, 0.0]

    def test_tent_ft_at_zero_is_area(self):
        assert tent_ft(0.25, 0.0) == pytest.approx(0.25)

    def test_tent_ft_vanishes_at_inverse_width(self):
        assert tent_ft(0.5, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_smooth_comb_rejects_nonpositive_width(self):
        ps = PointSet1D(np.array([0.0, 3.0]))
        for eps in (0.0, -0.5):
            with pytest.raises(ValueError, match="half-width"):
                smooth_comb(ps, eps, np.array([0.0]))

    def test_smooth_comb_reproduces_isolated_tents(self):
        ps = PointSet1D(np.array([0.0, 3.0]))
        t = np.array([-0.25, 0.0, 0.25, 1.5, 3.0])
        f = smooth_comb(ps, 0.5, t)
        np.testing.assert_allclose(f.real, [0.5, 1.0, 0.5, 0.0, 1.0])

    def test_smooth_comb_with_both_neighbours_in_a_rounded_window(self):
        # eps is below the packing radius 0.5, but at 1e4 the rounded ends
        # t -+ eps reach both points; each tent is 0 there
        ps = PointSet1D(np.array([1e4, 1e4 + 1.0]))
        eps = np.nextafter(0.5, 0)
        assert eps < ps.packing_radius
        assert smooth_comb(ps, eps, np.array([1e4 + 0.5])).tolist() == [0.0]

    def test_smooth_comb_carries_weights(self):
        ps = PointSet1D(np.array([0.0, 3.0]), weights=np.array([2.0, -1.0 + 0j]))
        f = smooth_comb(ps, 0.5, np.array([0.0, 3.0]))
        np.testing.assert_allclose(f.real, [2.0, -1.0])
