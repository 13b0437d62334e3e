"""Point sets, cluster enumeration, locator sets, and bump smoothing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from diffspec.delone import (
    MERGE_TOL,
    Cluster,
    PointSet1D,
    _interior_indices,
    cluster_frequency,
    enumerate_k_clusters,
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

    def test_smooth_comb_carries_weights(self):
        ps = PointSet1D(np.array([0.0, 3.0]), weights=np.array([2.0, -1.0 + 0j]))
        f = smooth_comb(ps, 0.5, np.array([0.0, 3.0]))
        np.testing.assert_allclose(f.real, [2.0, -1.0])
