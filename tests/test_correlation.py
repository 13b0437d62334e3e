"""Autocorrelation of sequences and point sets."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.correlation import (
    PAIR_LIMIT,
    autocorr_pointset,
    autocorr_symbolic,
    autocorr_via_spectral_inner,
)
from diffspec.delone import PointSet1D
from diffspec.errors import NotHermitian, OutOfRange, WindowTooShort, ZTooLarge
from diffspec.factors import indicator_block_map
from diffspec.modelset import silver_mean_chain
from diffspec.subshift import SymbolicWindow, fixed_point_window, rule_by_name


def period2(n=64):
    letters = np.tile([0, 1], n).astype(np.int16)
    return SymbolicWindow(letters, -n, weights={0: 1.0, 1: -1.0})


def eta_tm(m, _memo={0: 1.0, 1: -1.0 / 3.0}):
    """Lag values of the two-letter parity sequence, solved recursively.

    The odd-lag relation at m = 1 closes on itself and pins the value
    -1/3; everything else follows from halving the lag.
    """
    if m not in _memo:
        if m % 2 == 0:
            _memo[m] = eta_tm(m // 2)
        else:
            _memo[m] = -(eta_tm(m // 2) + eta_tm(m // 2 + 1)) / 2.0
    return _memo[m]


class TestSymbolic:
    def test_alternating_sequence_is_exactly_periodic(self):
        eta = autocorr_symbolic(period2(), 8)
        for m in range(-8, 9):
            assert eta.value(m) == (-1.0) ** m

    def test_constant_sequence_gives_all_ones(self):
        w = SymbolicWindow(np.zeros(64, dtype=np.int16), 0)
        eta = autocorr_symbolic(w, 5)
        assert all(eta.value(m) == 1.0 for m in range(-5, 6))

    def test_pair_count_is_boundary_exact(self):
        eta = autocorr_symbolic(period2(16), 4)
        assert eta.pair_count(0) == 32
        assert eta.pair_count(3) == 29
        assert eta.pair_count(-3) == 29

    def test_window_too_short(self):
        w = SymbolicWindow(np.zeros(10, dtype=np.int16), 0)
        with pytest.raises(WindowTooShort):
            autocorr_symbolic(w, 4)

    def test_hermitian_symmetry_with_complex_weights(self):
        w = fixed_point_window(
            rule_by_name("thue-morse"), 0, 512, weights={0: 1.0 + 0.5j, 1: -0.25j}
        )
        eta = autocorr_symbolic(w, 16)
        eta.check_hermitian(0.0)
        for m in range(1, 17):
            assert eta.value(-m) == np.conj(eta.value(m))

    def test_check_hermitian_raises_on_tampered_data(self):
        eta = autocorr_symbolic(period2(), 4)
        eta.data[0] += 1e-3
        with pytest.raises(NotHermitian):
            eta.check_hermitian(1e-9)

    def test_thue_morse_recursion_oracle(self):
        w = fixed_point_window(
            rule_by_name("thue-morse"), 0, 2**16, weights={0: 1.0, 1: -1.0}
        )
        eta = autocorr_symbolic(w, 32)
        dev = max(abs(eta.value(m).real - eta_tm(m)) for m in range(33))
        assert dev <= 1e-3

    def test_csv_has_one_row_per_lag(self):
        csv = autocorr_symbolic(period2(), 3).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "lag_or_diff,re,im,n_used"
        assert len(lines) == 8


class TestSpectralInnerRoute:
    def test_matches_direct_route_for_indicator(self):
        w = fixed_point_window(rule_by_name("fibonacci"), 0, 2048)
        g = indicator_block_map((0, 1))
        from diffspec.factors import apply_block_map

        direct = autocorr_symbolic(apply_block_map(w, g), 16)
        inner = autocorr_via_spectral_inner(w, g, 16)
        dev = max(abs(direct.value(m) - inner.value(m)) for m in range(-16, 17))
        assert dev <= 1e-14

    def test_lag_zero_is_word_frequency(self):
        w = fixed_point_window(rule_by_name("fibonacci"), 0, 4096)
        from diffspec.subshift import word_frequency_empirical

        nu = autocorr_via_spectral_inner(w, indicator_block_map((0, 0)), 0).value(0).real
        counted, _ = word_frequency_empirical(w, (0, 0))
        assert nu == pytest.approx(counted, abs=1e-12)


class TestPointSets:
    def test_integer_comb_values(self):
        ps = PointSet1D(np.arange(5.0))
        pc = autocorr_pointset(ps, 3.0)
        # extent 4, counts 5,4,3,2 at differences 0,1,2,3
        assert pc.counts.tolist() == [2, 3, 4, 5, 4, 3, 2]
        assert pc.to_csv().splitlines()[4] == "0,1.25,0,5"
        assert pc.value(0.0) == pytest.approx(5 / 4)
        assert pc.value(1.0) == pytest.approx(1.0)
        assert pc.value(3.0) == pytest.approx(2 / 4)
        assert pc.value(-2.0) == pytest.approx(3 / 4)

    def test_missing_difference_is_zero(self):
        ps = PointSet1D(np.arange(5.0))
        pc = autocorr_pointset(ps, 3.0)
        assert pc.value(0.5) == 0.0

    def test_weights_conjugated_on_the_left(self):
        ps = PointSet1D(np.arange(4.0), weights=np.array([1j, 1.0, 1j, 1.0]))
        pc = autocorr_pointset(ps, 2.0)
        # both difference-2 pairs multiply to 1, extent is 3
        assert pc.value(2.0) == pytest.approx(2 / 3)
        assert pc.value(-2.0) == pytest.approx(np.conj(pc.value(2.0)))
        # difference 1 alternates conj(1j)*1 and conj(1)*1j
        assert pc.value(1.0) == pytest.approx((2 * (-1j) + 1j) / 3)

    def test_merge_tolerance_groups_jittered_differences(self):
        coords = np.array([0.0, 1.0, 2.0 + 1e-12])
        pc = autocorr_pointset(PointSet1D(coords), 1.5, merge_tol=1e-9)
        assert pc.value(1.0) == pytest.approx(1.0)
        assert len(pc.diffs[np.abs(pc.diffs - 1.0) < 0.1]) == 1

    def test_z_too_large(self):
        with pytest.raises(ZTooLarge):
            autocorr_pointset(PointSet1D(np.arange(4.0)), 100.0)

    @pytest.mark.parametrize("z_max", [-1.0, -1e-300, float("nan")])
    def test_z_max_must_be_nonnegative(self, z_max):
        with pytest.raises(OutOfRange):
            autocorr_pointset(PointSet1D(np.arange(4.0)), z_max)

    @pytest.mark.parametrize("merge_tol", [-1.0, -1e-300, float("nan")])
    def test_merge_tol_must_be_nonnegative(self, merge_tol):
        with pytest.raises(OutOfRange, match="merge_tol"):
            autocorr_pointset(PointSet1D(np.arange(4.0)), 2.0, merge_tol)

    def test_z_max_zero_is_the_diagonal(self):
        pc = autocorr_pointset(PointSet1D(np.arange(4.0)), 0.0)
        assert pc.diffs.tolist() == [0.0]
        assert pc.value(0.0) == pytest.approx(4 / 3)


@pytest.mark.parametrize("n", [20000, 100000])
def test_silver_chain_pair_correlation_is_the_window_overlap(n):
    # the chain is a model set of density 1/2 whose star images x* = c - d sqrt(2)
    # fill a window of length sqrt(2): a difference z = c + d sqrt(2) occurs
    # with frequency eta(z) = 1/2 max(0, 1 - |z*| / sqrt(2)), the overlap of
    # the window with its translate by z*.  The sample misses pairs at its
    # ends, so the estimate is off by O(1/n): 2.4/n the most seen from 5e3
    # to 1e5 points (1.2e-4 at 2e4, 1.6e-5 at 1e5)
    pc = autocorr_pointset(silver_mean_chain(n), 12.0)
    assert len(pc.diffs) == 23
    s = np.sqrt(2.0)
    for z, value in zip(pc.diffs, pc.values):
        # the one pair of small integers with c + d sqrt(2) = z
        (c, d), = [(c, d) for d in range(-20, 21) for c in [round(z - d * s)]
                   if abs(z - (c + d * s)) < 1e-9]
        eta = 0.5 * max(0.0, 1.0 - abs(c - d * s) / s)
        assert abs(value - eta) <= 4.0 / n, (z, c, d)


def brute_force_pointset(coords, weights, z_max, merge_tol):
    """(diffs, values, counts) for z >= 0 from every pair (x_i, x_j), i <= j.

    The O(n^2) reference: one list of all differences within
    z_max + merge_tol, sorted, a difference more than merge_tol above the
    one before it opening a new group.
    """
    n = len(coords)
    pairs = sorted((
        (coords[j] - coords[i], np.conj(weights[i]) * weights[j])
        for i in range(n) for j in range(i, n)
        if coords[j] - coords[i] <= z_max + merge_tol
    ), key=lambda pair: pair[0])
    groups = []
    for z, p in pairs:
        if groups and z - groups[-1][-1][0] <= merge_tol:
            groups[-1].append((z, p))
        else:
            groups.append([(z, p)])
    extent = coords[-1] - coords[0]
    return (np.array([sum(z for z, _ in g) / len(g) for g in groups]),
            np.array([sum(p for _, p in g) / extent for g in groups]),
            np.array([len(g) for g in groups]))


def assert_matches_brute_force(coords, weights, z_max, merge_tol=1e-9):
    coords = np.asarray(coords, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    pc = autocorr_pointset(PointSet1D(coords, weights), z_max, merge_tol)
    diffs, values, counts = brute_force_pointset(coords, weights, z_max, merge_tol)
    half = pc.diffs >= 0
    assert pc.counts[half].tolist() == counts.tolist()
    # the same sums in another order: each of the at most n^2 terms may
    # carry one rounding more
    terms = len(coords) ** 2 * np.finfo(float).eps
    np.testing.assert_allclose(pc.diffs[half], diffs, rtol=terms, atol=0)
    top = np.abs(weights).max() ** 2 / (coords[-1] - coords[0])
    np.testing.assert_allclose(pc.values[half], values, rtol=0, atol=terms * top)


class TestAgainstBruteForce:
    def test_a_difference_shared_by_two_lags(self):
        # gaps 1, 1, 2: difference 2 at lag 1 (2 -> 4) and at lag 2 (0 -> 2)
        assert_matches_brute_force([0.0, 1.0, 2.0, 4.0], [1, 1j, -1, 2], 3.5)
        pc = autocorr_pointset(PointSet1D(np.array([0.0, 1.0, 2.0, 4.0])), 3.5)
        assert pc.counts[pc.diffs >= 0].tolist() == [4, 2, 2, 1]

    def test_jitter_within_merge_tol_chains_across_lags(self):
        # lag 2 gives 2 and 2 + 1.6e-9, too far apart to chain on their own;
        # lag 1's 2 + 8e-10 lies between them, so all three are one group
        coords = [0.0, 1.0, 2.0, 4.0 + 8e-10, 10.0, 11.0, 12.0 + 1.6e-9]
        weights = [1, 1j, -1, 2 - 1j, 0.5, 1, -1j]
        assert_matches_brute_force(coords, weights, 2.5)
        pc = autocorr_pointset(PointSet1D(np.array(coords)), 2.5)
        near_two = np.abs(pc.diffs - 2.0) < 1e-6
        assert pc.counts[near_two].tolist() == [3]

    def test_a_wide_chain_reaches_the_next_lag(self):
        # lag 1 chains 1, 1 + 8e-10 and 1 + 1.6e-9; lag 2's 1 + 2.2e-9 is
        # within merge_tol of the chain's top, not of its bottom
        gaps = [1.0, 1.0 + 8e-10, 1.0 + 1.6e-9, 3.0, 0.5, 0.5 + 2.2e-9]
        coords = np.concatenate([[0.0], np.cumsum(gaps)])
        assert_matches_brute_force(coords, [1j, 1, 2, -1, 1, 0.5, 1], 2.5)
        pc = autocorr_pointset(PointSet1D(coords), 2.5)
        assert pc.counts[np.abs(pc.diffs - 1.0) < 1e-6].tolist() == [4]

    def test_jitter_past_merge_tol_splits(self):
        coords = [0.0, 1.0, 2.0 + 3e-9, 3.0 + 3e-9]
        assert_matches_brute_force(coords, [1, 1, 1, 1], 2.5)
        pc = autocorr_pointset(PointSet1D(np.array(coords)), 2.5)
        assert np.count_nonzero(np.abs(pc.diffs - 1.0) < 1e-6) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        gaps=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=14),
        jitter=st.lists(st.sampled_from([0.0, 3e-10, -3e-10, 7e-10, 2e-9]), max_size=14),
        weights=st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False,
                                            allow_infinity=False), max_size=15),
        reach=st.floats(0.0, 0.95),
        merge_tol=st.sampled_from([1e-9, 0.3, 0.0]),
    )
    def test_random_float_sets(self, gaps, jitter, weights, reach, merge_tol):
        gaps = np.array(gaps) + np.resize(np.array(jitter + [0.0]), len(gaps))
        coords = np.concatenate([[0.0], np.cumsum(gaps)])
        w = np.resize(np.array(weights + [1.0], dtype=complex), len(coords))
        assert_matches_brute_force(coords, w, reach * coords[-1], merge_tol)


def test_silver_chain_lags_are_balanced():
    # the chain is Sturmian: d consecutive gaps sum to at most two values, so
    # each lag has at most 2 exact differences, and every group of the float
    # merge is one exact difference
    chain = silver_mean_chain(20000)
    keys = set()
    for d in range(1, 40):
        rows = np.unique(chain.exact[d:] - chain.exact[:-d], axis=0)
        assert len(rows) <= 2, d
        keys.update((int(a), int(b)) for a, b in rows if a + b * np.sqrt(2) <= 30.0)
    pc = autocorr_pointset(chain, 30.0)
    assert np.count_nonzero(pc.diffs > 0) == len(keys)


def test_memory_stays_linear_in_the_points():
    # each lag is reduced as it is made, so no array grows with z_max
    chain = silver_mean_chain(100000)
    tracemalloc.start()
    try:
        autocorr_pointset(chain, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pairs_past_the_limit_are_refused_before_the_loop():
    # 20000 points of gap 1 reach 15000 lags within z_max: 3.0e8 pairs
    with pytest.raises(OutOfRange, match=f"over the limit of {PAIR_LIMIT}"):
        autocorr_pointset(PointSet1D(np.arange(20000.0)), 15000.0)
