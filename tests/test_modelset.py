"""Silver-mean chain: exact arithmetic, intensities, extinctions, inflation."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.delone import PointSet1D, enumerate_k_clusters, locator_set
from diffspec.errors import NotSilverMean, OutOfRange
from diffspec.modelset import (
    FourierModuleElement,
    _module_turns,
    inflate_factor,
    intensity_at,
    is_extinct,
    module_box,
    silver_mean_chain,
    verify_inflation_identity,
    weighted_silver_comb,
)

SQRT2 = np.sqrt(2.0)


def ref_silver_mean_chain_exact(n_points):
    """The chain's exact rows from the earlier private inflation loop:
    each long tile's image ends in the one short tile."""
    word = np.zeros(1, dtype=np.int8)  # 0 = long, 1 = short
    while len(word) < n_points:
        long = word == 0
        ends = np.cumsum(np.where(long, 3, 1))
        nxt = np.zeros(int(ends[-1]), dtype=np.int8)
        nxt[ends[long] - 1] = 1
        word = nxt
    gaps = np.ones((n_points - 1, 2), dtype=np.int64)
    gaps[:, 1] = word[: n_points - 1] == 0
    exact = np.zeros((n_points, 2), dtype=np.int64)
    np.cumsum(gaps, axis=0, out=exact[1:])
    return exact


class TestChain:
    def test_exact_rows_match_inflation_loop(self):
        for n_points in [*range(1, 301), 100000]:
            ps = silver_mean_chain(n_points)
            want = ref_silver_mean_chain_exact(n_points)
            assert ps.exact.dtype == want.dtype
            assert np.array_equal(ps.exact, want), n_points

    def test_gaps_are_long_and_short(self):
        ps = silver_mean_chain(500)
        gaps = set(np.round(ps.distinct_gaps(), 9))
        assert gaps == {1.0, round(1 + SQRT2, 9)}

    def test_density_approaches_one_half(self):
        ps = silver_mean_chain(20000)
        assert len(ps) / ps.extent == pytest.approx(0.5, abs=1e-3)

    def test_exact_coords_match_floats(self):
        ps = silver_mean_chain(300)
        floats = [a + b * SQRT2 for a, b in ps.exact.tolist()]
        np.testing.assert_allclose(floats, ps.coords, rtol=1e-12)

    def test_point_count_honoured(self):
        assert len(silver_mean_chain(123)) == 123


class TestModuleElements:
    def test_value_and_star(self):
        k = FourierModuleElement(1, 1)
        assert k.value == pytest.approx(0.5 + SQRT2 / 4)
        assert k.star_value == pytest.approx(0.5 - SQRT2 / 4)

    def test_times_lambda(self):
        k = FourierModuleElement(2, -1)
        lk = k.times_lambda()
        assert (lk.a, lk.b) == (0, 1)
        assert lk.value == pytest.approx((1 + SQRT2) * k.value)

    def test_extinction_rule(self):
        assert is_extinct(FourierModuleElement(2, 0))
        assert is_extinct(FourierModuleElement(-4, 0))
        assert not is_extinct(FourierModuleElement(0, 0))
        assert not is_extinct(FourierModuleElement(1, 0))
        assert not is_extinct(FourierModuleElement(2, 1))

    def test_module_box_bounds_and_order(self):
        box = module_box(2, 1, 1.0)
        vals = [k.value for k in box]
        assert vals == sorted(vals)
        assert all(abs(v) <= 1.0 for v in vals)
        assert all(abs(k.a) <= 2 and abs(k.b) <= 1 for k in box)


class TestIntensity:
    def test_exact_phases_match_float_phases(self):
        ps = silver_mean_chain(400)
        k = FourierModuleElement(3, -2)
        theta = _module_turns(ps.exact[:, 0], ps.exact[:, 1], k.a, k.b)
        direct = (k.value * ps.coords) % 1.0
        # compare on the circle
        dev = np.abs(np.exp(2j * np.pi * theta) - np.exp(2j * np.pi * direct)).max()
        assert dev < 1e-7

    def test_intensity_zero_is_density_squared(self):
        ps = silver_mean_chain(5000)
        dens = len(ps) / ps.extent
        assert intensity_at(ps, FourierModuleElement(0, 0)) == pytest.approx(dens**2)

    def test_float_candidate_agrees_with_exact(self):
        ps = silver_mean_chain(2000)
        k = FourierModuleElement(1, 1)
        exact = intensity_at(ps, k)
        floated = intensity_at(ps, k.value)
        assert floated == pytest.approx(exact, rel=1e-6)

    def test_radius_window_out_of_range(self):
        ps = silver_mean_chain(50)
        with pytest.raises(OutOfRange):
            intensity_at(ps, FourierModuleElement(0, 0), radius=1e9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(2**44), 2**44),
        st.integers(-(2**44), 2**44),
        st.integers(-(2**15), 2**15),
        st.integers(-(2**15), 2**15),
    )
    def test_exact_phases_match_50_digit_reference(self, c, d, a, b):
        # |m| = |a c + 2 b d| reaches ~2^61, far past exact float integers
        mpmath = pytest.importorskip("mpmath")
        got = float(_module_turns(np.array([c]), np.array([d]), a, b)[0])
        with mpmath.workdps(50):
            m = mpmath.mpf(a * c + 2 * b * d)
            kx = mpmath.mpf(b * c + a * d) / 2 + m * mpmath.sqrt(2) / 4
            dist = (mpmath.mpf(got) - kx) % 1
            dist = float(min(dist, 1 - dist))
        assert dist <= 1e-15

    def test_exact_phases_refuse_int64_overflow(self):
        # a c + 2 b d would wrap int64 and give a plausible wrong intensity
        ps = silver_mean_chain(10000)
        k = FourierModuleElement(10**15, 10**15)
        with pytest.raises(OutOfRange):
            intensity_at(ps, k)

    def test_extinct_point_is_orders_below_live_ones(self):
        ps = silver_mean_chain(20000)
        dead = intensity_at(ps, FourierModuleElement(2, 0))
        alive = intensity_at(ps, FourierModuleElement(1, 1))
        assert dead < 1e-8
        assert alive > 1e-2


class TestInflation:
    def test_gap_pattern_of_inflated_chain(self):
        infl = inflate_factor(silver_mean_chain(2000))
        gaps = {(a, b) for a, b in np.diff(infl.exact, axis=0).tolist()}
        assert gaps == {(1, 1), (3, 2)}

    def test_inflated_points_are_lambda_times_chain(self):
        ps = silver_mean_chain(3000)
        infl = inflate_factor(ps)
        chain = silver_mean_chain(len(infl)).exact.tolist()
        # (a + b sqrt2)(1 + sqrt2) = (a + 2b) + (a + b) sqrt2
        scaled = [[a + 2 * b, a + b] for a, b in chain]
        assert infl.exact.tolist() == scaled

    def test_density_ratio(self):
        ps = silver_mean_chain(50000)
        infl = inflate_factor(ps)
        ratio = (len(infl) / infl.extent) / (len(ps) / ps.extent)
        assert ratio == pytest.approx(SQRT2 - 1, abs=1e-3)

    def test_identity_report(self):
        report = verify_inflation_identity(silver_mean_chain(4096), module_box(6, 3, 3.0))
        assert report.max_rel_error <= 0.02
        assert report.scale_constant == pytest.approx(report.density_ratio**2)
        assert len(report.rows) == 20
        assert all(i > 1e-3 for _, i in report.extinction_transport)

    def test_locator_of_singleton_cluster_is_translated_inflation(self):
        # the points seeing exactly {0} within K = 1.1 start a long-long
        # tile pair, so the locator is the inflated chain shifted by lambda
        ps = silver_mean_chain(4096)
        singleton = next(
            c for c, _ in enumerate_k_clusters(ps, 1.1) if c.offsets == (0.0,)
        )
        loc = locator_set(ps, singleton)
        infl = inflate_factor(ps)
        shifted = (loc.exact - [1, 1]).tolist()  # minus lambda = 1 + sqrt2
        assert shifted == infl.exact[: len(shifted)].tolist()
        assert len(shifted) > 0.9 * len(infl)


class TestWeightedComb:
    def test_weights_follow_gap_kind(self):
        ps = silver_mean_chain(200)
        comb = weighted_silver_comb(ps, w_short_start=2.0, w_long_start=-3.0)
        kinds = np.isclose(np.diff(ps.coords), 1.0)
        want = np.where(kinds[: len(comb)], 2.0, -3.0)
        np.testing.assert_allclose(comb.weights.real, want)

    def test_rejects_non_silver_gaps(self):
        with pytest.raises(NotSilverMean):
            weighted_silver_comb(PointSet1D(np.arange(5.0)), 1.0, 2.0)

    def test_names_the_first_bad_exact_gap(self):
        exact = np.array([[0, 0], [1, 1], [3, 1], [4, 1]])
        ps = PointSet1D(exact[:, 0] + exact[:, 1] * SQRT2, exact=exact)
        with pytest.raises(NotSilverMean) as err:
            inflate_factor(ps)
        assert str(err.value) == "gap 2+0r2 is neither 1 nor lambda"


@pytest.mark.parametrize("a_max, b_max", [(10**12, 1), (99999999999, 3), (-1, 0), (0, -2)])
def test_module_box_refuses_oversized_and_negative_bounds(a_max, b_max):
    with pytest.raises(OutOfRange):
        module_box(a_max, b_max, 1.0)


def test_module_box_limit_counts_the_full_box(monkeypatch):
    from diffspec import modelset

    assert modelset.MODULE_BOX_LIMIT == 10**6
    with pytest.raises(OutOfRange):
        module_box(0, modelset.MODULE_BOX_LIMIT // 2)
    monkeypatch.setattr(modelset, "MODULE_BOX_LIMIT", 15)
    assert len(module_box(2, 1)) == 15
    with pytest.raises(OutOfRange):
        module_box(2, 2, 0.5)  # 25 elements, even though few pass k_max


def brute_force_box(a_max, b_max, k_max):
    """The whole box as arrays, filtered by |k| <= k_max and sorted by (k, a)."""
    a, b = np.meshgrid(np.arange(-a_max, a_max + 1), np.arange(-b_max, b_max + 1))
    a, b = a.ravel(), b.ravel()
    value = b / 2.0 + a * SQRT2 / 4.0
    keep = ~(np.abs(value) > k_max)
    a, b, value = a[keep], b[keep], value[keep]
    order = np.lexsort((a, value))
    return list(zip(a[order].tolist(), b[order].tolist()))


@pytest.mark.parametrize(
    "a_max, b_max, k_max",
    [(6, 3, 3.0), (30, 30, 0.5), (30, 30, SQRT2 / 2), (40, 0, 1.0), (5, 5, 0.0),
     (5, 5, -0.0), (5, 5, -1e-300), (5, 5, float("nan")), (5, 5, float("inf")),
     (20, 7, 1e300)],
)
def test_module_box_lists_only_the_wanted_band(a_max, b_max, k_max):
    got = [(k.a, k.b) for k in module_box(a_max, b_max, k_max)]
    assert got == brute_force_box(a_max, b_max, k_max)


def test_small_bound_in_a_large_box_is_fast():
    start = time.perf_counter()
    box = module_box(499, 499, 0.1)
    assert time.perf_counter() - start < 1.0
    assert [(k.a, k.b) for k in box] == brute_force_box(499, 499, 0.1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60), st.integers(-60, 60), st.integers(-60, 60))
def test_module_box_bound_at_an_element_keeps_that_element(a_max, b_max, a, b):
    # k_max equal to an element's |k| is the case where rounding decides
    k_max = abs(FourierModuleElement(a, b).value)
    got = [(k.a, k.b) for k in module_box(a_max, b_max, k_max)]
    assert got == brute_force_box(a_max, b_max, k_max)
