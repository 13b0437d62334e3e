"""The batched module evaluator, the unit-phase kernel and the limit oracle."""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.errors import OutOfRange
from diffspec.modelset import (
    FourierModuleElement,
    intensity_at,
    intensity_profile_at,
    intensity_table_at,
    is_extinct,
    module_box,
    silver_mean_chain,
    unit_phase,
    verify_inflation_identity,
    weighted_silver_comb,
)
from diffspec.spectral import detect_atoms

SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def chain(n):
    return silver_mean_chain(n)


@pytest.fixture(scope="module")
def big_chain():
    return chain(100000)


def per_k(ps, ks, radii):
    profile = intensity_profile_at(ps, radii)
    return np.array([profile(k) for k in ks])


def assert_matches_per_k(table, direct):
    """Agreement to 1e-12 relative, or to 1e-18 absolute.

    The absolute bound is the one for extinct module elements, whose
    intensities are rounding residue of sums that cancel.  It also
    covers live intensities far below the 1e-6 atom floor, which can
    come from sums that cancel to a small fraction of their terms' size,
    and a window so short that an extinct element is far from zero
    still meets the relative bound.
    """
    assert table.shape == direct.shape
    np.testing.assert_allclose(table, direct, rtol=1e-12, atol=1e-18)


class TestUnitPhase:
    def test_within_one_ulp_of_exp(self):
        rng = np.random.default_rng(7)
        theta = np.concatenate([rng.random(4096), rng.uniform(-1e5, 1e5, 4096), [0.0, 0.25, 0.5]])
        want = np.exp(-2j * np.pi * theta)
        got = unit_phase(theta)
        np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)

    def test_scaled_phases_of_a_symbolic_block(self):
        idx = np.arange(-(2**16), 2**16)
        kv = 0.6180339887498949
        want = np.exp(-2j * np.pi * kv * idx)
        got = unit_phase(idx, kv)
        np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)


# a box (a0 .. a0 + da) x (b0 .. b0 + db) with da >= 2, db >= 1 has
# |A| + |B| < |K|, so the table route is taken
boxes = st.tuples(
    st.one_of(st.integers(-8, 4), st.integers(-(10**9), 10**9)),
    st.integers(2, 5),
    st.one_of(st.integers(-6, 3), st.integers(-(10**9), 10**9)),
    st.integers(1, 4),
)
radius_fractions = st.lists(st.sampled_from([0.05, 0.13, 0.25, 0.5, 0.77, 1.0]), min_size=1,
                            max_size=4, unique=True).map(sorted)


def box_of(a0, da, b0, db):
    return [FourierModuleElement(a, b) for a in range(a0, a0 + da + 1)
            for b in range(b0, b0 + db + 1)]


class TestTableAgainstPerK:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([300, 1500, 20000]), boxes, radius_fractions)
    def test_random_boxes_and_radii(self, n, box, fractions):
        ps = chain(n)
        ks = box_of(*box)
        radii = [f * ps.extent / 2 for f in fractions]
        assert_matches_per_k(intensity_table_at(ps, ks, radii), per_k(ps, ks, radii))

    @settings(max_examples=25, deadline=None)
    @given(boxes, radius_fractions)
    def test_complex_weights_are_not_folded(self, box, fractions):
        comb = weighted_silver_comb(chain(1500), 1.0, 0.5 + 1j)
        ks = box_of(*box) + [FourierModuleElement(-k.a, -k.b) for k in box_of(*box)]
        radii = [f * comb.extent / 2 for f in fractions]
        assert_matches_per_k(intensity_table_at(comb, ks, radii), per_k(comb, ks, radii))

    def test_gate_box_on_the_full_chain(self, big_chain):
        r = big_chain.extent / 2
        radii = [r / 8, r / 4, r / 2, r]
        ks = module_box(6, 3, 3.0)
        table, direct = intensity_table_at(big_chain, ks, radii), per_k(big_chain, ks, radii)
        assert_matches_per_k(table, direct)
        extinct = [j for j, k in enumerate(ks) if is_extinct(k)]
        assert 0 < direct[extinct].max() < 1e-6  # residue, well above the 1e-18 bound
        live = [j for j, k in enumerate(ks) if not is_extinct(k)]
        np.testing.assert_allclose(table[live], direct[live], rtol=1e-12, atol=0)

    def test_k_and_minus_k_share_one_value_for_real_weights(self):
        ps = chain(1500)
        ks = module_box(3, 2)
        table = intensity_table_at(ps, ks, [ps.extent / 2])
        by_k = {(k.a, k.b): v for k, v in zip(ks, table[:, 0])}
        assert all(by_k[(a, b)] == by_k[(-a, -b)] for a, b in by_k)

    def test_short_lists_take_the_direct_route(self):
        ps = chain(1500)
        ks = [FourierModuleElement(1, 1), FourierModuleElement(2, 0)]
        radii = [ps.extent / 4, ps.extent / 2]
        np.testing.assert_array_equal(intensity_table_at(ps, ks, radii), per_k(ps, ks, radii))
        assert intensity_table_at(ps, [], radii).shape == (0, 2)

    def test_float_point_set_takes_the_direct_route(self):
        ps = chain(1500)
        floats = type(ps)(ps.coords, ps.weights, None)
        ks = module_box(2, 1)
        radii = [ps.extent / 2]
        np.testing.assert_array_equal(intensity_table_at(floats, ks, radii),
                                      per_k(floats, ks, radii))

    def test_refuses_int64_overflow_like_the_direct_route(self):
        ps = chain(1500)
        ks = box_of(10**16, 2, 0, 1)
        with pytest.raises(OutOfRange):
            intensity_at(ps, ks[-1])
        with pytest.raises(OutOfRange):
            intensity_table_at(ps, ks, [ps.extent / 2])

    def test_windows_are_validated(self):
        ps = chain(300)
        with pytest.raises(OutOfRange):
            intensity_table_at(ps, module_box(2, 1), [ps.extent])


class TestCallers:
    def test_detect_atoms_thread_count_does_not_change_output(self):
        ps = chain(20000)
        r = ps.extent / 2
        radii = [r / 8, r / 4, r / 2, r]
        box = module_box(6, 3, 3.0)
        one = detect_atoms(ps, box, radii, n_jobs=1)
        two = detect_atoms(ps, box, radii, n_jobs=2)
        assert one.to_json() == two.to_json()
        assert len(one.atoms) == sum(not is_extinct(k) for k in box)

    def test_detect_atoms_mixes_module_and_float_candidates(self):
        ps = chain(20000)
        r = ps.extent / 2
        radii = [r / 8, r / 4, r / 2, r]
        module = [FourierModuleElement(a, b) for a, b in ((1, 1), (0, 1), (1, 0), (2, 0))]
        est = detect_atoms(ps, module + [module[0].value, 0.1234], radii)
        assert [a.k_exact for a in est.atoms if a.k_exact] == [(1, 0), (0, 1), (1, 1)]
        float_atom = next(a for a in est.atoms if a.k_exact is None)
        module_atom = next(a for a in est.atoms if a.k_exact == (1, 1))
        assert float_atom.k == module_atom.k
        assert float_atom.intensity == pytest.approx(module_atom.intensity, rel=1e-9)

    def test_report_fields_are_python_floats(self, big_chain):
        box = module_box(6, 3, 3.0)
        rep = verify_inflation_identity(big_chain, box)
        for row in rep.rows:
            for v in (row.inflated_intensity, row.original_at_lambda_k, row.rel_error):
                assert type(v) is float
        for v in (rep.density_ratio, rep.scale_constant, rep.max_rel_error):
            assert type(v) is float
        assert rep.extinction_transport
        assert all(type(v) is float for _, v in rep.extinction_transport)
        r = big_chain.extent / 2
        est = detect_atoms(big_chain, box, [r / 8, r / 4, r / 2, r])
        for a in est.atoms:
            assert type(a.k) is float and type(a.intensity) is float
            assert type(a.stability) is float
        json.loads(est.to_json())

    def test_inflation_rows_match_direct_intensities(self, big_chain):
        box = module_box(6, 3, 3.0)
        rep = verify_inflation_identity(big_chain, box)
        for row in rep.rows[:5]:
            want = intensity_at(big_chain, row.k.times_lambda())
            assert row.original_at_lambda_k == pytest.approx(want, rel=1e-12, abs=0)


def limit_intensity(k: FourierModuleElement) -> float:
    """I(k) = rho^2 sinc^2(sqrt(2) k*) for the chain's model set, rho = 1/2."""
    return 0.25 * float(np.sinc(SQRT2 * k.star_value)) ** 2


def test_full_chain_matches_the_model_set_limit(big_chain):
    box = module_box(6, 3, 3.0)
    table = intensity_table_at(big_chain, box, [big_chain.extent / 2])[:, 0]
    limit = np.array([limit_intensity(k) for k in box])
    rel = np.abs(table - limit) / np.maximum(limit, 1e-3)
    assert rel.max() <= 2.5e-4
    # the zeros of the sinc are the extinctions
    assert all((limit[j] < 1e-20) == is_extinct(k) for j, k in enumerate(box))
