"""The batched module evaluator, the unit-phase kernel and the limit oracle."""

import concurrent.futures
import json
import os
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffspec import modelset
from diffspec.delone import PointSet1D
from diffspec.errors import OutOfRange
from diffspec.modelset import (
    _EPS,
    _Q,
    FLOAT_PHASE_ERROR_LIMIT,
    FourierModuleElement,
    intensities_at,
    intensity_at,
    intensity_table_at,
    is_extinct,
    module_box,
    silver_mean_chain,
    unit_phase,
    verify_inflation_identity,
    weighted_silver_comb,
)
from diffspec.spectral import detect_atoms, kronecker_candidates

SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def chain(n):
    return silver_mean_chain(n)


@pytest.fixture(scope="module")
def big_chain():
    return chain(100000)


def per_k(ps, ks, radii):
    return np.array([intensity_table_at(ps, [k], radii)[0] for k in ks])


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


def float_copy(ps):
    return type(ps)(ps.coords, ps.weights, None)


KRONECKER = kronecker_candidates(64).tolist()
module_elements = st.builds(FourierModuleElement, st.integers(-8, 8), st.integers(-6, 6))
# a module element, its float value, or an irrational float frequency
mixed_candidates = st.one_of(
    module_elements,
    module_elements.map(lambda k: k.value),
    st.sampled_from(KRONECKER),
)


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
        floats = float_copy(ps)
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

    @pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan")])
    def test_refuses_non_finite_floats(self, k):
        ps = chain(300)
        with pytest.raises(OutOfRange):
            intensity_at(ps, k)
        with pytest.raises(OutOfRange):
            intensity_table_at(float_copy(ps), [0.25, k], [ps.extent / 2], n_jobs=2)

    def test_float_phases_near_the_error_limit_match_mpmath(self):
        # at the limit each phase is off by at most 3 |k| max|x| 2^-53 cycles
        # (2 pi, its product with k and the product with x are each rounded)
        mpmath = pytest.importorskip("mpmath")
        ps = float_copy(chain(100))
        k_limit = FLOAT_PHASE_ERROR_LIMIT * 2.0**53 / ps.coords[-1]
        ds = 2 * np.pi * 3 * FLOAT_PHASE_ERROR_LIMIT * len(ps)  # bounds |got S - S|
        for k in (0.5 * k_limit, 0.999 * k_limit, -0.999 * k_limit, (1 - 1e-9) * k_limit):
            got = intensity_at(ps, k)
            with mpmath.workdps(50):
                s = mpmath.fsum(mpmath.expjpi(-2 * mpmath.mpf(k) * mpmath.mpf(x))
                                for x in ps.coords.tolist())
                want = abs(s) ** 2 / mpmath.mpf(ps.extent) ** 2
                tol = (2 * abs(s) + ds) * ds / mpmath.mpf(ps.extent) ** 2
                assert abs(got - want) <= tol, (k, got, float(want), float(tol))

    def test_refuses_float_phases_past_the_error_limit(self):
        ps = chain(100)
        k_limit = FLOAT_PHASE_ERROR_LIMIT * 2.0**53 / ps.coords[-1]
        for k in (1e300, -1e300, 1.001 * k_limit):
            with pytest.raises(OutOfRange):
                intensity_at(ps, k)
            with pytest.raises(OutOfRange):
                intensity_table_at(ps, [0.25, k], [ps.extent / 2], n_jobs=2)
        # a module element on a float sample is evaluated at its float value
        big = FourierModuleElement(int(4 * k_limit), 0)  # value about sqrt(2) k_limit
        assert intensity_at(ps, big) >= 0.0
        with pytest.raises(OutOfRange):
            intensity_at(float_copy(ps), big)

    def test_windows_are_validated(self):
        ps = chain(300)
        with pytest.raises(OutOfRange):
            intensity_table_at(ps, module_box(2, 1), [ps.extent])


class TestMixedLists:
    """Module elements, floats and both at once on exact and float samples."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["exact", "complex", "float"]),
           st.one_of(st.none(), boxes.filter(lambda b: abs(b[0]) < 100 and abs(b[2]) < 100)),
           st.lists(mixed_candidates, min_size=1, max_size=12), radius_fractions)
    def test_mixed_lists_match_one_row_calls(self, data, kind, box, extras, fractions):
        ps = {"exact": chain(1500),
              "complex": weighted_silver_comb(chain(1500), 1.0, 0.5 + 1j),
              "float": float_copy(chain(1500))}[kind]
        ks = data.draw(st.permutations((box_of(*box) if box else []) + extras))
        radii = [f * ps.extent / 2 for f in fractions]
        assert_matches_per_k(intensity_table_at(ps, ks, radii), per_k(ps, ks, radii))

    def test_float_lists_on_an_exact_sample(self):
        ps = chain(2000)
        table = intensity_table_at(ps, [0.25], [100.0])
        assert table.shape == (1, 1)
        assert table[0, 0] == intensity_at(ps, 0.25, 100.0)
        assert intensities_at(ps, [0.0]) == [intensity_at(ps, 0.0)]
        assert intensities_at(ps, [0.0])[0] == pytest.approx((len(ps) / ps.extent) ** 2)

    def test_threads_share_the_direct_rows(self):
        ps = chain(1500)
        ks = module_box(2, 1) + KRONECKER[:8] + [k.value for k in module_box(1, 1)]
        radii = [ps.extent / 4, ps.extent / 2]
        one = intensity_table_at(ps, ks, radii)
        np.testing.assert_array_equal(intensity_table_at(ps, ks, radii, n_jobs=2), one)
        np.testing.assert_array_equal(intensity_table_at(float_copy(ps), ks, radii, n_jobs=3),
                                      intensity_table_at(float_copy(ps), ks, radii))

    @pytest.mark.parametrize("cores, workers", [(64, 3), (2, 2), (None, None)])
    def test_thread_pool_is_capped_by_rows_and_cores(self, monkeypatch, cores, workers):
        # n_jobs = 10**6 over 3 direct rows: the pool is never asked for
        # more than the rows or the cores, and one core runs the rows
        # without a pool; the recording pool itself starts at most 3 threads
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=min(max_workers, 3), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        ps = chain(500)
        ks, radii = [0.25, 0.5, 0.75], [ps.extent / 2]
        got = intensity_table_at(ps, ks, radii, n_jobs=10**6)
        assert started == ([] if workers is None else [workers])
        np.testing.assert_array_equal(got, intensity_table_at(ps, ks, radii))


class TestCallers:
    @pytest.mark.parametrize("kind", ["kronecker on the exact chain", "module box on floats"])
    def test_detect_atoms_threads_serve_direct_rows(self, kind):
        ps = chain(20000)
        if kind == "module box on floats":
            # shuffled: the sorted box pairs k with -k, whose rows are equal
            box = module_box(2, 1)
            order = np.random.default_rng(3).permutation(len(box))
            ps, ks = float_copy(ps), [box[i] for i in order]
        else:
            ks = kronecker_candidates(16)
        r = ps.extent / 2
        radii = [r / 8, r / 4, r / 2, r]
        one = detect_atoms(ps, ks, radii, n_jobs=1)
        two = detect_atoms(ps, ks, radii, n_jobs=2)
        assert one.to_json() == two.to_json()
        if kind == "module box on floats":
            assert {a.k_exact for a in one.atoms} == {
                (k.a, k.b) for k in ks if not is_extinct(k)}

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


def reduce_phases(c, d, a, b) -> np.ndarray:
    """Fractional parts of k x with the half-integer reduced on its own.

    k x = (b c + a d)/2 + m sqrt(2)/4 with m = a c + 2 b d: the
    half-integer by the parity of b c + a d, m sqrt(2)/4 as the uint64
    wrap of m _Q plus m _EPS / 2^64 in float, the sum taken modulo 1.
    """
    m = a * c + 2 * b * d
    frac = (m.view(np.uint64) * _Q).astype(np.float64) * 2.0**-64
    frac += m * (_EPS * 2.0**-64)
    frac += ((b * c + a * d) & 1) * 0.5
    frac -= np.floor(frac)
    return np.minimum(frac, np.nextafter(1.0, 0.0), out=frac)


def block_sums(terms, starts, stops) -> np.ndarray:
    """Sums of terms[starts[j]:stops[j]] from one np.add.reduceat pass."""
    cuts = np.unique(np.concatenate([starts, stops]))
    seg = np.add.reduceat(terms, cuts[:-1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    return cum[np.searchsorted(cuts, stops)] - cum[np.searchsorted(cuts, starts)]


def window_ends(ps, radii) -> np.ndarray:
    x = ps.coords
    return np.searchsorted(x, x[0] + 2 * np.asarray(radii) + 1e-9, side="right")


def unblocked_rows(ps, ks, radii) -> np.ndarray:
    """Direct rows as one term array per candidate over the largest window,
    summed at every window end by block_sums."""
    radii = np.asarray(radii, dtype=float)
    stops = window_ends(ps, radii)
    n = int(stops.max())
    w = ps.weights[:n]
    rows = []
    for k in ks:
        if isinstance(k, FourierModuleElement) and ps.exact is not None:
            c = np.ascontiguousarray(ps.exact[:n, 0])
            d = np.ascontiguousarray(ps.exact[:n, 1])
            terms = w * unit_phase(reduce_phases(c, d, k.a, k.b))
        else:
            kv = k.value if isinstance(k, FourierModuleElement) else float(k)
            terms = w * unit_phase(ps.coords[:n], kv)
        sums = block_sums(terms, np.zeros_like(stops), stops)
        rows.append(np.abs(sums) ** 2 / (2 * radii) ** 2)
    return np.array(rows)


def rounding_scale(ps, radii) -> np.ndarray:
    """(sum |w| / 2R)^2 over each window, the largest intensity it can hold."""
    stops = window_ends(ps, radii)
    sizes = np.cumsum(np.abs(ps.weights))[stops - 1]
    return (sizes / (2 * np.asarray(radii))) ** 2


def sample(kind: str, n: int):
    ps = chain(n)
    if kind == "complex":
        return weighted_silver_comb(ps, 1.0, 0.5 + 1j)
    return float_copy(ps) if kind == "float" else ps


class TestBlockWalk:
    """The rows walk the points in blocks; at window ends that cut a block
    the sums must be those of the unblocked rows."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, 8192])
    @pytest.mark.parametrize("kind", ["exact", "complex", "float"])
    def test_blocks_match_the_unblocked_rows(self, kind, chunk, monkeypatch):
        ps = sample(kind, 20000 if chunk == 8192 else 1501)
        r = ps.extent / 2
        radii = [0.1234 * r, 0.4567 * r, 0.789 * r, r]
        assert chunk == 1 or sum(s % chunk > 0 for s in window_ends(ps, radii).tolist()) >= 2
        box = box_of(-2, 2, -1, 1)
        singles = [FourierModuleElement(2, 0), FourierModuleElement(-3, 1), 0.3, KRONECKER[5]]
        bound = 1e-13 * rounding_scale(ps, radii)
        monkeypatch.setattr(modelset, "_TABLE_CHUNK", chunk)
        table = intensity_table_at(ps, box + singles, radii)
        assert np.all(np.abs(table - unblocked_rows(ps, box + singles, radii)) <= bound)
        rows = per_k(ps, singles, radii)
        assert np.all(np.abs(rows - unblocked_rows(ps, singles, radii)) <= bound)

    @pytest.mark.parametrize("chunk", [64, 8192])
    def test_each_window_sum_ignores_the_other_radii(self, chunk, monkeypatch):
        monkeypatch.setattr(modelset, "_TABLE_CHUNK", chunk)
        for ps in (chain(20000), sample("complex", 20000), float_copy(chain(20000))):
            r = ps.extent / 2
            radii = [r / 8, 0.3 * r, r / 2, 0.77 * r, r]
            for ks in ([FourierModuleElement(1, 1)], [0.3], box_of(-1, 2, 0, 1)):
                many = intensity_table_at(ps, ks, radii)
                one = np.column_stack([intensity_table_at(ps, ks, [s])[:, 0] for s in radii])
                np.testing.assert_array_equal(many, one)

    def test_single_k_memory_is_a_few_blocks(self, big_chain):
        """The whole-sample term array of the unblocked row took 4.9 MB."""
        k = FourierModuleElement(1, 1)
        intensity_at(big_chain, k)
        tracemalloc.start()
        try:
            intensity_at(big_chain, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


class TestFixedPointTurns:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(2**44), 2**44),
        st.integers(-(2**44), 2**44),
        st.integers(-(2**15), 2**15),
        st.integers(-(2**15), 2**15),
    )
    @example(-3, -5, -7, -1)
    @example(-(2**44) + 1, 2**44 - 1, 2**15 - 1, -(2**15) + 1)
    @example(1, 0, 0, 1)
    def test_turns_agree_with_exact_phases(self, c, d, a, b):
        ps = PointSet1D(np.array([c + d * SQRT2]), exact=np.array([[c, d]]))
        cols = ps.exact[:, 0], ps.exact[:, 1]
        t = float(modelset._module_turns(*cols, a, b)[0])
        assert -0.55 < t < 0.55
        dist = (t - float(reduce_phases(*cols, a, b)[0])) % 1.0
        assert min(dist, 1.0 - dist) <= 1e-15

    def test_columns_give_the_rows_of_single_elements(self):
        c, d = chain(3000).exact[:, 0], chain(3000).exact[:, 1]
        vals = np.array([-7, -2, 0, 3, 5], dtype=np.int64)
        by_a = modelset._module_turns(c, d, vals[:, None], 0)
        by_b = modelset._module_turns(c, d, 0, vals[:, None])
        for i, v in enumerate(vals.tolist()):
            np.testing.assert_array_equal(by_a[i], modelset._module_turns(c, d, v, 0))
            np.testing.assert_array_equal(by_b[i], modelset._module_turns(c, d, 0, v))


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


def with_far_point(ps, c):
    """ps and one more point at the integer c, past its last point."""
    exact = np.vstack([ps.exact, [[c, 0]]])
    return PointSet1D(modelset.exact_coords(exact), exact=exact)


def in_range(a, b, bounds) -> FourierModuleElement:
    """(a, b) scaled down to pass _in_phase_range for |c|, |d| <= max(bounds)."""
    scale = 4 * max(bounds)
    k = FourierModuleElement(int(np.sign(a)) * (abs(a) // scale),
                             int(np.sign(b)) * (abs(b) // scale))
    assert modelset._in_phase_range(k, *bounds)
    return k


class TestAxisGrid:
    """Module exponentials from per-axis rows against the turns of each point."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)),
                    min_size=1, max_size=16),
           st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62))
    @example([(-(2**40), 2**40 - 1)], 2**62, -(2**62))
    def test_turns_split_into_the_two_axes(self, pairs, a, b):
        exact = np.array(pairs, dtype=np.int64)
        c, d = exact[:, 0], exact[:, 1]
        k = in_range(a, b, modelset._coord_bounds(c, d))
        a, b = k.a, k.b
        # k x = k c + (sqrt(2) k) d, and sqrt(2) k is the module element (2b, a)
        zero = np.zeros_like(c)
        along_d = modelset._module_turns(zero, d, a, b)
        np.testing.assert_array_equal(along_d, modelset._module_turns(d, zero, 2 * b, a))
        split = modelset._module_turns(c, zero, a, b) + along_d - modelset._module_turns(c, d, a, b)
        assert np.all(np.abs(split - np.round(split)) <= 1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40),
           st.integers(0, 2**20), st.integers(0, 2**32 - 1), st.integers(-(2**62), 2**62),
           st.integers(-(2**62), 2**62))
    def test_grid_exponentials_match_the_turns(self, c0, d0, span, seed, a, b):
        # 2^(s + 1) <= 2048 points for every span below 2^20: the grid is built
        rng = np.random.default_rng(seed)
        exact = np.column_stack([c0 + rng.integers(0, span + 1, 2048),
                                 d0 + rng.integers(0, span + 1, 2048)])
        grid, bounds = modelset._axis_grid(exact)
        assert grid is not None
        k = in_range(a, b, bounds)
        c, d = exact[:, 0], exact[:, 1]
        got = grid.phases(grid.rows(k.a, k.b), 0, len(exact))
        want = np.exp(-2j * np.pi * modelset._module_turns(c, d, k.a, k.b))
        # five rounded exponentials: the four grid entries and the reference,
        # each within about 1e-15 of exact (2.04e-15 the most seen over 1.2e6 terms)
        assert np.abs(got - want).max() <= 3e-15

    @pytest.mark.parametrize("n_chain, grid", [(127, True), (126, False)])
    def test_samples_on_each_side_of_the_guard(self, n_chain, grid):
        # span 4095 splits at s = 6: the grid needs 2^(s + 1) = 128 points
        ps = with_far_point(chain(n_chain), 4095)
        assert (modelset._axis_grid(ps.exact)[0] is not None) == grid
        r = ps.extent / 2
        radii = [0.01 * r, 0.03 * r, r]
        ks = box_of(-2, 2, -1, 1) + [FourierModuleElement(3, -2), FourierModuleElement(10**9, 7)]
        bound = 1e-13 * rounding_scale(ps, radii)
        assert np.all(np.abs(intensity_table_at(ps, ks, radii) - unblocked_rows(ps, ks, radii))
                      <= bound)
        assert np.all(np.abs(per_k(ps, ks[-2:], radii) - unblocked_rows(ps, ks[-2:], radii))
                      <= bound)

    def test_wide_span_takes_the_turns(self):
        ps = with_far_point(chain(3000), 2**40)
        assert modelset._axis_grid(ps.exact)[0] is None
        r = ps.extent / 2
        radii = [1000 / ps.extent * r, 5000 / ps.extent * r, r]
        ks = box_of(-2, 2, -1, 1) + [FourierModuleElement(3, -2)]
        bound = 1e-13 * rounding_scale(ps, radii)
        assert np.all(np.abs(intensity_table_at(ps, ks, radii) - unblocked_rows(ps, ks, radii))
                      <= bound)
        assert np.all(np.abs(per_k(ps, ks[-1:], radii) - unblocked_rows(ps, ks[-1:], radii))
                      <= bound)

    def test_window_bounds_decide_out_of_range(self):
        ps = chain(3000)
        assert modelset._axis_grid(ps.exact)[0] is not None
        # a c leaves 2^62 on the sample, not on the first 100 points
        k = FourierModuleElement(2**62 // 1000, 0)
        radius = float(ps.coords[99] - ps.coords[0]) / 2
        with pytest.raises(OutOfRange):
            intensity_at(ps, k)
        with pytest.raises(OutOfRange):
            intensity_table_at(ps, box_of(0, 2, 0, 1) + [k], [ps.extent / 2])
        got = intensity_table_at(ps, box_of(0, 2, 0, 1) + [k], [radius])
        want = unblocked_rows(ps, box_of(0, 2, 0, 1) + [k], [radius])
        assert np.all(np.abs(got - want) <= 1e-13 * rounding_scale(ps, [radius]))


def four_part_intensity(ps, k) -> float:
    """intensity_at(ps, k) over the whole sample with no grid row.

    Each point's c and d are split as _AxisGrid documents, the turns of
    each of its four parts go through unit_phase, the four factors are
    multiplied in order, and the terms are summed in blocks of 8192, one
    dot product each.
    """
    c, d = ps.exact[:, 0], ps.exact[:, 1]
    shift = (int(max(np.ptp(c), np.ptp(d))).bit_length() + 1) // 2
    zero = np.zeros_like(c)
    high_c, high_d = [m.min() + ((m - m.min()) >> shift << shift) for m in (c, d)]
    parts = [(high_c, zero), (c - high_c, zero), (zero, high_d), (zero, d - high_d)]
    terms = unit_phase(modelset._module_turns(*parts[0], k.a, k.b))
    for part in parts[1:]:
        terms *= unit_phase(modelset._module_turns(*part, k.a, k.b))
    total = 0
    for lo in range(0, len(ps), 8192):
        total = total + ps.weights[lo : lo + 8192] @ terms[lo : lo + 8192]
    return float((np.abs(np.array([total])) ** 2 / np.array([ps.extent]) ** 2)[0])


class TestAxisPlan:
    """The per-sample plan: built once, and the same bits as the split of each point."""

    def test_built_once_per_sample(self, monkeypatch):
        built = []
        axis_grid = modelset._axis_grid
        monkeypatch.setattr(modelset, "_axis_grid",
                            lambda exact: built.append(len(exact)) or axis_grid(exact))
        ps = silver_mean_chain(3000)
        intensity_at(ps, FourierModuleElement(1, 1))
        intensity_at(ps, FourierModuleElement(-5, 3), ps.extent / 4)
        intensity_table_at(ps, box_of(-2, 2, -1, 1), [ps.extent / 4, ps.extent / 2])
        assert built == [3000]
        # a float candidate takes no exact phases and no plan
        intensity_at(silver_mean_chain(2000), 0.25)
        assert built == [3000]
        intensity_at(silver_mean_chain(3000), FourierModuleElement(1, 1))
        assert built == [3000, 3000]

    def test_index_columns_are_two_bytes_a_point_on_the_large_chain(self, big_chain):
        grid = modelset._axis_plan(big_chain)[0]
        assert grid.index.dtype == np.uint16
        assert grid.index.nbytes == 4 * 2 * len(big_chain)

    def test_building_the_plan_holds_the_index_and_one_block(self):
        # the whole-sample int64 temporaries of the columns took 2.5 MB
        exact = silver_mean_chain(10**5).exact
        tracemalloc.start()
        try:
            modelset._axis_grid(exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1e6

    def test_single_k_is_bit_identical_to_the_split_of_each_point(self):
        ps = chain(20000)
        box = module_box(6, 3, 3)
        got = [intensity_at(ps, k) for k in box]
        assert got == [four_part_intensity(ps, k) for k in box]


def mp_intensities(ps, ks, radii, mpmath):
    """|sum e(-k x)|^2 / (2R)^2 and |sum| for every k and radius, in 40 digits."""
    stops = window_ends(ps, radii).tolist()
    c, d = ps.exact[: max(stops)].T.tolist()
    out = []
    with mpmath.workdps(40):
        r = mpmath.sqrt(2) / 4
        for k in ks:
            terms = [mpmath.expjpi(-2 * (mpmath.mpf(k.b * ci + k.a * di) / 2
                                         + (k.a * ci + 2 * k.b * di) * r))
                     for ci, di in zip(c, d)]
            sums = [mpmath.fsum(terms[:s]) for s in stops]
            out.append([(float(abs(s) ** 2 / mpmath.mpf(2 * R) ** 2), float(abs(s)))
                        for s, R in zip(sums, radii)])
    return np.array(out)


class TestAgainstMpmath:
    """Direct and factor rows on a 3000-point prefix against 40-digit sums."""

    def check(self, ps, got, ks, radii):
        mpmath = pytest.importorskip("mpmath")
        ref = mp_intensities(ps, ks, radii, mpmath)
        stops = window_ends(ps, radii)
        delta = 1e-12 * stops  # bounds |got S - S| over each window
        norm = (2 * np.asarray(radii)) ** 2
        tol = (2 * ref[..., 1] + delta) * delta / norm
        assert np.all(np.abs(got - ref[..., 0]) <= tol)

    def test_direct_rows(self):
        ps = chain(3000)
        radii = [0.4 * ps.extent / 2, ps.extent / 2]
        ks = [FourierModuleElement(1, 1), FourierModuleElement(2, 0),
              FourierModuleElement(-5, 3), FourierModuleElement(10**9 + 1, -7)]
        self.check(ps, per_k(ps, ks, radii), ks, radii)

    def test_factor_rows(self):
        ps = chain(3000)
        radii = [0.4 * ps.extent / 2, ps.extent / 2]
        ks = box_of(-2, 3, 0, 2) + box_of(10**6, 2, -(10**6), 1)
        self.check(ps, intensity_table_at(ps, ks, radii), ks, radii)
