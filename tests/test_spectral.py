"""Intensities, atom detection, circle-grid measures, and Fejer distributions."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diffspec import spectral
from diffspec.correlation import CorrelationSeq, autocorr_symbolic
from diffspec.delone import PointSet1D
from diffspec.errors import GridMismatch, OutOfRange, ZeroMass
from diffspec.spectral import (
    CIRCLE_GRID,
    NOISE_FLOOR,
    Atom,
    MeasureOnGrid,
    SpectralEstimate,
    UniformGrid,
    detect_atoms,
    intensity_ratios,
    intensity_table,
    intensity_table_symbolic,
    kronecker_candidates,
    nu_family,
    sampled_comb_intensity,
    sobol_candidates,
    spectral_distribution,
)
from diffspec.modelset import (
    intensity_at,
    is_extinct,
    module_box,
    silver_mean_chain,
    unit_phase,
)
from diffspec.subshift import SymbolicWindow, fixed_point_window, rule_by_name


def exact_phases(k, idx) -> np.ndarray:
    """k n mod 1 for every n in idx, reduced in exact rational arithmetic."""
    kf = Fraction(k)
    return np.array([float(kf * n % 1) for n in idx])


def pm_window(name="thue-morse", min_len=1024):
    return fixed_point_window(rule_by_name(name), 0, min_len, weights={0: 1.0, 1: -1.0})


def alternating(n=64):
    return SymbolicWindow(np.tile([0, 1], n).astype(np.int16), -n, {0: 1.0, 1: -1.0})


class TestIntensity:
    def test_constant_sequence_concentrates_at_zero(self):
        w = SymbolicWindow(np.zeros(256, dtype=np.int16), -128)
        assert intensity_table_symbolic(w, [0.0], [128])[0, 0] == pytest.approx(1.0)
        assert intensity_table_symbolic(w, [0.5], [128])[0, 0] == pytest.approx(0.0, abs=1e-20)

    def test_alternating_sequence_concentrates_at_half(self):
        w = alternating()
        assert intensity_table_symbolic(w, [0.5], [64])[0, 0] == pytest.approx(1.0)
        assert intensity_table_symbolic(w, [0.0], [64])[0, 0] == pytest.approx(0.0, abs=1e-20)

    def test_parity_product_formula(self):
        # over the block [0, 2^L) the exponential sum factors, giving
        # I_N(k) = prod_{j<L} sin^2(pi 2^j k); 2^j k modulo 1 is exact in
        # floats, so the product is good to a few ulps (3.3e-16 the
        # largest difference seen here)
        w = pm_window(min_len=2**16)
        ks = [p / 64 for p in (1, 3, 21, 63)] + [1 / 3, 1 / 5] + kronecker_candidates(3).tolist()
        for k in ks:
            for L in range(2, 17, 2):
                want = np.prod(np.sin(np.pi * (2.0 ** np.arange(L) * k % 1.0)) ** 2)
                got = intensity_table_symbolic(w, [k], [2**L])[0, 0]
                assert abs(got - want) <= 1e-15, (k, L)

    def test_block_longer_than_window_raises(self):
        with pytest.raises(OutOfRange):
            intensity_table_symbolic(alternating(8), [0.5], [1000])

    def test_point_set_intensity_at_zero_is_density_squared(self):
        ps = PointSet1D(np.arange(100.0))
        i0 = intensity_at(ps, 0.0, ps.extent / 2)
        assert i0 == pytest.approx((100 / 99.0) ** 2)

    def test_sampled_comb_matches_atom_weight(self):
        # quadrature route on a finely sampled smoothed integer comb
        ps = PointSet1D(np.arange(200.0))
        eps = 0.25
        t = np.arange(-2 * eps, 199.0 + 2 * eps, 0.002)
        from diffspec.delone import smooth_comb, tent_ft

        f = smooth_comb(ps, eps, t)
        raw = intensity_at(ps, 1.0, ps.extent / 2)
        got = sampled_comb_intensity(t, f, 1.0, ps.extent)
        assert got == pytest.approx(tent_ft(eps, 1.0) ** 2 * raw, rel=1e-3)


class TestNestedSizes:
    """detect_atoms reads all schedule sizes from one evaluation per candidate."""

    def test_symbolic_sizes_match_single_size_and_direct_sum(self):
        letters = fixed_point_window(rule_by_name("thue-morse"), 0, 1024).letters
        # only 100 sites right of the origin: every block longer than 100
        # slides left, each to its own start
        w = SymbolicWindow(letters, -(len(letters) - 100), {0: 1.0, 1: -0.5 + 0.25j})
        sizes = [64, 128, 512, len(letters)]
        vals = w.values()
        for k in [0.0, 1 / 3, 0.1234, *kronecker_candidates(8)]:
            for n, got in zip(sizes, intensity_table(w, [k], sizes)[0]):
                start = max(w.lo, min(0, w.hi - n + 1))
                block = vals[start - w.lo : start - w.lo + n]
                phases = exact_phases(k, range(start, start + n))
                direct = abs(np.sum(block * np.exp(-2j * np.pi * phases))) ** 2 / n**2
                one = intensity_table_symbolic(w, [k], [n])[0, 0]
                assert got == pytest.approx(one, rel=1e-12, abs=0)
                assert got == pytest.approx(direct, rel=1e-12, abs=0)

    def test_pointset_radii_match_single_radius(self):
        ps = silver_mean_chain(5000)
        r = ps.extent / 2
        radii = [r / 8, r / 4, r / 2, r]
        live = [k for k in module_box(4, 2, 2.0) if not is_extinct(k)]
        for k in live + [0.3, 1.7]:
            for radius, got in zip(radii, intensity_table(ps, [k], radii)[0]):
                assert got == pytest.approx(intensity_at(ps, k, radius), rel=1e-12, abs=0)

    def test_ratios_use_the_same_intensities(self):
        w = pm_window("period-doubling", 2048)
        sizes = [512, 1024, 2048]
        got = intensity_ratios(w, [0.25, 0.3], sizes)
        one = [[intensity_table_symbolic(w, [k], [n])[0, 0] for n in sizes] for k in (0.25, 0.3)]
        want = np.mean([[b / a for a, b in zip(row, row[1:])] for row in one], axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestAtomDetection:
    def test_periodic_atoms_found_with_exact_positions(self):
        w = alternating(512)
        est = detect_atoms(w, [0.0, 0.25, 0.5], [128, 256, 512, 1024])
        assert [a.k for a in est.atoms] == [0.5]
        assert est.atoms[0].intensity == pytest.approx(1.0)
        assert est.atoms[0].stability == 0.0

    def test_schedule_validation(self):
        w = alternating(64)
        with pytest.raises(ValueError):
            detect_atoms(w, [0.5], [32, 64])
        with pytest.raises(ValueError):
            detect_atoms(w, [0.5], [64, 32, 16])

    def test_thread_pool_gives_identical_results(self):
        w = pm_window("period-doubling", 2048)
        cands = [p / 16 for p in range(16)]
        a = detect_atoms(w, cands, [512, 1024, 2048], n_jobs=1)
        b = detect_atoms(w, cands, [512, 1024, 2048], n_jobs=4)
        assert a.to_json() == b.to_json()

    def test_ratios_refuse_an_empty_candidate_list(self):
        w = pm_window("period-doubling", 2048)
        ps = silver_mean_chain(500)
        r = ps.extent / 2
        with pytest.raises(OutOfRange):
            intensity_ratios(w, [], [512, 1024, 2048])
        with pytest.raises(OutOfRange):
            intensity_ratios(ps, [], [r / 4, r / 2, r])

    def test_pointset_ratios_use_the_same_intensities(self):
        ps = silver_mean_chain(5000)
        r = ps.extent / 2
        radii = [r / 8, r / 4, r / 2, r]
        live = [k for k in module_box(4, 2, 2.0) if not is_extinct(k)]
        got = intensity_ratios(ps, live, radii)
        want = np.mean(
            [[intensity_at(ps, k, b) / intensity_at(ps, k, a)
              for a, b in zip(radii, radii[1:])] for k in live],
            axis=0,
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_ratio_floor_treats_exact_zeros_as_decayed(self):
        w = SymbolicWindow(np.zeros(4096, dtype=np.int16), -2048, {0: 0.0})
        means = intensity_ratios(w, [0.3, 0.7], [512, 1024, 2048, 4096])
        assert means.tolist() == [0.0, 0.0, 0.0]
        assert NOISE_FLOOR < 1e-10  # far below any resolvable intensity

    def test_json_shape(self):
        est = SpectralEstimate([Atom(0.5, 1.0, 0.0, None)], [1.0, 2.0, 4.0])
        doc = json.loads(est.to_json())
        assert set(doc) == {"atoms", "grid", "schedule"}
        assert doc["atoms"][0]["k"] == 0.5
        assert doc["grid"] is None


class TestCandidates:
    def test_sobol_candidates_are_dyadic_and_deterministic(self):
        ks = sobol_candidates(64)
        assert len(ks) == 64
        assert np.all((ks > 0) & (ks < 1))
        assert np.all(ks == np.sort(ks))
        assert np.all(ks * 256 == np.round(ks * 256))
        np.testing.assert_array_equal(ks, sobol_candidates(64))

    def test_sobol_candidates_match_scipy_sobol(self):
        # the earlier route, which drew the points from scipy's Sobol engine
        qmc = pytest.importorskip("scipy.stats").qmc

        def scipy_route(n):
            m = 1
            while 2**m < 4 * n:
                m += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pts = qmc.Sobol(d=1, scramble=False).random(2**m).ravel()
            pts = pts[(pts > 0.0) & (pts < 1.0)]
            return np.sort(pts[:n])

        for n in [*range(1, 300), 1000, 5000, 16384]:
            got = sobol_candidates(n)
            assert got.dtype == np.float64
            assert got.tobytes() == scipy_route(n).tobytes(), n

    def test_kronecker_candidates_avoid_dyadics(self):
        ks = kronecker_candidates(64)
        assert len(ks) == 64
        scaled = ks * 2.0**24
        assert not np.any(scaled == np.round(scaled))


class TestGridsAndMeasures:
    def test_cell_of_and_centers(self):
        grid = UniformGrid(4)
        assert grid.step == 0.25
        assert grid.cell_of(0.1) == 0
        assert grid.cell_of(0.99) == 3
        np.testing.assert_allclose(grid.centers(), [0.125, 0.375, 0.625, 0.875])

    def test_circular_wrap(self):
        assert CIRCLE_GRID.cell_of(1.0) == 0
        assert CIRCLE_GRID.cell_of(-0.25) == CIRCLE_GRID.cell_of(0.75)

    @pytest.mark.parametrize("k", [np.inf, -np.inf, np.nan])
    def test_cell_of_refuses_non_finite(self, k):
        with pytest.raises(OutOfRange):
            CIRCLE_GRID.cell_of(k)

    def test_from_atoms_and_total_mass(self):
        mu = MeasureOnGrid.from_atoms(
            [Atom(0.0, 0.5, 0.0, None), Atom(0.5, 0.5, 0.0, None)], CIRCLE_GRID
        )
        assert mu.total_mass == pytest.approx(1.0)
        assert mu.masses[0] == 0.5
        assert mu.masses[512] == 0.5

    def test_normalize_zero_mass(self):
        mu = MeasureOnGrid(CIRCLE_GRID, np.zeros(CIRCLE_GRID.n))
        with pytest.raises(ZeroMass):
            mu.normalized()

    def test_grid_mismatch(self):
        a = MeasureOnGrid(UniformGrid(8), np.ones(8))
        b = MeasureOnGrid(UniformGrid(16), np.ones(16))
        with pytest.raises(GridMismatch):
            a.check_compatible(b)

    def test_circular_convolution_of_two_atoms(self):
        mu = MeasureOnGrid.from_atoms(
            [Atom(0.0, 0.5, 0.0, None), Atom(0.5, 0.5, 0.0, None)], CIRCLE_GRID
        )
        conv = mu.convolve(mu)
        # (1/2)(d0 + d1/2) squared folds back onto itself on the circle
        assert conv.masses[0] == pytest.approx(0.5, abs=1e-12)
        assert conv.masses[512] == pytest.approx(0.5, abs=1e-12)
        assert conv.total_mass == pytest.approx(1.0, abs=1e-12)


def outer_product_fejer(eta: CorrelationSeq, t) -> np.ndarray:
    """The Fejer density as one exponential per lag and point.

    With t a cell centre of CIRCLE_GRID, each t l and its remainder
    modulo 1 are exact doubles, so every phase is correctly rounded; rows
    go in pieces to bound the phase matrix.
    """
    m = eta.max_lag
    lags = np.arange(1, m + 1)
    w = 1.0 - lags / (m + 1.0)
    out = []
    for piece in np.array_split(np.atleast_1d(np.asarray(t, dtype=float)), 16):
        phases = unit_phase(np.outer(piece, lags) % 1.0)
        out.append(eta.value(0).real + 2.0 * (phases * (w * eta.data[m + 1 :])).real.sum(axis=1))
    return np.concatenate(out)


def fejer_kernel(max_lag: int, s: float) -> float:
    """K_M(s) = sin^2(pi (M+1) s) / ((M+1) sin^2(pi s)), the Fejer kernel."""
    n = max_lag + 1
    return np.sin(np.pi * n * s) ** 2 / (n * np.sin(np.pi * s) ** 2)


class TestFejer:
    @pytest.mark.parametrize("max_lag", [0, 1, 5, 64, 511, 512, 1023, 1024, 3000])
    def test_matches_the_outer_product_sum(self, max_lag):
        # from max_lag n = 1024 on, several lags fold onto one residue mod n
        rng = np.random.default_rng(max_lag)
        z = rng.standard_normal(max_lag + 1) + 1j * rng.standard_normal(max_lag + 1)
        z[0] = abs(z[0])
        eta = CorrelationSeq(max_lag, np.concatenate([np.conj(z[:0:-1]), z]), 2 * max_lag + 4)
        weights = 1.0 - np.abs(np.arange(-max_lag, max_lag + 1)) / (max_lag + 1.0)
        scale = np.abs(weights * eta.data).sum()
        step = CIRCLE_GRID.step
        want = step * np.maximum(outer_product_fejer(eta, CIRCLE_GRID.centers()), 0.0)
        got = spectral_distribution(eta).masses
        assert got.shape == (CIRCLE_GRID.n,)
        assert np.abs(got - want).max() <= 1e-13 * scale * step

    def test_alternating_density_peaks_at_half(self):
        # the kernel translated to 1/2; cells 511 and 512 are centred at
        # 1/2 -+ 1/2048
        eta = autocorr_symbolic(alternating(512), 128)
        masses = spectral_distribution(eta).masses
        want = CIRCLE_GRID.step * fejer_kernel(128, 1 / 2048)
        assert masses[511] == pytest.approx(want, rel=1e-13)
        assert masses[512] == pytest.approx(want, rel=1e-13)
        assert masses[511] > 100 * masses[CIRCLE_GRID.cell_of(0.25)]

    def test_density_is_nonnegative(self):
        # the floor cuts only wobble: the density itself is nonnegative
        # to 1e-10 at every cell centre
        eta = autocorr_symbolic(pm_window(min_len=4096), 64)
        assert np.min(outer_product_fejer(eta, CIRCLE_GRID.centers())) >= -1e-10
        assert np.min(spectral_distribution(eta).masses) >= 0.0

    def test_distribution_total_mass_is_eta_zero(self):
        eta = autocorr_symbolic(pm_window(min_len=4096), 200)
        mu = spectral_distribution(eta)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_singular_profile_of_the_parity_sequence(self):
        # mass piles up near 1/3 and thins out near 1/2
        eta = autocorr_symbolic(pm_window(min_len=2**14), 256)
        masses = spectral_distribution(eta).masses
        assert masses[CIRCLE_GRID.cell_of(1 / 3)] > 10 * max(masses[511], masses[512])


class TestMeasureFamilies:
    def test_nu_family_masses_and_two_atom_square(self):
        gamma = MeasureOnGrid.from_atoms(
            [Atom(0.0, 0.5, 0.0, None), Atom(0.5, 0.5, 0.0, None)], CIRCLE_GRID
        )
        nus = nu_family(gamma, np.ones(CIRCLE_GRID.n), 3)
        for nu in nus:
            assert nu.total_mass == pytest.approx(1.0, abs=1e-9)
        # nu_2 = nu_1 * nu_1 keeps the same two atoms
        assert nus[1].masses[0] == pytest.approx(0.5, abs=1e-12)
        assert nus[1].masses[512] == pytest.approx(0.5, abs=1e-12)

    def test_nu_family_requires_positive_h(self):
        gamma = MeasureOnGrid(CIRCLE_GRID, np.full(CIRCLE_GRID.n, 1.0 / CIRCLE_GRID.n))
        h = np.ones(CIRCLE_GRID.n)
        h[10] = 0.0
        with pytest.raises(ValueError):
            nu_family(gamma, h, 2)


@pytest.mark.parametrize("make", [sobol_candidates, kronecker_candidates])
@pytest.mark.parametrize("n", [0, -3])
def test_candidate_generators_refuse_empty_lists(make, n):
    with pytest.raises(OutOfRange):
        make(n)


@pytest.mark.parametrize("make", [sobol_candidates, kronecker_candidates])
def test_candidate_generators_refuse_counts_past_the_limit(make, monkeypatch):
    monkeypatch.setattr(spectral, "CANDIDATE_LIMIT", 64)
    assert len(make(64)) == 64
    with pytest.raises(OutOfRange, match="65 candidates, over the limit of 64"):
        make(65)
