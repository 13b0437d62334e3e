"""The symbolic candidate table and the blocked lag kernel, against exact references."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec import correlation
from diffspec.correlation import autocorr_symbolic, autocorr_via_spectral_inner
from diffspec.errors import OutOfRange
from diffspec.factors import (
    apply_block_map,
    identity_map,
    indicator_block_map,
    xor_map,
)
from diffspec.modelset import FourierModuleElement, _fixed_point, _turns
from diffspec.spectral import (
    detect_atoms,
    intensity_table_symbolic,
    kronecker_candidates,
)
from diffspec.subshift import (
    SymbolicWindow,
    dictionary,
    fixed_point_window,
    rule_by_name,
)


def exact_phases(k: float, idx) -> np.ndarray:
    """k n mod 1 for every n in idx, reduced in exact rational arithmetic."""
    num, den = float(k).as_integer_ratio()
    return np.array([(num * n % den) / den for n in idx])


def exact_table(window: SymbolicWindow, ks, sizes) -> np.ndarray:
    """I_N(k) as direct sums over exactly reduced phases, block by block."""
    vals = window.values()
    out = np.empty((len(ks), len(sizes)))
    for i, k in enumerate(ks):
        kv = k.value if isinstance(k, FourierModuleElement) else float(k)
        for j, n in enumerate(sizes):
            start = max(window.lo, min(0, window.hi - n + 1))
            block = vals[start - window.lo : start - window.lo + n]
            phases = exact_phases(kv, range(start, start + n))
            out[i, j] = abs(np.sum(block * np.exp(-2j * np.pi * phases))) ** 2 / n**2
    return out


def assert_matches_exact(table, exact):
    """1e-12 relative, or 1e-18 absolute for sums that cancel to residue."""
    assert table.shape == exact.shape
    np.testing.assert_allclose(table, exact, rtol=1e-12, atol=1e-18)


FREQS = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2e4, 2e4, allow_nan=False),
    st.integers(-64, 64).map(lambda p: p / 64),
    st.sampled_from([0.0, -0.0, 1 / 3, -1 / 3, 1.0, 12345.678, -9999.5, 1e4 + 1 / 7]),
)


@st.composite
def windows(draw):
    n_letters = draw(st.integers(1, 4))
    length = draw(st.integers(1, 400))
    letters = draw(
        st.lists(st.integers(0, n_letters - 1), min_size=length, max_size=length)
    )
    lo = -draw(st.integers(0, length - 1))
    part = st.floats(-2.0, 2.0, allow_nan=False)
    kind = draw(st.sampled_from(["complex", "real", "line"]))
    if kind == "complex":
        weights = {c: complex(draw(part), draw(part)) for c in range(n_letters)}
    elif kind == "real":
        weights = {c: complex(draw(part)) for c in range(n_letters)}
    else:
        # real multiples of one complex w; powers of 2 keep r w exact
        w = complex(draw(part), draw(part))
        scale = st.sampled_from([1.0, -1.0, 0.0, 2.0, -0.5, 0.25, -8.0])
        weights = {c: draw(scale) * w for c in range(n_letters)}
    return SymbolicWindow(np.array(letters, dtype=np.int16), lo, weights)


@settings(max_examples=300, deadline=None)
@given(k=st.floats(-1e4, 1e4, allow_nan=False), n=st.integers(-(2**62), 2**62))
def test_fixed_point_phase_is_k_n_mod_1(k, n):
    """A signed turn, exact to rounding for any int64 n, including bits of
    k below 2^-64."""
    q, eps = _fixed_point([k])
    got = float(_turns((np.array([n], dtype=np.int64), q, eps))[0])
    num, den = k.as_integer_ratio()
    dist = (got - (num * n % den) / den) % 1.0
    # the int64 view of the wrap, plus a float term of at most |n| / 2^64
    assert abs(got) <= 0.5 + abs(n) * 2.0**-64
    assert min(dist, 1.0 - dist) <= 1e-15


class TestTableAgainstExactSums:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_windows_sizes_and_frequencies(self, data):
        w = data.draw(windows())
        sizes = sorted(
            data.draw(st.sets(st.integers(1, len(w)), min_size=1, max_size=4))
        )
        ks = data.draw(st.lists(FREQS, min_size=1, max_size=6))
        table = intensity_table_symbolic(w, ks, sizes)
        assert_matches_exact(table, exact_table(w, ks, sizes))
        # a single k is a one-row table
        k, n = ks[0], sizes[-1]
        one = intensity_table_symbolic(w, [k], [n])[0, 0]
        assert one == pytest.approx(table[0, -1], rel=1e-12, abs=1e-18)

    def test_blocks_that_slide_left_on_a_long_window(self):
        letters = fixed_point_window(rule_by_name("rudin-shapiro"), 0, 4096).letters
        w = SymbolicWindow(letters, -(len(letters) - 300), {0: 1, 1: 1j, 2: -1, 3: 0.5})
        sizes = [100, 300, 1000, 4000, len(letters)]
        ks = [0.25, -1 / 3, 7.125, 1e4 + 0.1, *kronecker_candidates(5)]
        assert_matches_exact(
            intensity_table_symbolic(w, ks, sizes), exact_table(w, ks, sizes)
        )

    def test_candidate_groups_do_not_change_the_rows(self):
        w = fixed_point_window(rule_by_name("period-doubling"), 0, 2048,
                               weights={0: 1.0, 1: -1.0})
        ks = [p / 64 for p in range(64)] + list(kronecker_candidates(100))
        sizes = [512, 1024, 2048]
        table = intensity_table_symbolic(w, ks, sizes)
        singles = np.array([intensity_table_symbolic(w, [k], sizes)[0] for k in ks])
        np.testing.assert_allclose(table, singles, rtol=1e-12, atol=1e-18)

    def test_module_elements_are_read_by_value(self):
        w = fixed_point_window(rule_by_name("thue-morse"), 0, 512, weights={0: 1, 1: -1})
        k = FourierModuleElement(3, 1)
        table = intensity_table_symbolic(w, [k, k.value], [256, 512])
        assert table[0].tolist() == table[1].tolist()

    def test_empty_list_and_bad_input(self):
        w = fixed_point_window(rule_by_name("thue-morse"), 0, 64)
        assert intensity_table_symbolic(w, [], [16, 32]).shape == (0, 2)
        with pytest.raises(OutOfRange):
            intensity_table_symbolic(w, [0.5], [len(w) + 1])
        with pytest.raises(OutOfRange):
            intensity_table_symbolic(w, [0.5], [0])
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(OutOfRange):
                intensity_table_symbolic(w, [0.25, bad], [16, 32])


class TestDetectAtomsOnWindows:
    def test_thread_count_does_not_change_output(self):
        w = fixed_point_window(rule_by_name("period-doubling"), 0, 4096,
                               weights={0: 1.0, 1: -1.0})
        cands = [p / 32 for p in range(32)] + list(kronecker_candidates(40))
        one = detect_atoms(w, cands, [1024, 2048, 4096, 8192], n_jobs=1)
        four = detect_atoms(w, cands, [1024, 2048, 4096, 8192], n_jobs=4)
        assert one.to_json() == four.to_json()
        assert [a.k for a in one.atoms] == [p / 32 for p in range(32)]


def correlate_loop(values: np.ndarray, max_lag: int, norm: float = 1.0) -> np.ndarray:
    """The single-pass lag loop: one vdot per lag over the whole window,
    each scaled by norm unless norm is 1."""
    n = len(values)
    data = np.empty(2 * max_lag + 1, dtype=np.complex128)
    for m in range(max_lag + 1):
        s = np.vdot(values[: n - m], values[m:])
        if norm != 1.0:
            s = s * norm
        data[max_lag + m] = s / (n - m)
        data[max_lag - m] = np.conj(s) / (n - m)
    return data


@contextmanager
def lag_block(block: int):
    """Run the lag kernel with rows of at most the given number of sites."""
    old = correlation._LAG_BLOCK
    correlation._LAG_BLOCK = block
    try:
        yield
    finally:
        correlation._LAG_BLOCK = old


BLOCKS = [1, 2, 3, 7, 16]


def pair_count_eta(letters: np.ndarray, weights: dict, max_lag: int) -> np.ndarray:
    """eta(m) (N - m) = sum_uv conj(w_u) w_v C_uv(m) from exact pair counts."""
    n_letters = int(letters.max()) + 1
    w = [complex(weights.get(c, 0)) for c in range(n_letters)]
    ids = letters.astype(np.int64)
    out = []
    for m in range(max_lag + 1):
        counts = np.bincount(ids[: len(ids) - m] * n_letters + ids[m:],
                             minlength=n_letters**2).tolist()
        total = sum(
            w[u].conjugate() * w[v] * counts[u * n_letters + v]
            for u in range(n_letters) for v in range(n_letters)
        )
        out.append(total / (len(ids) - m))
    return np.array(out)


class TestChunkedLagLoop:
    """The lag kernel sums rows of B sites as matrix products; B = 1, 2, 3,
    7 and 16 make several products H_q even on short windows."""

    @settings(max_examples=40, deadline=None)
    @given(w=windows(), frac=st.floats(0.0, 1.0), block=st.sampled_from([*BLOCKS, 1024]))
    def test_random_windows_match_the_single_loop(self, w, frac, block):
        if len(w) < 4:
            return
        max_lag = int(frac * (len(w) - 4) // 2)
        with lag_block(block):
            got = autocorr_symbolic(w, max_lag).data
        # weights on one line r v are correlated as the real r, times |v|^2
        line = correlation._line_coordinates(w.weight_table())
        if line is None:
            want = correlate_loop(w.values(), max_lag)
        else:
            r, norm = line
            want = correlate_loop(r[w.letters], max_lag, norm)
            assert not got.imag.any()
        assert np.abs(got - want).max() <= 1e-13 * abs(want[max_lag])

    @pytest.mark.parametrize("weights, on_a_line", [
        ({0: 0.3, 1: -1.7, 2: 0.1, 3: 2.9}, True),
        ({0: 0.6 + 0.8j, 1: -0.3 - 0.4j, 2: 0.0, 3: 1.2 + 1.6j}, True),
        ({0: 1, 1: 0.3j, 2: -0.7, 3: -0.5j}, False),
    ], ids=["real", "line", "complex"])
    def test_long_windows_match_the_single_loop(self, weights, on_a_line, monkeypatch):
        w = fixed_point_window(rule_by_name("rudin-shapiro"), 0, 2**15, weights=weights)
        assert (correlation._line_coordinates(w.weight_table()) is not None) == on_a_line
        for max_lag, block, piece in [(64, 1024, 2**18), (700, 1024, 2**18), (700, 16, 1000)]:
            monkeypatch.setattr(correlation, "_CONJ_PIECE", piece)
            with lag_block(block):
                got = autocorr_symbolic(w, max_lag).data
            want = correlate_loop(w.values(), max_lag)
            assert np.abs(got - want).max() <= 1e-13 * abs(want[max_lag])

    @pytest.mark.parametrize("weights, limit", [
        ({0: 0.123457 - 0.992350j, 1: -0.123457 + 0.992350j}, 24e6),
        ({0: 1.0, 1: 0.3j}, 52e6),
    ], ids=["line", "complex"])
    def test_memory_stays_near_one_padded_copy(self, weights, limit):
        """2^21 sites at 512 lags: one padded copy of the window (16.8 MB
        as float64 on a line, 33.6 MB complex), one buffer for H_q and
        pieces, never another array of the window's length."""
        tm = fixed_point_window(rule_by_name("thue-morse"), 0, 2**20, weights=weights)
        assert len(tm) == 2**21
        tracemalloc.start()
        try:
            autocorr_symbolic(tm, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

    @settings(max_examples=25, deadline=None)
    @given(w=windows(), block=st.sampled_from(BLOCKS))
    def test_many_chunks_match_exact_pair_counts(self, w, block):
        if len(w) < 4:
            return
        max_lag = (len(w) - 4) // 2  # the 2M + 4 limit
        with lag_block(block):
            eta = autocorr_symbolic(w, max_lag)
        eta.check_hermitian(0.0)
        want = pair_count_eta(w.letters, w.weights, max_lag)
        scale = max(abs(eta.value(0)), 1e-300)
        dev = np.abs(eta.data[max_lag:] - want).max()
        assert dev <= 1e-12 * scale

    def test_long_window_matches_exact_pair_counts(self):
        w = fixed_point_window(rule_by_name("thue-morse"), 0, 2**17,
                               weights={0: 0.6 + 0.8j, 1: -0.6 - 0.8j})
        want = pair_count_eta(w.letters, w.weights, 96)
        for block in (1024, 16):  # two products H_q, then eight
            with lag_block(block):
                eta = autocorr_symbolic(w, 96)
            eta.check_hermitian(0.0)
            assert np.abs(eta.data[96:] - want).max() <= 1e-12 * abs(eta.value(0))

    @pytest.mark.parametrize("weights", [{0: 1.0, 1: -1.0}, {0: 1.0, 1: 0.3j}],
                             ids=["pm", "complex"])
    def test_short_window_at_many_lags_matches_the_single_loop(self, weights):
        """8192 sites at 1500 lags: B is capped by the row count, 8192 //
        _MIN_ROWS sites, not by max_lag + 1."""
        tm = fixed_point_window(rule_by_name("thue-morse"), 0, 2**13)
        w = SymbolicWindow(tm.letters[:8192].copy(), 0, weights)
        assert 8192 // correlation._MIN_ROWS < 1501
        got = autocorr_symbolic(w, 1500).data
        want = correlate_loop(w.values(), 1500)
        assert np.abs(got - want).max() <= 1e-13 * abs(want[1500])

    def test_plus_minus_w_is_real_and_matches_pair_counts(self):
        w = 0.123457 - 0.992350j
        tm = fixed_point_window(rule_by_name("thue-morse"), 0, 2**13,
                                weights={0: w, 1: -w})
        eta = autocorr_symbolic(tm, 512)
        assert not eta.data.imag.any()
        want = pair_count_eta(tm.letters, tm.weights, 512)
        assert np.abs(eta.data[512:] - want).max() <= 1e-15 * abs(eta.value(0))

    def test_plus_minus_one_sums_are_exact_integers(self):
        tm = fixed_point_window(rule_by_name("thue-morse"), 0, 2**17,
                                weights={0: 1.0, 1: -1.0})
        n, max_lag = len(tm), 512
        eta = autocorr_symbolic(tm, max_lag).data[max_lag:]
        signs = np.where(tm.letters == 0, 1, -1).astype(np.int64)
        exact = np.array([int(signs[: n - m] @ signs[m:]) for m in range(max_lag + 1)])
        pairs = n - np.arange(max_lag + 1)
        assert np.rint(eta.real * pairs).astype(np.int64).tolist() == exact.tolist()
        # the lag sum is the integer itself, rounded once by the division
        assert (eta == exact / pairs).all()

    @pytest.mark.parametrize("size", [1e-200, 1e-160, 1e100])
    def test_extreme_line_weights_neither_raise_nor_warn(self, size):
        tm = fixed_point_window(rule_by_name("thue-morse"), 0, 256,
                                weights={0: size, 1: -size})
        eta = autocorr_symbolic(tm, 16)
        assert np.isfinite(eta.data).all()
        if size == 1e-200:
            assert not eta.data.any()
        else:
            assert eta.value(0).real > 0


def route_two_maps(window: SymbolicWindow):
    maps = [identity_map(window)]
    maps += [indicator_block_map(w) for w in sorted(dictionary(window, 3))]
    if window.letters.max() == 1:
        maps.append(xor_map())
    return maps


class TestRouteTwoAgainstPairCounts:
    """autocorr_via_spectral_inner against exact pair counts on the factor image."""

    @pytest.mark.parametrize("name, weights", [
        ("thue-morse", {0: 0.123457 - 0.992350j, 1: -0.123457 + 0.992350j}),
        ("period-doubling", {0: 1.0, 1: 0.5j}),
        ("rudin-shapiro", {0: 1, 1: 1j, 2: -1, 3: -0.5j}),
        ("fibonacci", None),
    ])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_every_map_over_chunk_edges(self, name, weights, block):
        window = fixed_point_window(rule_by_name(name), 0, 48, weights=weights)
        max_lag = 20
        for g in route_two_maps(window):
            image = apply_block_map(window, g)
            with lag_block(block):
                eta = autocorr_via_spectral_inner(window, g, max_lag)
            eta.check_hermitian(0.0)
            want = pair_count_eta(image.letters, image.weights, max_lag)
            scale = max(abs(eta.value(0)), 1e-300)
            assert np.abs(eta.data[max_lag:] - want).max() <= 1e-12 * scale, g
