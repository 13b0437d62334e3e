"""Sliding block maps: application, parsing, equivariance."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.errors import MalformedInput, MissingTableEntry, OutOfRange, WindowTooShort
from diffspec.factors import (
    BlockMap,
    EquivarianceReport,
    apply_block_map,
    evaluate_at,
    identity_map,
    indicator_block_map,
    verify_factor_equivariance,
    xor_map,
)
from diffspec.subshift import (
    BUILTIN_RULES,
    SymbolicWindow,
    fixed_point_window,
    rule_by_name,
    sliding_words,
    word_occurrences,
)


def tm_window(min_len=256, **kw):
    return fixed_point_window(rule_by_name("thue-morse"), 0, min_len, **kw)


class TestBlockMapBasics:
    def test_output_lookup_and_default(self):
        w = SymbolicWindow(np.array([0, 1, 1]), 0)
        g = BlockMap(0, 2, {(0, 1): 1.0}, default=0.0)
        assert evaluate_at(w, g, 0) == 1.0
        assert evaluate_at(w, g, 1) == 0.0

    def test_missing_entry_without_default(self):
        w = SymbolicWindow(np.array([0, 1, 1]), 0)
        g = BlockMap(0, 2, {(0, 1): 1.0})
        with pytest.raises(MissingTableEntry):
            evaluate_at(w, g, 1)

    @pytest.mark.parametrize("n", [-1, 2])
    def test_block_outside_the_window_raises_index_error(self, n):
        w = SymbolicWindow(np.array([0, 1, 1]), 0)
        with pytest.raises(IndexError):
            evaluate_at(w, BlockMap(0, 2, {(0, 1): 1.0}, default=0.0), n)

    def test_parse_reads_the_map_file_format(self):
        g = BlockMap(-1, 3, {(0, 1, 0): 0.5 + 2.0j, (1, 0, 0): -1.0}, default=0.25)
        back = BlockMap.parse("offset -1 length 3\naba -> 0.5+2i\nbaa -> -1\n* -> 0.25\n")
        assert back.offset == g.offset and back.length == g.length
        assert back.table == g.table and back.default == g.default

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            BlockMap.parse("not a block map\n")


class TestApplication:
    def test_identity_map_reproduces_values(self):
        w = tm_window(64, weights={0: 1.0, 1: -1.0})
        image = apply_block_map(w, identity_map(w))
        assert image.lo == w.lo and len(image) == len(w)
        np.testing.assert_array_equal(image.values(), w.values())

    def test_xor_image_of_thue_morse_is_period_doubling(self):
        # the two-block parity factor maps one fixed point onto the other;
        # exact from the origin on, and a legal hull element on the left
        w = tm_window(512)
        image = apply_block_map(w, xor_map())
        pd = fixed_point_window(
            rule_by_name("period-doubling"), 0, 256, weights={0: 1.0, 1: 0.0}
        )
        hi = min(image.hi, pd.hi)
        got = [image.values()[n - image.lo] for n in range(0, hi + 1)]
        want = [pd.values()[n - pd.lo] for n in range(0, hi + 1)]
        assert got == want
        vals = image.values().real
        assert np.all(vals[:-1] + vals[1:] >= 1.0 - 1e-12)  # no "bb" anywhere

    def test_indicator_image_sums_to_occurrence_count(self):
        w = tm_window(256)
        word = (0, 1, 1)
        image = apply_block_map(w, indicator_block_map(word))
        assert int(image.values().real.sum()) == word_occurrences(w, word)

    @pytest.mark.parametrize("length", [20, 40])
    def test_long_indicator_block(self, length):
        # 4**length codes would need a table of terabytes, and at length 40
        # they would wrap int64
        w = fixed_point_window(rule_by_name("rudin-shapiro"), 0, 4096)
        word = tuple(w.letters[100 - w.lo : 100 - w.lo + length].tolist())
        image = apply_block_map(w, indicator_block_map(word))
        assert image.values().real.sum() == word_occurrences(w, word)
        assert word_occurrences(w, word) >= 1

    def test_table_word_outside_window_alphabet_matches_nothing(self):
        # (0, 2) has the base-2 code of (1, 0); it must not take its blocks
        w = tm_window(64)
        g = BlockMap(0, 2, {(0, 2): 5.0}, default=0.0)
        image = apply_block_map(w, g)
        assert image.values().real.sum() == 0.0

    def test_output_range_shrinks_by_block_geometry(self):
        w = tm_window(64)
        image = apply_block_map(w, indicator_block_map((0, 1), offset=-1))
        assert image.lo == w.lo + 1
        assert image.hi == w.hi

    def test_nan_default_is_one_output(self):
        w = tm_window(64)
        image = apply_block_map(w, BlockMap(0, 1, {(0,): 1.0}, default=float("nan")))
        assert len(image.weights) == 2
        vals = image.values()
        np.testing.assert_array_equal(vals[w.letters == 0], 1.0)
        assert np.isnan(vals[w.letters == 1]).all()

    def test_outputs_past_the_letter_ids_raise_out_of_range(self):
        # 2**15 words of length 15, each its own value: one output more
        # with a default than an int16 window has letter ids
        w = tm_window(64)
        table = {word: float(i) for i, word in enumerate(itertools.product((0, 1), repeat=15))}
        image = apply_block_map(w, BlockMap(0, 15, table))
        assert max(image.weights) == 2**15 - 1
        with pytest.raises(OutOfRange, match="32769 distinct outputs"):
            apply_block_map(w, BlockMap(0, 15, table, default=-1.0))

    def test_window_too_short(self):
        w = SymbolicWindow(np.array([0, 1], dtype=np.int16), 0)
        with pytest.raises(WindowTooShort):
            apply_block_map(w, indicator_block_map((0, 1, 0, 1)))

    def test_evaluate_at_matches_applied_image(self):
        w = tm_window(64)
        g = xor_map()
        image = apply_block_map(w, g)
        for n in (-5, 0, 7):
            assert evaluate_at(w, g, n) == image.values()[n - image.lo]


class TestEquivariance:
    def test_factor_commutes_with_shift(self):
        w = tm_window(128)
        report = verify_factor_equivariance(w, xor_map(), range(1, 9))
        assert report.ok
        assert report.max_abs_dev == 0.0
        assert report.first_violation is None

    def test_violation_is_reported_not_raised(self):
        w = tm_window(128)
        # a reference image that is wrong at one site
        good = apply_block_map(w, xor_map())
        letters = good.letters.copy()
        mid = len(letters) // 2
        letters[mid] = 1 - letters[mid]
        bad = SymbolicWindow(letters, good.lo, dict(good.weights))
        report = verify_factor_equivariance(w, xor_map(), range(1, 5), reference=bad)
        assert not report.ok
        assert report.first_violation is not None
        assert report.max_abs_dev == 1.0

    def test_nan_output_is_a_violation(self):
        # a nan deviation fails both d > tol and max(max_dev, d)
        w = tm_window(128)
        g = BlockMap(0, 1, {(0,): 1.0, (1,): float("nan")})
        report = verify_factor_equivariance(w, g, range(1, 5))
        assert not report.ok
        assert report.first_violation is not None
        assert np.isnan(report.max_abs_dev)

    def test_each_shift_reads_other_reference_sites(self, monkeypatch):
        from diffspec import factors

        w = tm_window(128)
        sites = set()
        evaluate = factors.evaluate_at

        def spy(shifted, g, n):
            sites.add(n + w.lo - shifted.lo)  # the reference site n + t
            return evaluate(shifted, g, n)

        monkeypatch.setattr(factors, "evaluate_at", spy)
        report = verify_factor_equivariance(w, xor_map(), range(1, 10**18))
        assert report.ok and len(report.shifts_checked) > 1
        assert len(sites) > 9

    def test_a_wrong_word_lookup_is_a_violation(self, monkeypatch):
        # the image's sliding lookup is checked against evaluate_at, a
        # second algorithm: a lookup that swaps two words must fail it.
        # The swap goes into the encoder the word plan is built from, on
        # a fresh window that has no plan yet
        from diffspec import subshift

        def swapped(letters, ell):
            ids, first, counts = sliding_words(letters, ell)
            swap = np.arange(len(first))
            swap[:2] = 1, 0
            return swap[ids], first, counts

        w = tm_window(128)
        assert w._plans == {}
        monkeypatch.setattr(subshift, "sliding_words", swapped)
        report = verify_factor_equivariance(w, xor_map(), range(1, 9))
        assert not report.ok
        assert report.max_abs_dev == 1.0


def test_public_api_lists_xor_map():
    import diffspec

    assert "xor_map" in diffspec.__all__
    assert "intensity_table" in diffspec.__all__
    assert all(hasattr(diffspec, name) for name in diffspec.__all__)


@pytest.mark.parametrize(
    "text",
    ["nonsense", "offset x length 2\n", "offset 0 length 2\nab 1\n", "offset 0 length 2\nab -> q\n"],
)
def test_block_map_parse_raises_malformed_input(text):
    with pytest.raises(MalformedInput):
        BlockMap.parse(text)


def shifted_window_equivariance(window, g, shifts, reference):
    """The reference for the equivariance check: one shifted window S^t x
    built per shift, each block read off it through a local reader."""

    def block_value(x, n):
        i = n + g.offset - x.lo
        if i < 0 or i + g.length > len(x):
            raise IndexError(n)
        word = tuple(int(c) for c in x.letters[i : i + g.length])
        if word in g.table:
            return g.table[word]
        if g.default is None:
            raise MissingTableEntry(word)
        return complex(g.default)

    ref_vals = reference.values()
    img_lo = window.lo - g.offset
    img_hi = window.hi - g.offset - (g.length - 1)
    t_lo, t_hi = max(window.lo, img_lo), min(window.hi, img_hi)
    checked = [t for t in range(t_lo, t_hi + 1) if t in shifts]
    r_lo, r_hi = max(img_lo, reference.lo), min(img_hi, reference.hi)
    span = r_hi - r_lo
    first, max_dev = None, 0.0
    for t in checked:
        if span < 0:
            break
        shifted = SymbolicWindow(window.letters, window.lo - t, dict(window.weights))
        turn = t - checked[0]
        for r in sorted({r_lo + (span * j // 8 + turn) % (span + 1) for j in range(9)}):
            d = abs(block_value(shifted, r - t) - ref_vals[r - reference.lo])
            max_dev = float(np.maximum(max_dev, d))
            if not d <= 1e-12 and first is None:
                first = (t, r - t)
    return EquivarianceReport(first is None, checked, first, max_dev)


def corrupted(image, site):
    """The image with the letter at index site moved to the next output id."""
    letters = image.letters.copy()
    letters[site] = (letters[site] + 1) % len(image.weights)
    return SymbolicWindow(letters, image.lo, dict(image.weights))


@st.composite
def equivariance_cases(draw):
    w = fixed_point_window(
        rule_by_name(draw(st.sampled_from(sorted(BUILTIN_RULES)))), 0, draw(st.integers(12, 200))
    )
    n_letters = int(w.letters.max()) + 1
    kind = draw(st.sampled_from(["identity", "xor", "indicator", "parsed"]))
    if kind == "identity":
        g = identity_map(w)
    elif kind == "xor" and n_letters == 2:
        g = xor_map()
    elif kind == "indicator":
        length = draw(st.integers(1, 5))
        word = tuple(draw(st.lists(st.integers(0, n_letters - 1), min_size=length, max_size=length)))
        g = indicator_block_map(word, offset=draw(st.integers(-6, 6)))
    else:
        length = draw(st.integers(1, 3))
        words = draw(st.lists(
            st.lists(st.integers(0, n_letters - 1), min_size=length, max_size=length),
            max_size=6,
        ))
        values = st.sampled_from(["1", "-0", "0.5+2i", "-3j", "7", "nan"])
        lines = [f"offset {draw(st.integers(-5, 5).filter(bool))} length {length}"]
        lines += [f"{''.join(chr(97 + c) for c in word)} -> {draw(values)}" for word in words]
        lines.append(f"* -> {draw(values)}")
        g = BlockMap.parse("\n".join(lines) + "\n")
    image = apply_block_map(w, g)
    if draw(st.booleans()) and len(image.weights) > 1:
        image = corrupted(image, draw(st.integers(0, len(image) - 1)))
    edge = 2 * len(w)
    start = draw(st.integers(-edge, edge))
    if draw(st.booleans()):
        shifts = range(start, start + draw(st.integers(0, edge)))
    else:
        shifts = draw(st.lists(st.integers(-edge, edge), min_size=1, max_size=20))
        shifts += draw(st.lists(st.sampled_from(shifts), max_size=5))
    return w, g, shifts, image


class TestReadInPlace:
    """The check reads S^t x off the window itself and reports exactly
    what the shifted-window loop reports."""

    @settings(max_examples=200, deadline=None)
    @given(equivariance_cases())
    def test_matches_the_shifted_window_loop(self, case):
        w, g, shifts, image = case
        got = verify_factor_equivariance(w, g, shifts, reference=image)
        want = shifted_window_equivariance(w, g, shifts, image)
        assert got.ok == want.ok
        assert got.shifts_checked == want.shifts_checked
        assert got.first_violation == want.first_violation
        assert got.max_abs_dev == want.max_abs_dev or (
            np.isnan(got.max_abs_dev) and np.isnan(want.max_abs_dev)
        )

    @pytest.mark.parametrize("g", [xor_map(), BlockMap(-2, 3, {(0, 1, 1): 2.0}, default=-0.0)])
    def test_corrupted_site_is_found_by_both(self, g):
        w = tm_window(128)
        image = corrupted(apply_block_map(w, g), 0)  # the first site checked
        shifts = [-3, 5, 5, 1, 10**6]
        got = verify_factor_equivariance(w, g, shifts, reference=image)
        want = shifted_window_equivariance(w, g, shifts, image)
        assert got.first_violation is not None
        assert got == want
