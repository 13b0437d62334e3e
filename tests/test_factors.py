"""Sliding block maps: application, parsing, the block-by-block image check."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.errors import MalformedInput, MissingTableEntry, OutOfRange, WindowTooShort
from diffspec import factors
from diffspec.factors import (
    IMAGE_SAMPLE,
    BlockCheck,
    BlockMap,
    apply_block_map,
    check_block_image,
    identity_map,
    indicator_block_map,
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
        image = apply_block_map(w, g)
        assert image.lo == 0 and image.values().tolist() == [1.0, 0.0]
        assert check_block_image(w, g, image) == BlockCheck(True, 2, None, 0.0)

    def test_missing_entry_without_default(self):
        w = SymbolicWindow(np.array([0, 1, 1]), 0)
        g = BlockMap(0, 2, {(0, 1): 1.0})
        with pytest.raises(MissingTableEntry):
            apply_block_map(w, g)
        # an image that gives the block (1, 1) at site 1 a value
        image = SymbolicWindow(np.array([0, 0]), 0, {0: 1.0})
        with pytest.raises(MissingTableEntry, match=r"\(1, 1\)"):
            check_block_image(w, g, image)

    @pytest.mark.parametrize("n", [-1, 2])
    def test_block_outside_the_window_raises_index_error(self, n):
        # an image with a site n whose block leaves the window
        w = SymbolicWindow(np.array([0, 1, 1]), 0)
        lo, hi = min(n, 0), max(n, 1)
        image = SymbolicWindow(np.zeros(hi - lo + 1, dtype=np.int16), lo)
        with pytest.raises(IndexError):
            check_block_image(w, BlockMap(0, 2, {(0, 1): 1.0}, default=0.0), image)

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

    def test_identity_map_holds_the_letters_present(self):
        # a is unweighted and reads 0, as in weight_table; the weight of
        # the absent letter c gets no table entry and so no output
        w = tm_window(64, weights={1: -1.0, 2: 5.0})
        g = identity_map(w)
        assert g.table == {(0,): 0j, (1,): -1 + 0j}
        image = apply_block_map(w, g)
        assert image.weights == {0: -1 + 0j, 1: 0j}
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


def corrupted(image, site):
    """The image with the letter at index site moved to the next output id."""
    letters = image.letters.copy()
    letters[site] = (letters[site] + 1) % len(image.weights)
    return SymbolicWindow(letters, image.lo, dict(image.weights))


class TestBlockCheck:
    def test_true_image_passes(self):
        w = tm_window(128)
        image = apply_block_map(w, xor_map())
        report = check_block_image(w, xor_map(), image)
        assert report == BlockCheck(True, len(image), None, 0.0)

    def test_violation_is_reported_not_raised(self):
        w = tm_window(128)
        good = apply_block_map(w, xor_map())
        mid = len(good) // 2
        report = check_block_image(w, xor_map(), corrupted(good, mid))
        assert not report.ok
        assert report.first_site == good.lo + mid
        assert report.max_abs_dev == 1.0

    def test_nan_output_is_a_violation(self):
        # nan equals nothing, itself included, so a nan value never agrees
        w = tm_window(128)
        g = BlockMap(0, 1, {(0,): 1.0, (1,): float("nan")})
        report = check_block_image(w, g, apply_block_map(w, g))
        assert not report.ok
        assert report.first_site == w.lo + int(np.flatnonzero(w.letters == 1)[0])
        assert np.isnan(report.max_abs_dev)

    @pytest.mark.parametrize("g", [xor_map(), BlockMap(-2, 3, {(0, 1, 1): 2.0}, default=-0.0)])
    def test_corrupted_site_is_found(self, g):
        w = tm_window(128)
        image = apply_block_map(w, g)
        for site in (0, len(image) - 1):
            assert check_block_image(w, g, corrupted(image, site)).first_site == image.lo + site

    def test_a_lookup_off_by_one_site_is_a_violation(self, monkeypatch):
        # the image's word ids read one site late: the lookup array is
        # right word by word but off by one site
        plan_of = factors.word_plan

        def rolled(window, ell):
            plan = plan_of(window, ell)
            return dataclasses.replace(plan, ids=np.roll(plan.ids, 1))

        w = tm_window(128)
        monkeypatch.setattr(factors, "word_plan", rolled)
        report = check_block_image(w, xor_map(), apply_block_map(w, xor_map()))
        assert not report.ok
        assert report.max_abs_dev == 1.0

    def test_a_wrong_word_lookup_is_a_violation(self, monkeypatch):
        # a lookup that swaps two words must fail the per-block reading.
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
        report = check_block_image(w, xor_map(), apply_block_map(w, xor_map()))
        assert not report.ok
        assert report.max_abs_dev == 1.0

    def test_a_long_image_is_compared_at_both_ends_and_a_fixed_sample(self):
        w = tm_window(4096)
        g = xor_map()
        image = apply_block_map(w, g)
        assert len(image) > IMAGE_SAMPLE
        assert check_block_image(w, g, image) == BlockCheck(True, IMAGE_SAMPLE, None, 0.0)
        for site in (0, len(image) - 1):
            assert check_block_image(w, g, corrupted(image, site)).first_site == image.lo + site
        # wrong at every site but the two ends: the first sampled site
        # between them is reported, the same one on every call
        letters = 1 - image.letters
        letters[[0, -1]] = image.letters[[0, -1]]
        inner = SymbolicWindow(letters, image.lo, dict(image.weights))
        report = check_block_image(w, g, inner)
        assert report == check_block_image(w, g, inner)
        assert image.lo < report.first_site < image.hi and report.sites == IMAGE_SAMPLE


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


@st.composite
def block_image_cases(draw):
    """A window, a block map, its true image and one site of the image."""
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
    return w, g, image, draw(st.integers(0, len(image) - 1))


class TestEverySite:
    """An image of at most IMAGE_SAMPLE sites is compared at every site."""

    @settings(max_examples=200, deadline=None)
    @given(block_image_cases())
    def test_true_image_passes_and_any_corrupted_site_is_found(self, case):
        w, g, image, site = case
        assert len(image) <= IMAGE_SAMPLE
        values = image.values()
        nan_sites = np.flatnonzero(np.isnan(values)).tolist()
        report = check_block_image(w, g, image)
        assert report.sites == len(image)
        # a nan value is the one way a true image fails
        assert report.ok == (not nan_sites)
        assert report.first_site == (image.lo + nan_sites[0] if nan_sites else None)
        if len(image.weights) < 2:
            return
        bad = corrupted(image, site)
        report = check_block_image(w, g, bad)
        assert not report.ok
        assert report.first_site == image.lo + min([site, *nan_sites])
        if not nan_sites:
            np.testing.assert_equal(report.max_abs_dev, abs(bad.values()[site] - values[site]))
