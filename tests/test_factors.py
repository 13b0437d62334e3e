"""Sliding block maps: application, parsing, equivariance."""

import numpy as np
import pytest

from diffspec.errors import MalformedInput, MissingTableEntry, WindowTooShort
from diffspec.factors import (
    BlockMap,
    apply_block_map,
    evaluate_at,
    identity_map,
    indicator_block_map,
    verify_factor_equivariance,
    xor_map,
)
from diffspec.subshift import (
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
        g = BlockMap(0, 2, {(0, 1): 1.0}, default=0.0)
        assert g.output((0, 1)) == 1.0
        assert g.output((1, 1)) == 0.0

    def test_missing_entry_without_default(self):
        g = BlockMap(0, 2, {(0, 1): 1.0})
        with pytest.raises(MissingTableEntry):
            g.output((1, 1))

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
        word = w.subword(100, length)
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
