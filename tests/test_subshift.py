"""Substitution rules, fixed-point windows, and word statistics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffspec.errors import MalformedInput, NotAFixedPointSeed, NotPrimitive
from diffspec.subshift import (
    LETTER_NAMES,
    SubstitutionRule,
    SymbolicWindow,
    _left_seed,
    build_frequency_table,
    dictionary,
    fixed_point_window,
    letter_frequencies_pf,
    parse_rule,
    rule_by_name,
    word_frequency_empirical,
    word_occurrences,
)

SQRT2 = np.sqrt(2.0)
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# fixed-point prefixes, derived by iterating each rule by hand
PREFIXES = {
    "thue-morse": "abbabaabbaababba",
    "period-doubling": "abaaabababaaabaa",
    "fibonacci": "abaababaabaababa",
    "silver-mean": "aabaabaaabaabaaa",
    "rudin-shapiro": "abacabdb",
}


def window(name, min_len=256, **kw):
    return fixed_point_window(rule_by_name(name), 0, min_len, **kw)


class TestRules:
    def test_parse_round_trip(self):
        rule = parse_rule("a -> ab\nb -> ba\n")
        assert rule == rule_by_name("thue-morse")

    def test_parse_rejects_gap_in_alphabet(self):
        with pytest.raises(ValueError):
            parse_rule("a -> ac\nc -> ca\n")

    def test_builtins_are_primitive(self):
        for name in PREFIXES:
            assert rule_by_name(name).is_primitive()

    def test_non_primitive_detected(self):
        # two letters that never mix
        rule = SubstitutionRule(((0, 0), (1, 1)))
        assert not rule.is_primitive()
        with pytest.raises(NotPrimitive):
            rule.require_primitive()

    def test_count_matrix_thue_morse(self):
        m = rule_by_name("thue-morse").count_matrix()
        assert m.tolist() == [[1, 1], [1, 1]]

    def test_count_matrix_columns_sum_to_image_lengths(self):
        for name in PREFIXES:
            rule = rule_by_name(name)
            m = rule.count_matrix()
            for j in range(rule.n_letters):
                assert m[:, j].sum() == len(rule.image(j))

    @given(st.lists(st.integers(0, 1), max_size=12))
    def test_apply_power_matches_repeated_apply(self, word):
        rule = rule_by_name("thue-morse")
        w = tuple(word)
        assert rule.apply_power(w, 3) == rule.apply(rule.apply(rule.apply(w)))

    def test_legal_pairs(self):
        assert rule_by_name("thue-morse").legal_pairs() == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert rule_by_name("fibonacci").legal_pairs() == {(0, 0), (0, 1), (1, 0)}
        assert rule_by_name("period-doubling").legal_pairs() == {(0, 0), (0, 1), (1, 0)}
        assert len(rule_by_name("rudin-shapiro").legal_pairs()) == 8


class TestFixedPointWindow:
    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_right_half_is_the_fixed_point(self, name):
        w = window(name)
        zero = -w.lo
        assert w.word_string()[zero : zero + len(PREFIXES[name])] == PREFIXES[name]

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_both_halves_reach_min_len(self, name):
        w = window(name, 300)
        assert w.lo <= -300 and w.hi >= 299

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_every_adjacent_pair_is_legal(self, name):
        w = window(name)
        pairs = rule_by_name(name).legal_pairs()
        letters = w.letters
        seen = set(zip(letters[:-1].tolist(), letters[1:].tolist()))
        assert seen <= pairs

    def test_bad_seed_raises(self):
        with pytest.raises(NotAFixedPointSeed):
            fixed_point_window(rule_by_name("fibonacci"), 1, 16)

    def test_thue_morse_left_of_origin(self):
        # regression pin for the chosen bi-infinite extension
        w = window("thue-morse")
        zero = -w.lo
        assert w.word_string()[zero - 8 : zero] == "baababba"

    def test_shift_moves_the_origin(self):
        w = window("thue-morse", 32)
        s = w.shifted(5)
        assert s.letter(0) == w.letter(5)
        assert len(s) == len(w)

    def test_values_use_weights(self):
        w = window("thue-morse", 16, weights={0: 1.0, 1: -1.0})
        vals = w.values()
        assert vals[-w.lo] == 1.0 + 0.0j
        assert set(np.unique(vals.real)) == {-1.0, 1.0}

    @pytest.mark.parametrize("ids", [[0], [1, 1], [0, 1, 0], [0, 2, 2, 0], [3, 1, 3]])
    def test_default_weights_cover_the_ids_present(self, ids):
        w = SymbolicWindow(np.array(ids), 0)
        assert sorted(w.weights) == sorted(set(ids))
        assert set(w.weights.values()) == {1.0 + 0j}

    def test_negative_letter_id_raises(self):
        with pytest.raises(ValueError, match="letter id -1 "):
            SymbolicWindow(np.array([-1, 1, -1, 1]), 0, {-1: 5.0, 1: 2.0})

    @pytest.mark.parametrize("bad", [32768, 65537])
    def test_letter_id_past_int16_raises_instead_of_wrapping(self, bad):
        with pytest.raises(ValueError, match=f"letter id {bad} "):
            SymbolicWindow(np.array([0, bad, 1]), 0)

    def test_negative_weight_key_is_ignored(self):
        w = SymbolicWindow(np.array([0, 1, 0, 1]), 0, {1: 2.0, -1: 5.0})
        assert w.values().tolist() == [0, 2, 0, 2]

    def test_subword_and_letter_agree(self):
        w = window("fibonacci", 32)
        assert w.subword(-3, 5) == tuple(w.letter(n) for n in range(-3, 2))


def tuple_route(rule, seed, min_len):
    """(letters, lo) as the earlier fixed_point_window built them: tuples
    grown by rule.apply on the right and rule.apply_power on the left."""
    if len(rule.image(seed)) == 1:
        return np.full(2 * min_len, seed, dtype=np.int16), -min_len
    right = (seed,)
    while len(right) < min_len:
        right = rule.apply(right)
    p, k = _left_seed(rule, seed)
    left = (p,)
    while len(left) < min_len:
        left = rule.apply_power(left, k)
    return np.array(left + right, dtype=np.int16), -len(left)


def assert_matches_tuple_route(rule, seed, min_len):
    w = fixed_point_window(rule, seed, min_len)
    letters, lo = tuple_route(rule, seed, min_len)
    assert w.letters.dtype == np.int16
    assert w.letters.tobytes() == letters.tobytes()
    assert w.lo == lo


@st.composite
def primitive_rules(draw):
    """A primitive rule from parse_rule whose letter a starts its own image."""
    n = draw(st.integers(1, 4))
    names = LETTER_NAMES[:n]
    images = ["a" + draw(st.text(names, max_size=3))]
    images += [draw(st.text(names, min_size=1, max_size=4)) for _ in range(n - 1)]
    rule = parse_rule("\n".join(f"{names[i]} -> {img}" for i, img in enumerate(images)))
    assume(rule.is_primitive())
    return rule


class TestAgainstTupleRoute:
    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_builtin_rules(self, name):
        rule = rule_by_name(name)
        for min_len in [*range(1, 301), 2**16]:
            assert_matches_tuple_route(rule, 0, min_len)

    def test_unequal_images_with_left_power_above_one(self):
        # the last letters of the images swap a and b, so the left half
        # grows by the square of the rule
        rule = parse_rule("a -> aab\nb -> ba\n")
        assert _left_seed(rule, 0)[1] == 2
        for min_len in [1, 2, 3, 5, 17, 1000]:
            assert_matches_tuple_route(rule, 0, min_len)

    @settings(max_examples=200, deadline=None)
    @given(primitive_rules(), st.integers(1, 3000))
    def test_random_primitive_rules(self, rule, min_len):
        assert_matches_tuple_route(rule, 0, min_len)


class TestWordStatistics:
    def test_dictionary_sizes(self):
        expected = {
            "thue-morse": (2, 4, 6),
            "period-doubling": (2, 3, 5),
            "fibonacci": (2, 3, 4),
            "silver-mean": (2, 3, 4),
            "rudin-shapiro": (4, 8, 16),
        }
        for name, sizes in expected.items():
            words = dictionary(window(name, 2048), 3)
            got = tuple(len([w for w in words if len(w) == L]) for L in (1, 2, 3))
            assert got == sizes, name

    def test_word_occurrences_counts_overlaps(self):
        w = SymbolicWindow(np.array([0, 0, 0, 0, 1], dtype=np.int16), 0)
        assert word_occurrences(w, (0, 0)) == 3
        assert word_occurrences(w, (0, 1)) == 1
        assert word_occurrences(w, (1, 1)) == 0

    def test_pf_letter_frequencies(self):
        approx = pytest.approx
        assert letter_frequencies_pf(rule_by_name("thue-morse")) == approx([0.5, 0.5])
        assert letter_frequencies_pf(rule_by_name("period-doubling")) == approx([2 / 3, 1 / 3])
        assert letter_frequencies_pf(rule_by_name("fibonacci")) == approx([GOLDEN, 1 - GOLDEN])
        assert letter_frequencies_pf(rule_by_name("silver-mean")) == approx(
            [SQRT2 / 2, 1 - SQRT2 / 2]
        )
        assert letter_frequencies_pf(rule_by_name("rudin-shapiro")) == approx([0.25] * 4)

    @pytest.mark.parametrize("name", ["thue-morse", "fibonacci", "period-doubling"])
    def test_empirical_letter_frequency_approaches_pf(self, name):
        w = window(name, 2**14)
        pf = letter_frequencies_pf(rule_by_name(name))
        for letter in range(2):
            freq, err = word_frequency_empirical(w, (letter,))
            assert abs(freq - pf[letter]) <= max(err, 1e-3)

    def test_frequency_table_sums_to_one_per_length(self):
        w = window("fibonacci", 2**12)
        table = build_frequency_table(w, 3)
        for L in (1, 2, 3):
            total = sum(f for word, f in table.freqs.items() if len(word) == L)
            assert total == pytest.approx(1.0, abs=1e-3)

    @settings(max_examples=25)
    @given(st.sampled_from(sorted(PREFIXES)), st.integers(1, 3))
    def test_dictionary_words_actually_occur(self, name, max_len):
        w = window(name, 512)
        for word in dictionary(w, max_len):
            assert word_occurrences(w, word) > 0


@pytest.mark.parametrize("text", ["garbage", "a -> az\n", "ab -> a\n", "a ->\n"])
def test_parse_rule_raises_malformed_input(text):
    with pytest.raises(MalformedInput):
        parse_rule(text)
