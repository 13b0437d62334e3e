"""Substitution rules, fixed-point windows, and word statistics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffspec import cli, subshift
from diffspec.errors import MalformedInput, NotAFixedPointSeed, NotPrimitive, OutOfRange
from diffspec.subshift import (
    LETTER_NAMES,
    SubstitutionRule,
    SymbolicWindow,
    _grow,
    build_frequency_table,
    collared,
    dictionary,
    fixed_point_window,
    letter_frequencies_pf,
    parse_rule,
    rule_by_name,
    word_frequency_empirical,
    word_occurrences,
    word_plan,
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


def legal_words(rule, ell):
    """The legal words of length ell, as tuples, from collared."""
    return set(map(tuple, collared(rule, ell)[1].tolist()))


def pair_closure(rule):
    """All two-letter words, as the closure of the pairs inside letter
    images under inflation: a pair (u, v) contributes the pairs inside
    image(u), inside image(v), and the crossing pair (last of image(u),
    first of image(v))."""
    if rule.n_letters == 1:
        return {(0, 0)}
    pairs = {pair for img in rule.images for pair in zip(img, img[1:])}
    changed = True
    while changed:
        changed = False
        for u, v in list(pairs):
            iu, iv = rule.images[u], rule.images[v]
            for pair in [(iu[-1], iv[0]), *zip(iu, iu[1:]), *zip(iv, iv[1:])]:
                if pair not in pairs:
                    pairs.add(pair)
                    changed = True
    return pairs


def ref_is_primitive(rule):
    """The earlier check: up to n^2 successive int64 products of the 0/1
    pattern of the count matrix."""
    n = rule.n_letters
    p = np.minimum(rule.count_matrix(), 1)
    acc = p.copy()
    for _ in range(n * n):
        if np.all(acc > 0):
            return True
        acc = np.minimum(acc @ p, 1)
    return bool(np.all(acc > 0))


def wielandt_rule(n):
    """Letter j maps to j + 1, the last letter to 0 1: its count matrix
    is Wielandt's, whose first positive power is (n - 1)^2 + 1."""
    return SubstitutionRule(tuple((j + 1,) for j in range(n - 1)) + ((0, 1),))


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3), min_size=n, max_size=n)))
    def test_primitivity_by_squaring_matches_successive_powers(self, images):
        rule = SubstitutionRule(tuple(map(tuple, images)))
        assert rule.is_primitive() == ref_is_primitive(rule)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_primitivity_at_wielandts_bound(self, n):
        rule = wielandt_rule(n)
        p = np.minimum(rule.count_matrix(), 1)
        assert not np.linalg.matrix_power(p, (n - 1) ** 2).all()
        assert rule.is_primitive() and ref_is_primitive(rule)
        # a cycle through every letter is irreducible but not primitive
        cycle = SubstitutionRule(tuple(((j + 1) % n,) for j in range(n)))
        assert not cycle.is_primitive() and not ref_is_primitive(cycle)

    def test_count_matrix_thue_morse(self):
        m = rule_by_name("thue-morse").count_matrix()
        assert m.tolist() == [[1, 1], [1, 1]]

    def test_count_matrix_columns_sum_to_image_lengths(self):
        for name in PREFIXES:
            rule = rule_by_name(name)
            m = rule.count_matrix()
            for j in range(rule.n_letters):
                assert m[:, j].sum() == len(rule.image(j))

    def test_legal_pairs(self):
        pairs = {name: legal_words(rule_by_name(name), 2) for name in PREFIXES}
        assert pairs["thue-morse"] == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert pairs["fibonacci"] == {(0, 0), (0, 1), (1, 0)}
        assert pairs["period-doubling"] == {(0, 0), (0, 1), (1, 0)}
        assert len(pairs["rudin-shapiro"]) == 8


class TestFixedPointWindow:
    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_right_half_is_the_fixed_point(self, name):
        w = window(name)
        zero = -w.lo
        assert w.word_string()[zero : zero + len(PREFIXES[name])] == PREFIXES[name]

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_both_halves_reach_min_len(self, name):
        w = window(name, 300)
        assert w.lo == -300 and w.hi >= 299

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_every_adjacent_pair_is_legal(self, name):
        w = window(name)
        pairs = legal_words(rule_by_name(name), 2)
        letters = w.letters
        seen = set(zip(letters[:-1].tolist(), letters[1:].tolist()))
        assert seen <= pairs

    def test_bad_seed_raises(self):
        with pytest.raises(NotAFixedPointSeed):
            fixed_point_window(rule_by_name("fibonacci"), 1, 16)

    def test_thue_morse_left_of_origin(self):
        # regression pin for the left half, the end of image^8(abb)
        w = window("thue-morse")
        zero = -w.lo
        assert w.word_string()[zero - 8 : zero] == "abbabaab"

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


def fixed_point_prefix(rule, seed, n):
    """At least the first n letters of u = lim image^j(seed), by rule.apply."""
    u = (seed,)
    while len(u) < n:
        u = rule.apply(u)
    return u


def tuple_route(rule, seed, min_len):
    """(letters, P) of the window from tuples and rule.apply only: the
    right half image^t(seed) for the least t giving min_len letters, the
    left half the last min_len letters of image^t(u[:i]) for the first
    return i of the seed in u, and P = |image^t(u[:i])|."""
    if len(rule.image(seed)) == 1:
        return (seed,) * (2 * min_len), min_len
    right, t = (seed,), 0
    while len(right) < min_len:
        right, t = rule.apply(right), t + 1
    u = right
    while seed not in u[1:]:
        u = rule.apply(u)
    head = u[: u.index(seed, 1)]
    for _ in range(t):
        head = rule.apply(head)
    return head[-min_len:] + right, len(head)


def assert_matches_tuple_route(rule, seed, min_len):
    w = fixed_point_window(rule, seed, min_len)
    letters, at = tuple_route(rule, seed, min_len)
    assert w.letters.dtype == np.int16
    assert w.letters.tobytes() == np.array(letters, dtype=np.int16).tobytes()
    assert w.lo == -min_len
    if len(rule.image(seed)) == 1:  # the constant sequence
        return
    # the window is u[P - min_len : P + |right|] of a prefix grown on its own
    u = fixed_point_prefix(rule, seed, at + len(letters) - min_len)
    assert u[at - min_len : at + len(letters) - min_len] == letters
    assert w.letters[min_len:].tobytes() == _grow(rule, seed, min_len)[seed].tobytes()


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


@st.composite
def permutation_rules(draw):
    """A primitive rule of up to 26 letters whose last-letter map is a
    random permutation.  Each image holds the next letter of a random
    cycle through the alphabet and the image of a starts with a, so the
    rule is primitive by construction."""
    n = draw(st.integers(2, 26))
    cycle = draw(st.permutations(range(n)))
    after = {x: cycle[(j + 1) % n] for j, x in enumerate(cycle)}
    last = draw(st.permutations(range(n)))
    images = []
    for x in range(n):
        body = draw(st.lists(st.integers(0, n - 1), max_size=2)) + [after[x]]
        body = draw(st.permutations(body))
        images.append(([0] if x == 0 else []) + body + [last[x]])
    rule = parse_rule("\n".join(
        f"{LETTER_NAMES[x]} -> {''.join(LETTER_NAMES[c] for c in img)}"
        for x, img in enumerate(images)))
    assert rule.is_primitive()
    return rule


def cyclic_rule():
    """x -> abcdefghijklmno g(x) with g of cycles 3, 5 and 7: the least
    idempotent power of the last-letter map g is g^105, the identity."""
    cycles = [range(0, 3), range(3, 8), range(8, 15)]
    g = {c[j]: c[(j + 1) % len(c)] for c in cycles for j in range(len(c))}
    return "".join(f"{LETTER_NAMES[x]} -> {LETTER_NAMES[:15]}{LETTER_NAMES[g[x]]}\n"
                   for x in range(15))


class TestAgainstTupleRoute:
    """The window against its slice of u, from tuples and rule.apply only."""

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_builtin_rules(self, name):
        rule = rule_by_name(name)
        for min_len in [*range(1, 301), 2**16]:
            assert_matches_tuple_route(rule, 0, min_len)

    def test_last_letters_swapping_a_and_b(self):
        rule = parse_rule("a -> aab\nb -> ba\n")
        for min_len in [1, 2, 3, 5, 17, 1000]:
            assert_matches_tuple_route(rule, 0, min_len)

    def test_one_letter_rule_keeps_the_constant_window(self):
        w = fixed_point_window(parse_rule("a -> a"), 0, 7)
        assert (w.lo, w.word_string()) == (-7, "a" * 14)

    @settings(max_examples=200, deadline=None)
    @given(primitive_rules(), st.integers(1, 3000))
    def test_random_primitive_rules(self, rule, min_len):
        assert_matches_tuple_route(rule, 0, min_len)

    @settings(max_examples=100, deadline=None)
    @given(permutation_rules(), st.integers(1, 300))
    def test_rules_with_a_permuted_last_letter_map(self, rule, min_len):
        assert_matches_tuple_route(rule, 0, min_len)
        pairs = legal_words(rule, 2)
        letters = fixed_point_window(rule, 0, min_len).letters.tolist()
        assert set(zip(letters, letters[1:])) <= pairs

    @pytest.mark.parametrize("min_len", [1, 16, 100, 5000])
    def test_last_letter_map_of_long_cycles(self, min_len):
        rule = parse_rule(cyclic_rule())
        assert rule.is_primitive()
        w = fixed_point_window(rule, 0, min_len)
        assert w.lo == -min_len
        letters = w.letters.tolist()
        assert set(zip(letters, letters[1:])) <= legal_words(rule, 2)
        assert_matches_tuple_route(rule, 0, min_len)

    def test_gen_from_a_rule_file_with_long_cycles(self, tmp_path):
        path = tmp_path / "cycles.txt"
        path.write_text(cyclic_rule())
        out = tmp_path / "w.txt"
        assert cli.main(["gen", "--rule-file", str(path), "--len", "100", "--out", str(out)]) == 0
        assert out.read_text().startswith("window lo -100 ")

    def test_words_past_the_limit_raise_before_any_array(self, monkeypatch):
        # Thue-Morse at min_len 2^t builds 2^(t + 1) letters
        monkeypatch.setattr(subshift, "WINDOW_LIMIT", 1024)
        assert len(fixed_point_window(rule_by_name("thue-morse"), 0, 512)) == 1024
        with pytest.raises(OutOfRange, match="2048 letters, over the limit of 1024"):
            fixed_point_window(rule_by_name("thue-morse"), 0, 513)
        # the constant window of the one-letter rule has 2 min_len letters
        assert len(fixed_point_window(parse_rule("a -> a"), 0, 512)) == 1024
        with pytest.raises(OutOfRange, match="1026 letters, over the limit of 1024"):
            fixed_point_window(parse_rule("a -> a"), 0, 513)


class TestCollared:
    """The ell-block substitution against the pair closure and windows."""

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_pairs_equal_the_pair_closure(self, name):
        rule = rule_by_name(name)
        assert legal_words(rule, 2) == pair_closure(rule)

    @settings(max_examples=50, deadline=None)
    @given(permutation_rules())
    def test_pairs_equal_the_pair_closure_with_a_permuted_last_letter_map(self, rule):
        assert legal_words(rule, 2) == pair_closure(rule)

    def test_pairs_equal_the_pair_closure_of_long_cycles(self):
        rule = parse_rule(cyclic_rule())
        assert legal_words(rule, 2) == pair_closure(rule)

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_words_are_those_of_a_long_window(self, name):
        w = window(name, 2**16)
        for ell in range(1, 5):
            assert np.array_equal(collared(rule_by_name(name), ell)[1], word_plan(w, ell).words)

    @settings(max_examples=100, deadline=None)
    @given(primitive_rules(), st.integers(1, 4))
    def test_words_of_random_rules_are_those_of_a_long_window(self, rule, ell):
        w = fixed_point_window(rule, 0, 2**15)
        assert np.array_equal(collared(rule, ell)[1], word_plan(w, ell).words)

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    def test_sigma_1_is_the_rule(self, name):
        rule = rule_by_name(name)
        sigma, words = collared(rule, 1)
        assert sigma == rule
        assert words.tolist() == [[a] for a in range(rule.n_letters)]

    @pytest.mark.parametrize("name", sorted(PREFIXES))
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_sigma_fixes_the_word_sequence_of_the_fixed_point(self, name, ell):
        # the ell-words u[i : i + ell] of u = image(u), as ranks, are the
        # fixed point of sigma_ell
        rule = rule_by_name(name)
        sigma, words = collared(rule, ell)
        rank = {tuple(row): k for k, row in enumerate(words.tolist())}
        u = fixed_point_prefix(rule, 0, 3000)
        seq = tuple(rank[u[i : i + ell]] for i in range(len(u) - ell + 1))
        image = sigma.apply(seq[:500])
        assert image == seq[: len(image)]

    def test_words_are_a_read_only_int16_array(self):
        sigma, words = collared(rule_by_name("rudin-shapiro"), 4)
        assert words.dtype == np.int16 and words.shape == (sigma.n_letters, 4)
        assert not words.flags.writeable
        assert sorted(map(tuple, words.tolist())) == list(map(tuple, words.tolist()))

    @pytest.mark.parametrize("name, tol", [
        ("thue-morse", 2e-5), ("period-doubling", 2e-5), ("fibonacci", 2e-5),
        ("silver-mean", 2e-5),
        # the second eigenvalue sqrt 2 of Rudin-Shapiro leaves an N^(-1/2) error
        ("rudin-shapiro", 2e-3),
    ])
    def test_pf_frequencies_match_window_counts(self, name, tol):
        w = window(name, 2**16)
        table = build_frequency_table(w, 4).freqs
        for ell in range(1, 5):
            sigma, words = collared(rule_by_name(name), ell)
            pf = letter_frequencies_pf(sigma)
            assert pf.sum() == pytest.approx(1.0, abs=1e-12)
            counted = [table[word] for word in map(tuple, words.tolist())]
            assert np.abs(pf - counted).max() <= tol

    def test_one_letter_rule_is_the_identity_on_its_one_word(self):
        for ell in (1, 3, 100):
            sigma, words = collared(parse_rule("a -> a"), ell)
            assert sigma == parse_rule("a -> a")
            assert words.tolist() == [[0] * ell]

    def test_non_primitive_rule_raises(self):
        with pytest.raises(NotPrimitive):
            collared(SubstitutionRule(((0, 0), (1, 1))), 2)

    @pytest.mark.parametrize("ell", [0, -1])
    def test_length_below_1_raises(self, ell):
        with pytest.raises(ValueError, match="ell must be positive"):
            collared(rule_by_name("thue-morse"), ell)

    def test_words_past_the_limit_raise_while_they_grow(self, monkeypatch):
        # Thue-Morse has 10 words of length 4 and 4 of length 2
        monkeypatch.setattr(subshift, "COLLARED_LIMIT", 39)
        assert len(collared(rule_by_name("thue-morse"), 2)[1]) == 4
        with pytest.raises(OutOfRange, match="length 4 hold more than 39 letters"):
            collared(rule_by_name("thue-morse"), 4)
        monkeypatch.setattr(subshift, "COLLARED_LIMIT", 40)
        assert len(collared(rule_by_name("thue-morse"), 4)[1]) == 10

    def test_a_word_longer_than_the_limit_raises_before_it_grows(self):
        with pytest.raises(OutOfRange, match="COLLARED_LIMIT"):
            collared(rule_by_name("fibonacci"), 10**18)


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
