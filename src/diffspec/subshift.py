"""Primitive substitutions and the finite windows of their fixed points.

A substitution maps every letter of a finite alphabet to a nonempty word
over the same alphabet.  When the substitution is primitive (some power
of its letter-count matrix is entrywise positive), every letter generates
the same minimal subshift, all words occur with well-defined frequencies,
and the letter frequencies are the entries of the normalized right
Perron-Frobenius eigenvector of the count matrix.

Letters are small integer ids internally.  Names like ``a``, ``b`` only
appear at the text boundary (rule files, CLI output): letter_id,
word_letters, word_name, and data_lines, the comment rule of input files.

One encoder, row_ranks, ranks every local pattern: words (sliding_words),
and in delone exact gap rows, cluster windows and point-file weights.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MalformedInput,
    NotAFixedPointSeed,
    NotPrimitive,
    OutOfRange,
    UnnamedLetter,
    WindowTooShort,
)

LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"
_LETTER_BYTES = np.frombuffer(LETTER_NAMES.encode("ascii"), dtype=np.uint8)
_MAX_ID = int(np.iinfo(np.int16).max)  # letters are stored as int16
_FIRST_ROWS = 2**14  # the rows row_ranks searches first for each row's first site


def _is_data(line: str) -> bool:
    """Whether a text line holds more than blanks and a # comment."""
    return bool(line.partition("#")[0].strip())


def data_lines(text: str) -> Iterator[str]:
    """The data of every line of text, read lazily: each line is cut at
    its first # and stripped, and blank lines are dropped.  Lines break
    where str.splitlines breaks them."""
    for chunk in io.StringIO(text):  # one \n-ended piece at a time
        for line in chunk.splitlines():
            if _is_data(line):
                yield line.partition("#")[0].strip()


def word_letters(word: str) -> np.ndarray:
    """Letter ids of a word written in LETTER_NAMES; MalformedInput on any other character."""
    try:
        codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise MalformedInput(f"unknown letter {word[exc.start]!r}") from None
    ids = codes.astype(np.int16) - ord("a")
    bad = np.flatnonzero((ids < 0) | (ids >= len(LETTER_NAMES)))
    if len(bad):
        raise MalformedInput(f"unknown letter {word[bad[0]]!r}")
    return ids


def letter_id(name: str, n_letters: int) -> int:
    """The id of name, one letter among the first n_letters; MalformedInput otherwise."""
    ids = word_letters(name) if len(name) == 1 else ()
    if len(ids) != 1 or ids[0] >= n_letters:
        raise MalformedInput(f"unknown letter {name!r}")
    return int(ids[0])


def word_name(ids) -> str:
    """The word of letter ids, written in LETTER_NAMES; UnnamedLetter
    for an id outside 0..25, which has no name."""
    ids = np.asarray(ids, dtype=np.int16)
    bad = np.flatnonzero((ids < 0) | (ids >= len(LETTER_NAMES)))
    if len(bad):
        raise UnnamedLetter(f"letter id {ids[bad[0]]} has no name: words are written "
                            f"in the {len(LETTER_NAMES)} letters a..z")
    return _LETTER_BYTES[ids].tobytes().decode("ascii")


@dataclass(frozen=True)
class SubstitutionRule:
    """A substitution on the alphabet {0, ..., n_letters - 1}.

    images[i] is the word the letter i is mapped to.  Every image must be
    nonempty and stay inside the alphabet.
    """

    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("empty alphabet")
        for img in self.images:
            if len(img) == 0:
                raise ValueError("empty image word")
            if any(not 0 <= c < n for c in img):
                raise ValueError("image letter outside alphabet")

    @property
    def n_letters(self) -> int:
        return len(self.images)

    def image(self, letter: int) -> tuple[int, ...]:
        return self.images[letter]

    def apply(self, word: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        out: list[int] = []
        for c in word:
            out.extend(self.images[c])
        return tuple(out)

    def count_matrix(self) -> np.ndarray:
        """M[i, j] = number of occurrences of letter i in the image of j."""
        n = self.n_letters
        m = np.zeros((n, n), dtype=np.int64)
        for j, img in enumerate(self.images):
            for c in img:
                m[c, j] += 1
        return m

    def is_primitive(self) -> bool:
        """True iff some power M^k is entrywise positive.  By Wielandt's
        bound k = (n - 1)^2 + 1 suffices, and so does any larger k, so the
        0/1 pattern of M is squared until its exponent reaches that bound.
        The squares are float64 (BLAS) and exact: entries stay 0 or 1, so
        each sum is at most n."""
        n = self.n_letters
        p = np.minimum(self.count_matrix(), 1).astype(np.float64)
        k = 1
        while not p.all():
            if k >= (n - 1) ** 2 + 1:
                return False
            p = np.minimum(p @ p, 1.0)
            k *= 2
        return True

    def require_primitive(self):
        if not self.is_primitive():
            raise NotPrimitive("substitution has no positive matrix power")


#: named rules usable from the CLI; all primitive
BUILTIN_RULES: dict[str, SubstitutionRule] = {
    "thue-morse": SubstitutionRule(((0, 1), (1, 0))),
    "period-doubling": SubstitutionRule(((0, 1), (0, 0))),
    "fibonacci": SubstitutionRule(((0, 1), (0,))),
    "silver-mean": SubstitutionRule(((0, 0, 1), (0,))),
    "rudin-shapiro": SubstitutionRule(((0, 1), (0, 2), (3, 1), (3, 2))),
}


def parse_rule(text: str) -> SubstitutionRule:
    """Parse lines of the form ``a -> ab`` into a SubstitutionRule.

    Raises MalformedInput for text that is not such a rule.
    """
    try:
        raw: dict[str, str] = {}
        for line in data_lines(text):
            left, arrow, right = line.partition("->")
            src, dst = left.strip(), right.strip()
            if not arrow or len(src) != 1 or not dst:
                raise ValueError(f"bad rule line {line!r}")
            raw[src] = dst
        names = sorted(raw)
        if names != list(LETTER_NAMES[: len(names)]):
            raise ValueError(f"alphabet must be contiguous letters, got {names}")
        return SubstitutionRule(
            tuple(tuple(letter_id(c, len(names)) for c in raw[a]) for a in names)
        )
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def rule_by_name(name: str) -> SubstitutionRule:
    if name not in BUILTIN_RULES:
        raise ValueError(f"unknown rule {name!r}; known: {sorted(BUILTIN_RULES)}")
    return BUILTIN_RULES[name]


@dataclass(frozen=True, eq=False)
class SymbolicWindow:
    """A finite block x_lo ... x_hi of a sequence, indexed around an origin.

    letters holds nonnegative integer ids; weights maps each id to the
    complex value used when the window is read as a weighted comb.  The
    index origin must lie inside the window (lo <= 0 <= hi).  A window of
    fixed_point_window is a slice of one one-sided fixed point, with its
    origin where a copy of the fixed point's prefix starts.  A window is
    immutable: its fields cannot be reassigned and letters is a
    read-only int16 view of the array given (not a copy when that is
    int16 already, so it must not be written afterwards), so the word
    plans kept on it (word_plan, derived) stay valid.  It is hashed and
    compared by identity.
    """

    letters: np.ndarray
    lo: int
    weights: dict[int, complex] = field(default_factory=dict)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = np.asarray(self.letters)
        letters = ids.astype(np.int16, copy=False).view()
        letters.flags.writeable = False
        object.__setattr__(self, "letters", letters)
        if letters.ndim != 1 or len(letters) == 0:
            raise WindowTooShort("window needs at least one letter")
        if not (self.lo <= 0 <= self.hi):
            raise ValueError("index origin must lie inside the window")
        # checked before the cast, which would wrap an id past the int16 range
        low, high = int(ids.min()), int(ids.max())
        if low < 0 or high > _MAX_ID:
            bad = low if low < 0 else high
            raise ValueError(f"letter id {bad} outside 0..{_MAX_ID}")
        if not self.weights:
            present = np.zeros(high + 1, dtype=bool)
            present[letters] = True
            weights = {int(c): complex(1.0) for c in np.flatnonzero(present)}
            object.__setattr__(self, "weights", weights)

    @property
    def hi(self) -> int:
        return self.lo + len(self.letters) - 1

    def __len__(self) -> int:
        return len(self.letters)

    def weight_table(self) -> np.ndarray:
        """The weight of every id up to the largest letter, 0 where unweighted."""
        n = int(self.letters.max()) + 1
        table = np.zeros(n, dtype=np.complex128)
        for c, w in self.weights.items():
            if 0 <= c < n:
                table[c] = w
        return table

    def values(self) -> np.ndarray:
        """Complex weight sequence of the window."""
        return self.weight_table()[self.letters]

    def word_string(self) -> str:
        return word_name(self.letters)


#: the most letters _grow builds, the level-t words of all letters together
WINDOW_LIMIT = 2**31
COLLARED_LIMIT = 2**16  # the most letters collared holds, its words times ell


def _grow(rule: SubstitutionRule, letter: int, min_len: int) -> list[np.ndarray]:
    """image^t(a) as int16 letters for every letter a, for the least t
    that gives image^t(letter) at least min_len of them.

    The lengths come first, in Python ints from the image lengths, so a
    t whose words would hold more than WINDOW_LIMIT letters together
    raises OutOfRange before any array is made.  words[a] holds
    image^j(a) for every letter a, so one inflation step is
    image^(j+1)(a) = image^j(image(a)): the concatenation of the words
    of the letters of image(a).  No step reads single sites.
    """
    lengths, t = [1] * rule.n_letters, 0
    while lengths[letter] < min_len:
        lengths = [sum(lengths[c] for c in img) for img in rule.images]
        t += 1
    if sum(lengths) > WINDOW_LIMIT:
        raise OutOfRange(f"growing {min_len} letters builds words of {sum(lengths)} letters, "
                         f"over the limit of {WINDOW_LIMIT}")
    words = [np.array([a], dtype=np.int16) for a in range(rule.n_letters)]
    for _ in range(t):
        words = [np.concatenate([words[c] for c in img]) for img in rule.images]
    return words


def fixed_point_window(
    rule: SubstitutionRule,
    seed: int,
    min_len: int,
    weights: dict[int, complex] | None = None,
) -> SymbolicWindow:
    """A legal window of the one-sided fixed point u = lim image^n(seed).

    The right half (indices >= 0) is image^t(seed), the prefix of u for
    the least t that gives at least min_len letters.  With i the first
    position >= 1 where u holds the seed again, image^t(u[:i + 1]) is a
    prefix of u that ends in a copy of image^t(seed) at P =
    |image^t(u[:i])|; the left half is the min_len letters before it.
    The window is the slice u[P - min_len : P + |image^t(seed)|], legal
    by construction, with lo == -min_len.

    Raises NotAFixedPointSeed unless image(seed) starts with seed,
    NotPrimitive if the rule is not primitive, and OutOfRange when the
    words would pass WINDOW_LIMIT letters.
    """
    rule.require_primitive()
    if not 0 <= seed < rule.n_letters:
        raise ValueError(f"seed {seed} outside alphabet")
    if rule.image(seed)[0] != seed:
        raise NotAFixedPointSeed(
            f"image of {word_name([seed])} does not start with {word_name([seed])}"
        )
    if min_len < 1:
        raise ValueError("min_len must be positive")

    if len(rule.image(seed)) == 1:
        # only the one-letter identity rule reaches here for a primitive
        # substitution; its fixed point is the constant sequence
        if 2 * min_len > WINDOW_LIMIT:
            raise OutOfRange(f"{2 * min_len} letters, over the limit of {WINDOW_LIMIT}")
        letters = np.full(2 * min_len, seed, dtype=np.int16)
        return SymbolicWindow(letters, -min_len, weights or {})

    words = _grow(rule, seed, min_len)
    right = prefix = words[seed]
    while not (prefix[1:] == seed).any():
        # a min_len short of the first return: image^t(seed) stays the right half
        prefix = np.array(rule.apply(prefix.tolist()), dtype=np.int16)
    i = 1 + int(np.argmax(prefix[1:] == seed))
    # only the trailing words of image^t(u[:i]) that min_len letters need
    tail, need = [], min_len
    for c in reversed(prefix[:i].tolist()):
        tail.append(words[c])
        need -= len(words[c])
        if need <= 0:
            break
    left = np.concatenate(tail[::-1])[-min_len:]
    return SymbolicWindow(np.concatenate([left, right]), -min_len, weights or {})


def collared(rule: SubstitutionRule, ell: int) -> tuple[SubstitutionRule, np.ndarray]:
    """(sigma, words): the ell-block substitution sigma_ell of a primitive
    rule, whose letter k is row k of words, the legal words of length ell
    as a read-only int16 array in lexicographic order (as in WordPlan).

    sigma maps w to the ell-words of image(w) at its positions 0 ...
    |image(w_0)| - 1.  The words are the closure under sigma of the first
    ell letters of some image^t(0), so no window is read; a -> a never
    grows, and its sigma is the identity on a^ell.  Raises NotPrimitive,
    ValueError for ell < 1, and OutOfRange past COLLARED_LIMIT letters.
    """
    rule.require_primitive()
    if ell < 1:
        raise ValueError("ell must be positive")
    images: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    todo = [(0,) * ell if rule.images == ((0,),) else (0,)]
    while todo:
        word = todo.pop()
        if word in images:
            continue
        if (len(images) + 1) * ell > COLLARED_LIMIT:
            raise OutOfRange(f"the legal words of length {ell} hold more than "
                             f"{COLLARED_LIMIT} letters (COLLARED_LIMIT)")
        while len(word) < ell:  # only the start word, cut from image^t(0)
            word = rule.apply(word)[:ell]
        full = rule.apply(word)
        images[word] = [full[i : i + ell] for i in range(len(rule.image(word[0])))]
        todo += images[word]
    order = sorted(images)
    rank = {word: k for k, word in enumerate(order)}
    sigma = SubstitutionRule(tuple(tuple(rank[v] for v in images[w]) for w in order))
    words = np.array(order, dtype=np.int16)
    words.flags.writeable = False
    return sigma, words


def _ranks(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, counts) for nonnegative codes below size: ids[i] is the rank
    of codes[i] among the distinct codes in increasing order, and the
    code of rank k occurs counts[k] times.  A table indexed by the code
    ranks them in one pass; a code range over 4 len(codes) is sorted
    instead, so the table never outgrows the codes."""
    if size > 4 * len(codes):
        _, ids, counts = np.unique(codes, return_inverse=True, return_counts=True)
        return ids, counts
    counts = np.bincount(codes, minlength=size)
    present = np.flatnonzero(counts)
    rank = np.zeros(size, dtype=np.intp)
    rank[present] = np.arange(len(present))
    return rank[codes], counts[present]


def _column_ranks(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of an integer column, in
    increasing order, and their number (_ranks).  A range of at most
    4 len(col) values, its span taken in Python ints, is first shifted
    to start at 0 by one intp subtraction, exact since every difference
    lies in [0, span)."""
    lo, hi = (col.min(), col.max()) if len(col) else (0, -1)
    span = int(hi) - int(lo) + 1
    ids, counts = _ranks(np.subtract(col, lo, dtype=np.intp) if span <= 4 * len(col) else col, span)
    return ids, len(counts)


def row_ranks(columns, size: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, first, counts): ids[i] is the lexicographic rank of row i of
    equal-length integer columns; row k first occurs at first[k] and
    occurs counts[k] times.  With size, the columns hold codes below it
    (size times the row count below 2**63); else each column is ranked
    (_column_ranks).  Multiply-add codes are re-ranked (_ranks) whenever
    the next multiply could pass the row count, so none wraps int64.
    First sites are sought in the first _FIRST_ROWS rows, then in all."""
    columns, sizes = (zip(*map(_column_ranks, columns)) if size is None
                      else (columns, [size] * len(columns)))
    n = len(columns[0])
    codes, size = columns[0].astype(np.int64, copy=False), sizes[0]
    for col, base in zip(columns[1:], sizes[1:]):
        if size * base > n:
            codes, counts = _ranks(codes, size)
            size = len(counts)
        codes = codes * base + col
        size *= base
    ids, counts = _ranks(codes, size)
    first = np.full(len(counts), n, dtype=np.intp)
    for stop in (min(n, _FIRST_ROWS), n):
        np.minimum.at(first, ids[:stop], np.arange(stop))
        if first.max(initial=-1) < n:  # every row has met its first site
            break
    return ids, first, counts


def sliding_words(letters: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, first, counts): ids[i] is the lexicographic rank of the word
    letters[i : i + ell]; word k is letters[first[k] : first[k] + ell] and
    occurs counts[k] times.  The row_ranks of the ell shifted views of
    the letters, which are their own codes."""
    letters = np.asarray(letters)
    return row_ranks(np.lib.stride_tricks.sliding_window_view(letters, ell).T,
                     int(letters.max()) + 1)


def derived(sample, key, build):
    """The plan build() of an immutable sample under key, kept on the sample.

    The plans of a SymbolicWindow or PointSet1D live in its private
    _plans dict, read and written here only: the first call for a key
    builds, and every key stays while the sample lives.  The sample is
    immutable, so no plan goes stale, and a plan holds no reference to
    it, so it dies with it.  modelset.intensity_table_at builds the axis
    plan before its threads start; two callers that both miss a key
    build equal plans, so either may be kept.
    """
    plan = sample._plans.get(key)
    if plan is None:
        plan = sample._plans[key] = build()
    return plan


@dataclass(frozen=True)
class WordPlan:
    """The words of length ell of one window, from one sliding_words.

    ids[i] is the rank of the word at site i, in the narrowest unsigned
    dtype that holds the ranks; words is a read-only int16 array of one
    row per distinct word, in lexicographic order: row k is the word of
    rank k, which occurs counts[k] times.
    """

    ids: np.ndarray
    words: np.ndarray
    counts: np.ndarray

    def tuples(self) -> Iterator[tuple[int, ...]]:
        """The words as tuples, made on each call, column by column."""
        return zip(*self.words.T.tolist())


def _build_word_plan(letters: np.ndarray, ell: int) -> WordPlan:
    """The WordPlan of letters at length ell: each word is read at its first site."""
    ids, first, counts = sliding_words(letters, ell)
    words = letters[first[:, None] + np.arange(ell)]
    words.flags.writeable = False
    return WordPlan(ids.astype(np.min_scalar_type(len(counts) - 1)), words, counts)


def word_plan(window: SymbolicWindow, ell: int) -> WordPlan:
    """The plan of the window's words of length ell, built on the first call."""
    return derived(window, ell, lambda: _build_word_plan(window.letters, ell))


def dictionary(window: SymbolicWindow, max_len: int) -> set[tuple[int, ...]]:
    """All words of length 1..max_len occurring in the window."""
    return set(build_frequency_table(window, max_len).freqs)


def letter_frequencies_pf(rule: SubstitutionRule) -> np.ndarray:
    """Letter frequencies from the Perron-Frobenius eigenvector.

    Returns the right eigenvector of the count matrix for the largest
    eigenvalue, normalized to sum 1.  Requires primitivity.  For the
    sigma of collared(rule, ell), these are the frequencies of its words.
    """
    rule.require_primitive()
    m = rule.count_matrix().astype(float)
    vals, vecs = np.linalg.eig(m)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    return v / v.sum()


def word_occurrences(window: SymbolicWindow, word: tuple[int, ...]) -> int:
    """Number of positions of the window where ``word`` occurs."""
    ell = len(word)
    if ell == 0:
        raise ValueError("empty word")
    if ell > len(window):
        raise WindowTooShort("word longer than window")
    letters = window.letters
    hit = np.ones(len(letters) - ell + 1, dtype=bool)
    for j, c in enumerate(word):
        hit &= letters[j : j + len(hit)] == c
    return int(hit.sum())


def word_frequency_empirical(
    window: SymbolicWindow, word: tuple[int, ...]
) -> tuple[float, float]:
    """(frequency, error_bound): occurrences over admissible positions.

    The error bound len(word) / len(window) covers the boundary positions
    a longer sample could shift.
    """
    ell = len(word)
    count = word_occurrences(window, word)
    positions = len(window) - ell + 1
    return count / positions, ell / len(window)


@dataclass
class WordFrequencyTable:
    """Empirical frequencies of every word up to a maximal length."""

    freqs: dict[tuple[int, ...], float]


def build_frequency_table(window: SymbolicWindow, max_len: int) -> WordFrequencyTable:
    """word_frequency_empirical of every word of length 1..max_len, keys sorted."""
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if max_len > len(window):
        raise WindowTooShort(
            f"window of length {len(window)} has no words of length {max_len}"
        )
    freqs: dict[tuple[int, ...], float] = {}
    for ell in range(1, max_len + 1):
        plan = word_plan(window, ell)
        n = len(window) - ell + 1
        freqs.update(zip(plan.tuples(), (c / n for c in plan.counts.tolist())))
    return WordFrequencyTable(dict(sorted(freqs.items())))
