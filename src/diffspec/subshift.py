"""Primitive substitutions and the finite windows of their fixed points.

A substitution maps every letter of a finite alphabet to a nonempty word
over the same alphabet.  When the substitution is primitive (some power
of its letter-count matrix is entrywise positive), every letter generates
the same minimal subshift, all words occur with well-defined frequencies,
and the letter frequencies are the entries of the normalized right
Perron-Frobenius eigenvector of the count matrix.

Letters are small integer ids internally.  Names like ``a``, ``b`` only
appear at the text boundary (rule files, CLI output).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedInput, NotAFixedPointSeed, NotPrimitive, WindowTooShort

LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"
_LETTER_BYTES = np.frombuffer(LETTER_NAMES.encode("ascii"), dtype=np.uint8)


def letter_name(i: int) -> str:
    return LETTER_NAMES[i]


def letter_id(name: str, n_letters: int) -> int:
    i = LETTER_NAMES.find(name)
    if i < 0 or i >= n_letters:
        raise ValueError(f"unknown letter {name!r}")
    return i


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

    def apply_power(self, word: tuple[int, ...], k: int) -> tuple[int, ...]:
        w = tuple(word)
        for _ in range(k):
            w = self.apply(w)
        return w

    def count_matrix(self) -> np.ndarray:
        """M[i, j] = number of occurrences of letter i in the image of j."""
        n = self.n_letters
        m = np.zeros((n, n), dtype=np.int64)
        for j, img in enumerate(self.images):
            for c in img:
                m[c, j] += 1
        return m

    def is_primitive(self) -> bool:
        """True iff some power M^k (k <= n^2) is entrywise positive."""
        m = self.count_matrix()
        n = self.n_letters
        p = np.minimum(m, 1)
        acc = p.copy()
        for _ in range(n * n):
            if np.all(acc > 0):
                return True
            acc = np.minimum(acc @ p, 1)
        return bool(np.all(acc > 0))

    def require_primitive(self):
        if not self.is_primitive():
            raise NotPrimitive("substitution has no positive matrix power")

    def legal_pairs(self) -> set[tuple[int, int]]:
        """All two-letter words of the subshift.

        Computed as the closure of the pairs inside letter images under
        inflation: a pair (u, v) contributes the pairs inside image(u),
        inside image(v), and the crossing pair (last of image(u),
        first of image(v)).
        """
        if self.n_letters == 1:
            return {(0, 0)}
        pairs: set[tuple[int, int]] = set()
        for img in self.images:
            for x, y in zip(img, img[1:]):
                pairs.add((x, y))
        changed = True
        while changed:
            changed = False
            for u, v in list(pairs):
                iu, iv = self.images[u], self.images[v]
                candidates = [(iu[-1], iv[0])]
                candidates += list(zip(iu, iu[1:]))
                candidates += list(zip(iv, iv[1:]))
                for c in candidates:
                    if c not in pairs:
                        pairs.add(c)
                        changed = True
        return pairs

    def first_letter_map(self) -> list[int]:
        return [img[0] for img in self.images]

    def last_letter_map(self) -> list[int]:
        return [img[-1] for img in self.images]


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
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            left, arrow, right = line.partition("->")
            if not arrow:
                raise ValueError(f"bad rule line {line!r}")
            src = left.strip()
            dst = right.strip()
            if len(src) != 1 or not dst:
                raise ValueError(f"bad rule line {line!r}")
            raw[src] = dst
        names = sorted(raw)
        expect = [LETTER_NAMES[i] for i in range(len(names))]
        if names != expect:
            raise ValueError(f"alphabet must be contiguous letters, got {names}")
        n = len(names)
        images = tuple(
            tuple(letter_id(c, n) for c in raw[LETTER_NAMES[i]]) for i in range(n)
        )
        return SubstitutionRule(images)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def rule_by_name(name: str) -> SubstitutionRule:
    if name not in BUILTIN_RULES:
        raise ValueError(f"unknown rule {name!r}; known: {sorted(BUILTIN_RULES)}")
    return BUILTIN_RULES[name]


@dataclass
class SymbolicWindow:
    """A finite block x_lo ... x_hi of a bi-infinite sequence.

    letters holds integer ids; weights maps each id to the complex value
    used when the window is read as a weighted comb.  The index origin
    must lie inside the window (lo <= 0 <= hi).
    """

    letters: np.ndarray
    lo: int
    weights: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.letters = np.asarray(self.letters, dtype=np.int16)
        if self.letters.ndim != 1 or len(self.letters) == 0:
            raise WindowTooShort("window needs at least one letter")
        if not (self.lo <= 0 <= self.hi):
            raise ValueError("index origin must lie inside the window")
        if not self.weights:
            self.weights = {int(c): complex(1.0) for c in np.unique(self.letters)}

    @property
    def hi(self) -> int:
        return self.lo + len(self.letters) - 1

    def __len__(self) -> int:
        return len(self.letters)

    def letter(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside [{self.lo}, {self.hi}]")
        return int(self.letters[n - self.lo])

    def subword(self, n: int, length: int) -> tuple[int, ...]:
        if n < self.lo or n + length - 1 > self.hi:
            raise IndexError("subword outside window")
        i = n - self.lo
        return tuple(int(c) for c in self.letters[i : i + length])

    def values(self) -> np.ndarray:
        """Complex weight sequence of the window."""
        n = int(self.letters.max()) + 1
        table = np.zeros(n, dtype=np.complex128)
        for c, w in self.weights.items():
            if c < n:
                table[c] = w
        return table[self.letters]

    def shifted(self, t: int) -> "SymbolicWindow":
        """The window of the t-fold shifted sequence: (S^t x)_n = x_{n+t}."""
        return SymbolicWindow(self.letters, self.lo - t, dict(self.weights))

    def with_weights(self, weights: dict[int, complex]) -> "SymbolicWindow":
        return SymbolicWindow(self.letters, self.lo, dict(weights))

    def word_string(self) -> str:
        return _LETTER_BYTES[self.letters].tobytes().decode("ascii")


def _left_seed(rule: SubstitutionRule, seed: int) -> tuple[int, int]:
    """Choose a letter p and power k with image^k(p) ending in p and
    the pair (p, seed) legal.

    Taking k with an idempotent last-letter iterate, any legal
    predecessor q of the seed yields p = g^k(q): the pair (p, seed) is
    the crossing pair of image^k(q . seed), hence legal.
    """
    g = rule.last_letter_map()

    def g_pow(x: int, k: int) -> int:
        for _ in range(k):
            x = g[x]
        return x

    n = rule.n_letters
    k = 0
    for cand in range(1, 6 * max(n, 2) + 1):
        if all(g_pow(g_pow(x, cand), cand) == g_pow(x, cand) for x in range(n)):
            k = cand
            break
    if k == 0:
        raise NotPrimitive("no idempotent power of the last-letter map")
    preds = sorted(q for (q, s) in rule.legal_pairs() if s == seed)
    if not preds:
        raise NotAFixedPointSeed(f"letter {seed} has no legal predecessor")
    p = g_pow(preds[0], k)
    return p, k


def fixed_point_window(
    rule: SubstitutionRule,
    seed: int,
    min_len: int,
    weights: dict[int, complex] | None = None,
) -> SymbolicWindow:
    """A legal two-sided window of the fixed point starting with ``seed``.

    The right half (indices >= 0) is a prefix of the one-sided fixed
    point lim image^n(seed), grown until it has at least min_len letters.
    The left half is grown the same way from a compatible left seed under
    a power of the substitution, so every finite subword of the returned
    window is an inflation image of a legal word.

    Raises NotAFixedPointSeed unless image(seed) starts with seed, and
    NotPrimitive if the rule is not primitive.
    """
    rule.require_primitive()
    if not 0 <= seed < rule.n_letters:
        raise ValueError(f"seed {seed} outside alphabet")
    if rule.image(seed)[0] != seed:
        raise NotAFixedPointSeed(
            f"image of {letter_name(seed)} does not start with {letter_name(seed)}"
        )
    if min_len < 1:
        raise ValueError("min_len must be positive")

    if len(rule.image(seed)) == 1:
        # only the one-letter identity rule reaches here for a primitive
        # substitution; its fixed point is the constant sequence
        letters = np.full(2 * min_len, seed, dtype=np.int16)
        return SymbolicWindow(letters, -min_len, weights or {})

    right: tuple[int, ...] = (seed,)
    while len(right) < min_len:
        right = rule.apply(right)

    p, k = _left_seed(rule, seed)
    left: tuple[int, ...] = (p,)
    while len(left) < min_len:
        left = rule.apply_power(left, k)

    letters = np.array(left + right, dtype=np.int16)
    return SymbolicWindow(letters, -len(left), weights or {})


def sliding_words(letters: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, first, counts): ids[i] is the lexicographic rank of the word
    letters[i : i + ell]; word k is letters[first[k] : first[k] + ell] and
    occurs counts[k] times.  Base-b multiply-add codes are re-ranked
    (order-preserving np.unique) whenever the next multiply could pass
    len(letters): no int64 wrap, no array sized by b**ell."""
    letters = np.asarray(letters, dtype=np.int64)
    base = int(letters.max()) + 1
    codes = letters[: len(letters) - ell + 1]
    for j in range(1, ell):
        if (int(codes.max()) + 1) * base > len(letters):
            codes = np.unique(codes, return_inverse=True)[1]
        codes = codes * base + letters[j : j + len(codes)]
    _, first, ids, counts = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    return ids, first, counts


def dictionary(window: SymbolicWindow, max_len: int) -> set[tuple[int, ...]]:
    """All words of length 1..max_len occurring in the window."""
    return set(build_frequency_table(window, max_len).freqs)


def letter_frequencies_pf(rule: SubstitutionRule) -> np.ndarray:
    """Letter frequencies from the Perron-Frobenius eigenvector.

    Returns the right eigenvector of the count matrix for the largest
    eigenvalue, normalized to sum 1.  Requires primitivity.
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

    max_len: int
    freqs: dict[tuple[int, ...], float]
    error_bound: float

    def frequency(self, word: tuple[int, ...]) -> float:
        from .errors import DiffspecError

        if word not in self.freqs:
            raise DiffspecError(f"no entry for word {word}")
        return self.freqs[word]


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
        _, first, counts = sliding_words(window.letters, ell)
        words = np.lib.stride_tricks.sliding_window_view(window.letters, ell)[first]
        n = len(window) - ell + 1
        freqs.update((tuple(w), c / n) for w, c in zip(words.tolist(), counts.tolist()))
    return WordFrequencyTable(max_len, dict(sorted(freqs.items())), max_len / len(window))
