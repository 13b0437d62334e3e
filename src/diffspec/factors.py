"""Sliding block maps and the factors they induce.

A block map g reads the word x_{n+m} ... x_{n+m+l-1} of a sequence x and
emits one complex value; sliding it over x gives the factor sequence
(Phi_g x)(n) = g(x restricted to the block at n).  Every such map
commutes with the shift, which is what makes the induced map a factor
map between subshifts.

Tables are keyed by letter-id words.  A map may carry a default output
for words missing from its table (used by indicator maps, where all but
one word go to 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedInput, MissingTableEntry, OutOfRange, WindowTooShort
from .subshift import _MAX_ID, SymbolicWindow, data_lines, word_letters, word_plan


def _parse_complex(s: str) -> complex:
    """A complex number in Python syntax whose imaginary unit is i or j."""
    s = s.strip()
    body = s.removesuffix(")").rstrip()
    if body.endswith("i"):
        s = body[:-1] + "j" + s[len(body):]
    return complex(s)


@dataclass
class BlockMap:
    """A local rule of window length ``length`` anchored at ``offset``.

    table maps words (tuples of source letter ids) to complex outputs.
    If ``default`` is None, applying the map to a word without a table
    entry raises MissingTableEntry; otherwise the default value is used.
    Table values and the default are stored as complex numbers.
    """

    offset: int
    length: int
    table: dict[tuple[int, ...], complex]
    default: complex | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("block length must be positive")
        for w in self.table:
            if len(w) != self.length:
                raise ValueError(f"table word {w} has wrong length")
        self.table = {w: complex(v) for w, v in self.table.items()}
        if self.default is not None:
            self.default = complex(self.default)

    @classmethod
    def parse(cls, text: str) -> "BlockMap":
        """Read a block map; MalformedInput for anything else.

        The text is a header line ``offset O length L``, then one line
        ``WORD -> VALUE`` per table word of L letters, then optionally
        ``* -> VALUE``, the default for every other word.  VALUE is a
        complex number in Python syntax whose imaginary unit is i or j.
        """
        try:
            lines = list(data_lines(text))
            if not lines or not lines[0].startswith("offset"):
                raise ValueError("block map file must start with an offset header")
            head = lines[0].split()
            if len(head) != 4 or head[2] != "length":
                raise ValueError(f"bad header {lines[0]!r}")
            offset, length = int(head[1]), int(head[3])
            table: dict[tuple[int, ...], complex] = {}
            default: complex | None = None
            for ln in lines[1:]:
                left, arrow, right = ln.partition("->")
                if not arrow:
                    raise ValueError(f"bad table line {ln!r}")
                src = left.strip()
                val = _parse_complex(right)
                if src == "*":
                    default = val
                    continue
                if len(src) != length:
                    raise ValueError(f"word {src!r} does not match length {length}")
                table[tuple(word_letters(src).tolist())] = val
            return cls(offset, length, table, default)
        except ValueError as exc:
            raise MalformedInput(str(exc)) from exc


def identity_map(window: SymbolicWindow) -> BlockMap:
    """The one-letter map sending each letter to its window weight."""
    table = {(c,): complex(w) for c, w in window.weights.items()}
    return BlockMap(0, 1, table)


def xor_map() -> BlockMap:
    """g(x0, x1) = x0 XOR x1 on a two-letter alphabet."""
    table = {
        (0, 0): 0.0 + 0j,
        (0, 1): 1.0 + 0j,
        (1, 0): 1.0 + 0j,
        (1, 1): 0.0 + 0j,
    }
    return BlockMap(0, 2, table)


def indicator_block_map(word: tuple[int, ...], offset: int = 0) -> BlockMap:
    """The indicator 1_{word, offset}: outputs 1 exactly on ``word``."""
    if len(word) == 0:
        raise ValueError("empty word")
    return BlockMap(offset, len(word), {tuple(word): 1.0 + 0j}, default=0.0 + 0j)


def apply_block_map(window: SymbolicWindow, g: BlockMap) -> SymbolicWindow:
    """Slide g over the window; the result is the factor-image window.

    Output index n is defined when the whole block [n + offset,
    n + offset + length - 1] lies inside the window, so the result
    shrinks by length - 1 letters and shifts by -offset.
    """
    out_lo = window.lo - g.offset
    out_hi = window.hi - g.offset - (g.length - 1)
    if out_hi < out_lo:
        raise WindowTooShort("window shorter than the block length")
    if not (out_lo <= 0 <= out_hi):
        raise WindowTooShort("factor image does not cover the index origin")

    plan = word_plan(window, g.length)
    vals = [g.table.get(w, g.default) for w in plan.tuples()]
    missing = sum(v is None for v in vals)
    if missing:
        raise MissingTableEntry(f"{missing} block words without table entry")

    # output ids number the distinct table values, then the default, in
    # (re, im) order; the set keeps a table value over an equal default
    outputs = sorted({*g.table.values(), *([] if g.default is None else [g.default])},
                     key=lambda z: (z.real, z.imag))
    if len(outputs) > _MAX_ID + 1:
        raise OutOfRange(f"block map has {len(outputs)} distinct outputs, "
                         f"more than the {_MAX_ID + 1} letter ids of a window")
    ids = {v: i for i, v in enumerate(outputs)}
    lookup = np.array([ids[v] for v in vals], dtype=np.int16)
    return SymbolicWindow(lookup.take(plan.ids), out_lo, dict(enumerate(outputs)))


def evaluate_at(window: SymbolicWindow, g: BlockMap, n: int) -> complex:
    """g on the block of the window anchored at n, read off window.letters.

    IndexError where the block leaves the window; MissingTableEntry
    where its word has no table entry and g has no default.
    """
    i = n + g.offset - window.lo
    if i < 0 or i + g.length > len(window):
        raise IndexError(f"block at {n} outside [{window.lo}, {window.hi}]")
    word = tuple(window.letters[i : i + g.length].tolist())
    out = g.table.get(word, g.default)
    if out is None:
        raise MissingTableEntry(f"no entry for word {word}")
    return out


@dataclass
class EquivarianceReport:
    """Outcome of checking Phi_g(S^t x) == S^t Phi_g(x) over a shift range."""

    ok: bool
    shifts_checked: list[int]
    first_violation: tuple[int, int] | None
    max_abs_dev: float


def verify_factor_equivariance(
    window: SymbolicWindow,
    g: BlockMap,
    shifts: range | list[int],
    reference: SymbolicWindow | None = None,
) -> EquivarianceReport:
    """Check (Phi_g S^t x)(n) == (Phi_g x)(n + t) for each shift t.

    ``reference`` is the factor image Phi_g x, by default
    apply_block_map(window, g).  The left side is evaluate_at, one block
    read through g's table, so the check compares the image's sliding
    lookup with a second algorithm.  S^t only relabels the sites: the
    block of S^t x at n is the block of x at n + t, so the left side is
    read off the window's own letters, and no shifted window is built.
    Only the shifts whose shifted window and image both still cover the
    origin are checked, at most one per site of the window however many
    shifts are asked for.  The first of them reads 9 sites of the
    reference, spaced evenly over the part both images cover, both ends
    included; each later shift t reads those sites turned cyclically by
    t minus the first shift, so that each shift reads other sites.
    Violations, a nan deviation among them, are reported, never raised.
    """
    if reference is None:
        reference = apply_block_map(window, g)
    ref_vals = reference.values()
    # the image of S^t x covers n in [img_lo - t, img_hi - t]
    img_lo = window.lo - g.offset
    img_hi = window.hi - g.offset - (g.length - 1)
    t_lo, t_hi = max(window.lo, img_lo), min(window.hi, img_hi)
    checked = [t for t in range(t_lo, t_hi + 1) if t in shifts]
    # reference sites n + t that both Phi_g x and the image of S^t x cover
    r_lo, r_hi = max(img_lo, reference.lo), min(img_hi, reference.hi)
    span = r_hi - r_lo
    first: tuple[int, int] | None = None
    max_dev = 0.0
    for t in checked:
        if span < 0:
            break
        turn = t - checked[0]
        for r in sorted({r_lo + (span * j // 8 + turn) % (span + 1) for j in range(9)}):
            # (Phi_g S^t x)(r - t) reads the block of x at r: S^t only relabels
            d = abs(evaluate_at(window, g, r) - ref_vals[r - reference.lo])
            max_dev = float(np.maximum(max_dev, d))  # a nan deviation stays
            if not d <= 1e-12 and first is None:
                first = (t, r - t)
    return EquivarianceReport(first is None, checked, first, max_dev)
