"""Sliding block maps and the factors they induce.

A block map g reads the word x_{n+m} ... x_{n+m+l-1} of a sequence x and
emits one complex value; sliding it over x gives the factor sequence
(Phi_g x)(n) = g(x restricted to the block at n).  Every such map
commutes with the shift by construction (Curtis-Hedlund-Lyndon), which
is what makes the induced map a factor map between subshifts; so what
check_block_image checks is not that, but that the image built by the
vectorised lookup agrees with g read block by block.

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
    """The one-letter map sending each letter of the window to its weight.

    Its table holds the letters present, an unweighted one at weight 0 as
    in SymbolicWindow.weight_table; weights of absent letters are left out.
    """
    weights = window.weight_table()
    present = np.flatnonzero(np.bincount(window.letters)).tolist()
    return BlockMap(0, 1, {(c,): weights[c] for c in present})


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


# the most image sites check_block_image compares: at one dictionary
# lookup per site, all 131 071 sites of the xor image of a 2^16 Thue-Morse
# window took 75 ms, ten times the rest of `factor`, and 4096 sites 2.3 ms
# (2-core VM)
IMAGE_SAMPLE = 4096


@dataclass
class BlockCheck:
    """Outcome of comparing a factor image with its blocks read one by one."""

    ok: bool
    sites: int
    first_site: int | None
    max_abs_dev: float


def check_block_image(window: SymbolicWindow, g: BlockMap, image: SymbolicWindow) -> BlockCheck:
    """Compare the image of the window under g with g read block by block.

    ``image`` is apply_block_map(window, g), passed in so that the window
    is imaged once.  The other side reads each compared block as a tuple
    of letters off the window and looks it up in g's table: no word
    plan, word ids or lookup array, so the vectorised route is checked
    against a second algorithm.  Every site is compared when the image
    has at most IMAGE_SAMPLE sites; a longer image is compared at both
    ends and at IMAGE_SAMPLE - 2 sites between them drawn by
    np.random.default_rng(0), so the outcome is deterministic.  The two
    sides must agree exactly; a disagreement, a nan value among them, is
    reported at the first such site, never raised.  IndexError where an
    image site's block leaves the window; MissingTableEntry where a
    compared block has no table entry and g has no default.
    """
    n = len(image)
    start = image.lo + g.offset - window.lo  # window index of the block at image.lo
    if start < 0 or start + n + g.length - 1 > len(window):
        raise IndexError(f"image sites [{image.lo}, {image.hi}] read blocks "
                         f"outside the window [{window.lo}, {window.hi}]")
    if n <= IMAGE_SAMPLE:
        sites = np.arange(n)
    else:
        inner = np.random.default_rng(0).choice(n - 2, IMAGE_SAMPLE - 2, replace=False)
        sites = np.concatenate(([0], np.sort(inner) + 1, [n - 1]))
    blocks = np.lib.stride_tricks.sliding_window_view(window.letters, g.length)[start + sites]
    want = [g.table.get(tuple(b), g.default) for b in blocks.tolist()]
    if None in want:
        raise MissingTableEntry(f"no entry for word {tuple(blocks[want.index(None)].tolist())}")
    dev = np.abs(np.array(want, dtype=complex) - image.values()[sites])
    bad = np.flatnonzero(dev != 0)  # nan included
    first = image.lo + int(sites[bad[0]]) if len(bad) else None
    return BlockCheck(first is None, len(sites), first, float(dev.max()))
