"""Array local-pattern code against the per-point loops it replaced.

The reference functions below are the earlier loop implementations of
K-cluster enumeration, locator sets, cluster frequencies, word
dictionaries, frequency tables and block maps.  The array versions must
reproduce them exactly: every comparison is ==, never a tolerance.  The
one exception is the offsets of float clusters, which are sums of gap
class minima: they are == a loop computing those sums, and lie within
len(offsets) * MERGE_TOL of the loops' merged offsets.
"""

import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.delone import (
    MERGE_TOL,
    Cluster,
    ClusterFrequency,
    PointSet1D,
    _chain,
    _class_of,
    _interior_indices,
    cluster_frequency,
    enumerate_k_clusters,
    locator_set,
)
from diffspec import subshift
from diffspec.errors import IncompatibleCluster, MissingTableEntry
from diffspec.factors import (
    BlockMap,
    apply_block_map,
    identity_map,
    indicator_block_map,
    xor_map,
)
from diffspec.modelset import FourierModuleElement, intensity_at, silver_mean_chain
from diffspec.subshift import (
    BUILTIN_RULES,
    SymbolicWindow,
    WordFrequencyTable,
    build_frequency_table,
    dictionary,
    fixed_point_window,
    row_ranks,
    sliding_words,
    word_frequency_empirical,
    word_plan,
)

K_RADII = (0.5, 1.0, 1.1, 1.0 + math.sqrt(2.0), 2.5, 3.5, 6.0)


# --- reference: the per-point loops ---------------------------------------


def ref_offsets_at(ps, i, k_radius):
    x = ps.coords
    lo = int(np.searchsorted(x, x[i] - k_radius - MERGE_TOL, side="left"))
    hi = int(np.searchsorted(x, x[i] + k_radius + MERGE_TOL, side="right"))
    return x[lo:hi] - x[i], slice(lo, hi)


def ref_exact_key(ex, i, sl):
    a0, b0 = ex[i]
    return tuple((a - a0, b - b0) for a, b in ex[sl])


def ref_canonical_key(offsets, merged):
    idx = np.searchsorted(merged, offsets)
    idx = np.clip(idx, 0, len(merged) - 1)
    left = np.clip(idx - 1, 0, len(merged) - 1)
    use_left = np.abs(merged[left] - offsets) < np.abs(merged[idx] - offsets)
    idx = np.where(use_left, left, idx)
    return tuple(int(i) for i in idx)


def ref_enumerate_k_clusters(ps, k_radius):
    idx = _interior_indices(ps, k_radius)
    if ps.exact is not None:
        ex = ps.exact.tolist()
        table = {}
        for i in idx:
            offs, sl = ref_offsets_at(ps, int(i), k_radius)
            key = ref_exact_key(ex, int(i), sl)
            if key in table:
                c, n = table[key]
                table[key] = (c, n + 1)
            else:
                c = Cluster(k_radius, tuple(float(z) for z in offs), key)
                table[key] = (c, 1)
        return sorted(table.values(), key=lambda cn: cn[0].offsets)

    all_offs = []
    for i in idx:
        offs, _ = ref_offsets_at(ps, int(i), k_radius)
        all_offs.append(offs)
    flat = np.sort(np.concatenate(all_offs))
    keep = np.concatenate([[True], np.diff(flat) > MERGE_TOL]) if len(flat) else []
    merged = flat[keep]
    table2 = {}
    for offs in all_offs:
        key = ref_canonical_key(offs, merged)
        if key in table2:
            c, n = table2[key]
            table2[key] = (c, n + 1)
        else:
            c = Cluster(k_radius, tuple(float(merged[i]) for i in key))
            table2[key] = (c, 1)
    return sorted(table2.values(), key=lambda cn: cn[0].offsets)


def ref_locator_set(ps, cluster):
    k_radius = cluster.k_radius
    idx = _interior_indices(ps, k_radius)
    want = np.asarray(cluster.offsets)
    hits = []
    if ps.exact is not None and cluster.exact_offsets is not None:
        ex = ps.exact.tolist()
        want_exact = cluster.exact_offsets
        for i in idx:
            offs, sl = ref_offsets_at(ps, int(i), k_radius)
            if sl.stop - sl.start != len(want_exact):
                continue
            if ref_exact_key(ex, int(i), sl) == want_exact:
                hits.append(int(i))
    else:
        for i in idx:
            offs, _ = ref_offsets_at(ps, int(i), k_radius)
            if len(offs) == len(want) and np.all(np.abs(offs - want) <= MERGE_TOL):
                hits.append(int(i))
    sel = np.asarray(hits, dtype=np.intp)
    exact = ps.exact[sel] if ps.exact is not None else None
    return PointSet1D(ps.coords[sel], np.ones(len(sel), dtype=np.complex128), exact)


def ref_cluster_frequency(ps, cluster):
    t = ref_locator_set(ps, cluster)
    idx = _interior_indices(ps, cluster.k_radius)
    span = float(ps.coords[idx[-1]] - ps.coords[idx[0]])
    return ClusterFrequency(len(t) / span, len(t) / len(idx), len(t))


def ref_dictionary(window, max_len):
    letters = window.letters
    words = set()
    for ell in range(1, max_len + 1):
        for i in range(len(letters) - ell + 1):
            words.add(tuple(int(c) for c in letters[i : i + ell]))
    return words


def ref_build_frequency_table(window, max_len):
    words = ref_dictionary(window, max_len)
    freqs = {w: word_frequency_empirical(window, w)[0] for w in sorted(words)}
    return WordFrequencyTable(freqs)


def ref_apply_block_map(window, g):
    out_lo = window.lo - g.offset
    n = len(window.letters)
    ell = g.length
    base = int(window.letters.max()) + 1
    codes = np.zeros(n - ell + 1, dtype=np.int64)
    for j in range(ell):
        codes = codes * base + window.letters[j : j + len(codes)]
    code_to_val = {}
    for w, v in g.table.items():
        c = 0
        for x in w:
            c = c * base + x
        code_to_val[c] = v
    uniq = np.unique(codes)
    missing = [int(c) for c in uniq if int(c) not in code_to_val]
    if missing and g.default is None:
        raise MissingTableEntry(f"{len(missing)} block words without table entry")
    outs = set(g.table.values())
    if g.default is not None:
        outs.add(complex(g.default))
    ids = {v: i for i, v in enumerate(sorted(outs, key=lambda z: (z.real, z.imag)))}
    id_of_code = np.zeros(int(uniq.max()) + 1, dtype=np.int16)
    for c in uniq:
        id_of_code[int(c)] = ids[complex(code_to_val.get(int(c), g.default))]
    out_weights = {i: complex(v) for v, i in ids.items()}
    return SymbolicWindow(id_of_code[codes], out_lo, out_weights)


# --- point sets -------------------------------------------------------------


def _chain_exact():
    return silver_mean_chain(1200)


def _chain_float():
    return PointSet1D(silver_mean_chain(1200).coords)


def _chain_jittered():
    x = silver_mean_chain(1200).coords
    rng = np.random.default_rng(7)
    return PointSet1D(x + rng.uniform(-1e-11, 1e-11, len(x)))


def _lattice_float():
    return PointSet1D(np.arange(300, dtype=float))


def _lattice_exact():
    a = np.arange(-150, 150, dtype=np.int64)
    return PointSet1D(a.astype(float), exact=np.stack([a, np.zeros_like(a)], axis=1))


POINT_SETS = {
    "chain-exact": _chain_exact,
    "chain-float": _chain_float,
    "chain-jittered": _chain_jittered,
    "lattice-float": _lattice_float,
    "lattice-exact": _lattice_exact,
}


@pytest.fixture(scope="module", params=sorted(POINT_SETS))
def point_set(request):
    return POINT_SETS[request.param]()


def _assert_same_points(got, want):
    assert np.array_equal(got.coords, want.coords)
    assert np.array_equal(got.weights, want.weights)
    if want.exact is None:
        assert got.exact is None
    else:
        assert got.exact.dtype == want.exact.dtype
        assert np.array_equal(got.exact, want.exact)


def ref_class_minima(ps):
    """The smallest gap of each gap's class: sorted gaps, a new class
    wherever one lies more than MERGE_TOL above the one before."""
    gaps = np.diff(ps.coords).tolist()
    low, prev = {}, None
    for g in sorted(gaps):
        if prev is None or g - prev > MERGE_TOL:
            start = g
        low[g], prev = start, g
    return [low[g] for g in gaps]


def ref_class_offsets(ps, i, k_radius, minima):
    """The window of point i as sums of class minima, outward from i."""
    _, sl = ref_offsets_at(ps, i, k_radius)
    left, right, acc = [], [0.0], 0.0
    for j in range(i, sl.stop - 1):
        acc += minima[j]
        right.append(acc)
    acc = 0.0
    for j in range(i - 1, sl.start - 1, -1):
        acc += minima[j]
        left.append(-acc)
    return tuple(left[::-1] + right)


def _assert_matches_loops(ps, k_radius, n_located=None):
    """Exact sets: == the loops throughout.  Float sets: the loops' counts,
    order, locator sets and frequencies; offsets == the sums of class
    minima, and within len(offsets) * MERGE_TOL of the loops' merged
    offsets."""
    got = enumerate_k_clusters(ps, k_radius)
    want = ref_enumerate_k_clusters(ps, k_radius)
    assert [n for _, n in got] == [n for _, n in want]
    if ps.exact is not None:
        assert [c.offsets for c, _ in got] == [c.offsets for c, _ in want]
        assert [c.exact_offsets for c, _ in got] == [c.exact_offsets for c, _ in want]
        assert got == want
    else:
        minima = ref_class_minima(ps)
        for (c, _), (w, _) in zip(got, want):
            first = int(np.searchsorted(ps.coords, ref_locator_set(ps, w).coords[0]))
            assert c.offsets == ref_class_offsets(ps, first, k_radius, minima)
            assert c.exact_offsets is None and c.k_radius == w.k_radius
            dev = np.abs(np.subtract(c.offsets, w.offsets)).max()
            assert dev <= len(c.offsets) * MERGE_TOL
    for (cluster, n), (ref, _) in list(zip(got, want))[:n_located]:
        loc = locator_set(ps, cluster)
        _assert_same_points(loc, ref_locator_set(ps, ref))
        _assert_same_points(loc, ref_locator_set(ps, cluster))
        assert len(loc) == n
        assert cluster_frequency(ps, cluster) == ref_cluster_frequency(ps, ref)


@pytest.mark.parametrize("k_radius", K_RADII)
def test_clusters_locators_and_frequencies_match_loops(point_set, k_radius):
    _assert_matches_loops(point_set, k_radius)


@pytest.mark.parametrize("make", [_chain_exact, _chain_jittered])
def test_wide_windows_match_loops(make):
    _assert_matches_loops(make(), 30.0, n_located=3)


def test_float_cluster_against_exact_points_matches_loop():
    """A cluster without exact offsets is matched by float offsets, also on
    a point set that has exact coordinates."""
    ps = _chain_exact()
    for cluster, _ in enumerate_k_clusters(PointSet1D(ps.coords), 1.1):
        _assert_same_points(locator_set(ps, cluster), ref_locator_set(ps, cluster))


def test_absent_cluster_matches_loop():
    ps = _chain_jittered()
    absent = Cluster(1.1, (-0.5, 0.0, 0.5))
    assert len(locator_set(ps, absent)) == 0
    _assert_same_points(locator_set(ps, absent), ref_locator_set(ps, absent))


def test_gaps_within_merge_tolerance_share_a_class():
    """Gaps 1, 1 + s, 1 + 2s, 1 + 4s with s = 2**-30 < 1e-9: the first
    three chain-merge into one class, 1 + 4s (2s above 1 + 2s) opens its
    own, and every cluster is located as often as it is enumerated."""
    s = 2.0**-30
    gaps = np.tile([1.0, 1.0 + s, 1.0 + 2 * s, 1.0 + 4 * s, 1.0 + 2 * s], 12)
    ps = PointSet1D(np.concatenate([[0.0], np.cumsum(gaps)]))
    lows, highs = _chain(ps.gaps(), None, (), MERGE_TOL)[:2]
    assert _class_of(lows, ps.gaps()).tolist() == [0, 0, 0, 1, 0] * 12
    assert lows.tolist() == [1.0, 1.0 + 4 * s]
    assert highs.tolist() == [1.0 + 2 * s, 1.0 + 4 * s]
    assert ps.distinct_gaps().tolist() == [1.0, 1.0 + 4 * s]
    for k_radius in (1.1, 2.1):
        found = enumerate_k_clusters(ps, k_radius)
        assert sum(n for _, n in found) == len(_interior_indices(ps, k_radius))
        for cluster, n in found:
            assert len(locator_set(ps, cluster)) == n
            assert cluster_frequency(ps, cluster).count == n


@pytest.mark.parametrize("make", [_chain_exact, _chain_float])
def test_negative_radius_rejected_like_loop(make):
    ps = make()
    with pytest.raises(IncompatibleCluster):
        ref_enumerate_k_clusters(ps, -1.0)
    with pytest.raises(IncompatibleCluster):
        enumerate_k_clusters(ps, -1.0)


# --- words ------------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(BUILTIN_RULES))
def rule_window(request):
    return fixed_point_window(BUILTIN_RULES[request.param], 0, 300)


@pytest.mark.parametrize("max_len", range(1, 7))
def test_dictionary_and_frequency_table_match_loops(rule_window, max_len):
    assert dictionary(rule_window, max_len) == ref_dictionary(rule_window, max_len)
    got = build_frequency_table(rule_window, max_len)
    want = ref_build_frequency_table(rule_window, max_len)
    assert list(got.freqs.items()) == list(want.freqs.items())
    assert all(type(f) is float for f in got.freqs.values())


def test_block_maps_match_loop(rule_window):
    letters = sorted(int(c) for c in np.unique(rule_window.letters))
    maps = [identity_map(rule_window)]
    for ell in range(1, 7):
        ids, first, _ = sliding_words(rule_window.letters, ell)
        for f in first[:: max(1, len(first) // 4)]:
            word = tuple(int(c) for c in rule_window.letters[f : f + ell])
            maps.append(indicator_block_map(word, offset=-(ell // 2)))
    if letters == [0, 1]:
        w0_xor_w2 = {w: float(w[0] ^ w[2]) for w in itertools.product((0, 1), repeat=3)}
        maps += [xor_map(), BlockMap(0, 3, w0_xor_w2)]
    for g in maps:
        got = apply_block_map(rule_window, g)
        want = ref_apply_block_map(rule_window, g)
        assert np.array_equal(got.letters, want.letters)
        assert (got.lo, got.weights) == (want.lo, want.weights)


def test_missing_entry_raises_like_loop():
    window = fixed_point_window(BUILTIN_RULES["thue-morse"], 0, 64)
    g = BlockMap(0, 2, {(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(MissingTableEntry, match="2 block words") as want:
        ref_apply_block_map(window, g)
    with pytest.raises(MissingTableEntry) as got:
        apply_block_map(window, g)
    assert str(got.value) == str(want.value)


def ref_sliding_words(letters, ell):
    """The same ranks from np.unique: one sort of the codes per re-rank."""
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


@pytest.mark.parametrize("name, half", [("fibonacci", 75025), ("rudin-shapiro", 2**17)])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 8, 20])
def test_sliding_words_match_sorted_ranks(name, half, ell):
    letters = fixed_point_window(BUILTIN_RULES[name], 0, half).letters
    for got, want in zip(sliding_words(letters, ell), ref_sliding_words(letters, ell)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_letters", [2, 300, 5000, 30000])
def test_sliding_words_on_wide_alphabets_match_sorted_ranks(n_letters):
    """Sparse codes, where a table by code would outgrow the letters: a
    table over 30000 letters times 3000 words would take gigabytes."""
    letters = np.random.default_rng(n_letters).integers(0, n_letters, 3000)
    for ell in (1, 2, 3, 6):
        tracemalloc.start()
        try:
            got = sliding_words(letters, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        for mine, want in zip(got, ref_sliding_words(letters, ell)):
            assert np.array_equal(mine, want)


@pytest.mark.parametrize("ell", [1, 2, 3, 7, 20, 40])
def test_sliding_words_ids_first_and_counts(rule_window, ell):
    letters = rule_window.letters
    ids, first, counts = sliding_words(letters, ell)
    blocks = [tuple(letters[i : i + ell].tolist()) for i in range(len(letters) - ell + 1)]
    distinct = sorted(set(blocks))
    rank = {w: k for k, w in enumerate(distinct)}
    assert ids.tolist() == [rank[w] for w in blocks]
    assert first.tolist() == [blocks.index(w) for w in distinct]
    assert counts.tolist() == [blocks.count(w) for w in distinct]


# --- row ranks: the one encoder of every local pattern ----------------------

EXTREMES = {
    np.int64: [-(2**63), -(2**62), -1, 0, 1, 2**62, 2**63 - 1],
    np.uint64: [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1],
}
SPECIAL_WEIGHTS = [0.0, -0.0, complex(-0.0, -0.0), 1.0, 0.5 - 2j, math.nan,
                   complex(1.0, math.nan), math.inf, -math.inf]


@st.composite
def integer_columns(draw):
    """(columns, size): 1-4 equal-length int64 or uint64 columns whose rows
    repeat, with values spanning past int64, as codes below a drawn size,
    or as the two uint64 halves of complex weights."""
    n_rows = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["sized", "int64", "uint64", "weights"]))
    if kind == "weights":
        pool = st.sampled_from(SPECIAL_WEIGHTS) | st.complex_numbers(allow_nan=True)
        weights = np.array(draw(st.lists(pool, min_size=n_rows, max_size=n_rows)), complex)
        return list(weights.view(np.uint64).reshape(-1, 2).T), None
    n_cols = draw(st.integers(1, 4))
    if kind == "sized":
        size = draw(st.integers(1, 50) | st.sampled_from([2**31, 2**40]))
        dtype, values = np.int64, st.integers(0, size - 1)
    else:
        size, dtype = None, getattr(np, kind)
        info = np.iinfo(dtype)
        values = (st.sampled_from(EXTREMES[dtype]) | st.integers(0, 5)
                  | st.integers(int(info.min), int(info.max)))
    distinct = draw(st.lists(st.tuples(*[values] * n_cols), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=n_rows, max_size=n_rows))
    return list(np.array(rows, dtype=dtype).reshape(n_rows, n_cols).T), size


@settings(max_examples=300, deadline=None)
@given(integer_columns(), st.sampled_from([0, 1, 3, subshift._FIRST_ROWS]))
def test_row_ranks_are_the_row_ranks_of_np_unique(columns_size, first_rows):
    """Ranks, first rows and counts as np.unique over whole rows gives them,
    with and without size, and whether or not each row's first site lies
    in the rows searched first."""
    columns, size = columns_size
    _, first, ids, counts = np.unique(
        np.stack(columns, axis=1), axis=0,
        return_index=True, return_inverse=True, return_counts=True)
    with mock.patch.object(subshift, "_FIRST_ROWS", first_rows):
        for got in [row_ranks(columns)] + ([row_ranks(columns, size)] if size else []):
            assert [a.tolist() for a in got] == [ids.tolist(), first.tolist(), counts.tolist()]


def test_row_ranks_find_rows_first_met_past_the_first_rows():
    col = np.zeros(subshift._FIRST_ROWS + 3, dtype=np.int64)
    col[-2:] = [2, 1]
    ids, first, counts = row_ranks([col], 3)
    assert (ids[-2:].tolist(), first.tolist(), counts.tolist()) == (
        [2, 1], [0, len(col) - 1, len(col) - 2], [len(col) - 2, 1, 1])


# --- word plans: one encoding per (window, length) -------------------------


def test_table_and_all_indicator_images_encode_each_length_once(monkeypatch):
    calls = []

    def counting(letters, ell):
        calls.append(ell)
        return sliding_words(letters, ell)

    monkeypatch.setattr(subshift, "sliding_words", counting)
    fib = fixed_point_window(BUILTIN_RULES["fibonacci"], 0, 2**12)
    table = build_frequency_table(fib, 4)
    words = list(table.freqs)
    assert len(words) == 14
    for i in np.random.default_rng(33).permutation(len(words)):
        apply_block_map(fib, indicator_block_map(words[i]))
    assert dictionary(fib, 4) == set(words)
    assert sorted(calls) == [1, 2, 3, 4]
    assert all(word_plan(fib, ell).ids.dtype == np.uint8 for ell in range(1, 5))


def block_value(window, g, n):
    """g on the block of the window anchored at n, its word read as one tuple."""
    i = n + g.offset - window.lo
    return g.table.get(tuple(window.letters[i : i + g.length].tolist()), g.default)


@pytest.mark.parametrize("name", sorted(BUILTIN_RULES))
def test_plan_images_and_tables_match_plan_free_routes(name):
    window = fixed_point_window(BUILTIN_RULES[name], 0, 100)
    for ell in (3, 1, 4, 2):  # interleaved, so later lengths meet kept plans
        got = build_frequency_table(window, ell)
        want = ref_build_frequency_table(window, ell)
        assert list(got.freqs.items()) == list(want.freqs.items())
        for word in got.freqs:
            g = indicator_block_map(word, offset=-(len(word) // 2))
            image = apply_block_map(window, g)
            values = image.values()
            sites = range(image.lo, image.hi + 1)
            assert [values[n - image.lo] for n in sites] == [
                block_value(window, g, n) for n in sites
            ]


def test_window_is_immutable():
    window = fixed_point_window(BUILTIN_RULES["thue-morse"], 0, 64)
    with pytest.raises(ValueError):
        window.letters[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        window.lo = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        window.letters = np.zeros(4, dtype=np.int16)
    # hashed and compared by identity: an equal copy is another window
    twin = SymbolicWindow(window.letters, window.lo, dict(window.weights))
    assert window == window and twin != window
    assert len({window, twin}) == 2


def test_plans_die_with_their_window():
    """Word plans stay on their window, cluster and axis plans on their
    point set, and each plan goes with its sample."""
    window = fixed_point_window(BUILTIN_RULES["fibonacci"], 0, 512)
    apply_block_map(window, xor_map())
    build_frequency_table(window, 3)
    assert sorted(window._plans) == [1, 2, 3]
    ps = silver_mean_chain(500)
    enumerate_k_clusters(ps, 1.1)
    intensity_at(ps, FourierModuleElement(1, 1), 100.0)
    assert list(ps._plans) == [(1.1, True), "axes"]
    refs = [weakref.ref(sample) for sample in (window, ps)]
    refs.append(weakref.ref(word_plan(window, 2)))
    refs.append(weakref.ref(ps._plans[(1.1, True)]))
    del window, ps
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
