"""Point-set text I/O against the per-line code it replaced.

reference_serialize and reference_parse below are the earlier per-line
implementations of PointSet1D.serialize and PointSet1D.parse, with float
coordinates written to 17 significant digits as serialize now does, so
that every double round-trips.  On every
file the old code accepted, the array code must give the same bytes and
bit-identical arrays; the malformed cases must raise MalformedInput and
name the offending line.
"""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffspec.delone import PointSet1D, exact_coords
from diffspec.errors import MalformedInput
from diffspec.modelset import silver_mean_chain


def reference_serialize(ps: PointSet1D) -> str:
    buf = io.StringIO()
    mode = "exact" if ps.exact is not None else "float"
    pr = ps.packing_radius
    pr_s = "inf" if np.isinf(pr) else f"{pr:.12g}"
    buf.write(f"pointset {mode} packing_radius {pr_s}\n")
    lead = ps.exact.tolist() if ps.exact is not None else ps.coords.tolist()
    for x, w in zip(lead, ps.weights.tolist()):
        x_s = f"{x[0]} {x[1]}" if ps.exact is not None else f"{x:.17g}"
        buf.write(f"{x_s} {w.real:.12g} {w.imag:.12g}\n")
    return buf.getvalue()


def reference_parse(text: str) -> PointSet1D:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if not head or head[0] != "pointset":
        raise MalformedInput("point set file must start with a pointset header")
    if len(head) < 2 or head[1] not in ("exact", "float"):
        raise MalformedInput("pointset header needs mode 'exact' or 'float'")
    exact_mode = head[1] == "exact"
    n_fields = 4 if exact_mode else 3
    rows, coords, weights = [], [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n_fields:
            raise MalformedInput(f"point line {ln!r} needs {n_fields} fields")
        try:
            if exact_mode:
                rows.append([int(parts[0]), int(parts[1])])
            else:
                coords.append(float(parts[0]))
            weights.append(complex(float(parts[-2]), float(parts[-1])))
        except ValueError as exc:
            raise MalformedInput(f"bad number in point line {ln!r}") from exc
    if not exact_mode:
        return PointSet1D(np.array(coords), np.array(weights))
    try:
        exact = np.array(rows, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise MalformedInput("exact coordinate outside the int64 range") from exc
    return PointSet1D(exact_coords(exact), np.array(weights), exact)


def assert_bit_identical(got: PointSet1D, want: PointSet1D):
    assert got.coords.dtype == want.coords.dtype
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tobytes() == want.weights.tobytes()
    if want.exact is None:
        assert got.exact is None
    else:
        assert got.exact.dtype == want.exact.dtype and got.exact.shape == want.exact.shape
        assert got.exact.tobytes() == want.exact.tobytes()


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -2.5e-310,
           2.2250738585072014e-308, 1.0, -1.0, 0.1, 123456789.123456789]
REALS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def weights(draw, n):
    re = draw(st.lists(REALS, min_size=n, max_size=n))
    im = draw(st.lists(REALS, min_size=n, max_size=n))
    w = np.empty(n, dtype=np.complex128)
    w.real = re
    w.imag = im
    return w


@st.composite
def float_sets(draw):
    xs = draw(st.lists(st.floats(-1e300, 1e300), max_size=30, unique=True))
    xs = np.unique(np.array(xs, dtype=float))
    return PointSet1D(xs, draw(weights(len(xs))))


@st.composite
def exact_sets(draw):
    small = st.integers(-1000, 1000)
    ab = draw(st.lists(st.tuples(st.one_of(small, INT64), st.one_of(small, INT64)),
                       max_size=30))
    exact = np.array(ab, dtype=np.int64).reshape(-1, 2)
    x = exact_coords(exact)
    _, first = np.unique(x, return_index=True)  # sorted, one row per distinct float
    exact = exact[first]
    return PointSet1D(exact_coords(exact), draw(weights(len(exact))), exact)


POINT_SETS = st.one_of(float_sets(), exact_sets())


class TestAgainstPerLineCode:
    @settings(max_examples=300, deadline=None)
    @given(ps=POINT_SETS)
    def test_serialize_is_byte_equal(self, ps):
        assert ps.serialize() == reference_serialize(ps)

    @settings(max_examples=300, deadline=None)
    @given(ps=POINT_SETS)
    def test_parse_of_serialize_is_bit_identical(self, ps):
        text = ps.serialize()
        back = PointSet1D.parse(text)
        assert_bit_identical(back, reference_parse(text))
        assert back.coords.tobytes() == ps.coords.tobytes()
        if ps.exact is not None:
            assert back.exact.tobytes() == ps.exact.tobytes()

    def test_coordinates_equal_to_twelve_digits_stay_distinct(self):
        # 12 significant digits wrote both as -1e+300, and the file then
        # failed to parse ("coordinates must increase")
        x = np.array([-1e300, np.nextafter(-1e300, 0)])
        ps = PointSet1D(x, np.ones(2, dtype=complex))
        text = ps.serialize()
        assert text == reference_serialize(ps)
        back = PointSet1D.parse(text)
        assert back.coords.tobytes() == x.tobytes()
        assert_bit_identical(back, reference_parse(text))

    def test_silver_chain_file(self):
        ps = silver_mean_chain(3000)
        text = ps.serialize()
        assert text == reference_serialize(ps)
        assert_bit_identical(PointSet1D.parse(text), reference_parse(text))

    def test_float_chain_file(self):
        ps = silver_mean_chain(3000)
        ps = PointSet1D(ps.coords, ps.weights * (0.3 - 1.7j))
        text = ps.serialize()
        assert text == reference_serialize(ps)
        assert_bit_identical(PointSet1D.parse(text), reference_parse(text))


EXACT_HEAD = "pointset exact packing_radius 0.5\n"
FLOAT_HEAD = "pointset float packing_radius 0.5\n"
GOOD = ["0 0 1 0", "1 0 1 0", "0 1 1 0", "2 0 1 0", "3 0 1 0"]


def exact_text(bad_line: str, k: int) -> str:
    """An exact file whose line k (1-based, header is line 1) is bad_line."""
    body = GOOD[: k - 2] + [bad_line] + GOOD[k - 2 :]
    return EXACT_HEAD + "\n".join(body) + "\n"


class TestMalformed:
    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("bad", ["9 0 1", "9 0 1 0 0"])
    def test_wrong_field_count_names_line(self, bad, k):
        with pytest.raises(MalformedInput, match=rf"^line {k}: "):
            PointSet1D.parse(exact_text(bad, k))

    @pytest.mark.parametrize("bad", ["9 0.5 1 0", "1e3 0 1 0", "99999999999999999999 0 1 0",
                                     "0 -99999999999999999999 1 0", "x 0 1 0", "9 0 1 y"])
    def test_bad_exact_number_names_line(self, bad):
        with pytest.raises(MalformedInput, match=r"^line 3: .*int64"):
            PointSet1D.parse(exact_text(bad, 3))

    def test_float_file_with_four_fields(self):
        with pytest.raises(MalformedInput, match=r"^line 3: "):
            PointSet1D.parse(FLOAT_HEAD + "0 1 0\n1 1 0 0\n")

    @pytest.mark.parametrize("body, line", [("0 1 0\n0 1 0\n", 3),
                                            ("0 1 0\n# c\n\n-1 1 0\n", 5)])
    def test_unsorted_coordinates_name_line(self, body, line):
        with pytest.raises(MalformedInput, match=rf"^line {line}: coordinates must increase"):
            PointSet1D.parse(FLOAT_HEAD + body)

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_line(self, x):
        with pytest.raises(MalformedInput, match=r"^line 4: coordinate is not finite"):
            PointSet1D.parse(FLOAT_HEAD + f"0 1 0\n\n{x} 1 0\n")

    @pytest.mark.parametrize("text", ["", "\n# c\n", "0 1 0\n", "points float\n"])
    def test_missing_header(self, text):
        with pytest.raises(MalformedInput, match="header"):
            PointSet1D.parse(text)

    @pytest.mark.parametrize("head", ["pointset\n", "pointset floats\n", "pointset # exact\n"])
    def test_header_without_mode(self, head):
        with pytest.raises(MalformedInput, match="mode"):
            PointSet1D.parse(head + "0 1 0\n")


class TestLayout:
    @pytest.mark.parametrize("text", [EXACT_HEAD, "pointset exact", EXACT_HEAD + "\n# c\n  \n",
                                      FLOAT_HEAD + "# only comments\n"])
    def test_empty_body_gives_no_points_and_no_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = PointSet1D.parse(text)
        assert len(ps) == 0 and ps.weights.shape == (0,)
        if "exact" in text:
            assert ps.exact.shape == (0, 2)
        else:
            assert ps.exact is None

    def test_comments_and_blank_lines(self):
        clean = silver_mean_chain(40).serialize()
        lines = clean.splitlines()
        noisy = ["# made by hand", "", lines[0] + "  # header comment", "   "]
        for i, ln in enumerate(lines[1:]):
            noisy.append(ln + ("  # point" if i % 3 == 0 else ""))
            if i % 5 == 0:
                noisy += ["", "# between points", "\t"]
        assert_bit_identical(PointSet1D.parse("\n".join(noisy)), PointSet1D.parse(clean))

    def test_crlf(self):
        for ps in (silver_mean_chain(40), PointSet1D([0.0, 0.25, 2.0], [1, -1j, 0.5])):
            text = ps.serialize()
            assert_bit_identical(PointSet1D.parse(text.replace("\n", "\r\n")),
                                 PointSet1D.parse(text))

    def test_weights_with_inf_imaginary_part_keep_real_part(self):
        ps = PointSet1D.parse(FLOAT_HEAD + "0 1.5 inf\n1 nan -inf\n")
        assert ps.weights[0].real == 1.5 and ps.weights[0].imag == math.inf
        assert math.isnan(ps.weights[1].real) and ps.weights[1].imag == -math.inf
