"""The text layer: one comment rule for every input file, one reader and
one writer of letters, one complex reader."""

import numpy as np
import pytest

from diffspec import cli
from diffspec.delone import PointSet1D
from diffspec.errors import MalformedInput, UnnamedLetter
from diffspec.factors import BlockMap, _parse_complex
from diffspec.modelset import silver_mean_chain
from diffspec.subshift import data_lines, letter_id, parse_rule, word_letters, word_name


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def commented(text: str) -> str:
    """text with a comment after every line, blank and comment lines between."""
    lines = [f"  {ln}\t# note {i}" if i % 2 else f"{ln}#note"
             for i, ln in enumerate(text.splitlines())]
    return "# head\n\n" + "\n   \n# between\n".join(lines) + "\n# tail\n"


class TestDataLines:
    def test_cuts_strips_and_drops(self):
        text = "# c\n\n  a -> ab  # x\r\nb -> a#\n   \t\n#\n"
        assert list(data_lines(text)) == ["a -> ab", "b -> a"]

    def test_breaks_lines_as_splitlines(self):
        text = "a\rb\x0cc\r\nd e\n"
        assert list(data_lines(text)) == text.splitlines()

    def test_is_lazy(self):
        lines = data_lines("pointset exact\n" + "0 0 1 0\n" * 10)
        assert next(lines) == "pointset exact"


class TestEveryReaderSkipsComments:
    def test_rule(self):
        text = "a -> aab\nb -> ba\n"
        assert parse_rule(commented(text)) == parse_rule(text)

    def test_block_map(self):
        text = "offset -1 length 2\naa -> 1\nab -> 0.5-0.25i\nba -> -i\n* -> 0\n"
        assert BlockMap.parse(commented(text)) == BlockMap.parse(text)

    def test_window(self, capsys, tmp_path):
        plain, noted = tmp_path / "plain.txt", tmp_path / "noted.txt"
        plain.write_text("window lo -4 letters 8\nabaababa\n")
        noted.write_text(commented(plain.read_text()))
        argv = ["autocorr", "--weights", "a=1,b=-1", "--lags", "2", "--in"]
        want = run(capsys, argv + [str(plain)])
        assert want[0] == 0
        assert run(capsys, argv + [str(noted)]) == want

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_point_set(self, exact):
        chain = silver_mean_chain(20)
        if not exact:
            chain = PointSet1D(chain.coords, chain.weights)
        text = chain.serialize()
        plain, noted = PointSet1D.parse(text), PointSet1D.parse(commented(text))
        assert np.array_equal(plain.coords, noted.coords)
        assert np.array_equal(plain.weights, noted.weights)
        assert (plain.exact is None) == (noted.exact is None) == (not exact)
        if exact:
            assert np.array_equal(plain.exact, noted.exact)

    def test_config(self, capsys, tmp_path):
        plain, noted = tmp_path / "plain.cfg", tmp_path / "noted.cfg"
        plain.write_text("lags=5\nweights=a=1,b=-1\nlen=64\n")
        noted.write_text(commented(plain.read_text()))
        want = run(capsys, ["autocorr", "--rule", "thue-morse", "--config", str(plain)])
        assert want[0] == 0 and want[1].count("\n") == 12
        assert run(capsys, ["autocorr", "--rule", "thue-morse", "--config", str(noted)]) == want

    def test_source_kind_is_the_first_data_word(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("  # pointset\n\nwindow lo -1 letters 2 # pointset\nab\n")
        assert run(capsys, ["gen", "--in", str(path)]) == (0, "window lo -1 letters 2\nab\n", "")


class TestLetters:
    @pytest.mark.parametrize("name", ["ab", "", "=", "z", "A", " a"])
    def test_letter_id_takes_one_letter_of_the_alphabet(self, name):
        with pytest.raises(MalformedInput, match="unknown letter"):
            letter_id(name, 2)

    def test_letter_ids_and_names_round_trip(self):
        assert [letter_id(c, 26) for c in "abz"] == [0, 1, 25]
        assert word_name((0, 1, 25)) == "abz"
        assert word_name(word_letters("abaab")) == "abaab"
        assert word_name(()) == ""

    @pytest.mark.parametrize("ids, bad", [((0, 26), 26), ((-1, 3), -1), ((300,), 300)])
    def test_an_id_past_the_26_names_is_refused(self, ids, bad):
        with pytest.raises(UnnamedLetter, match=f"letter id {bad} has no name.*26 letters"):
            word_name(ids)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--rule", "thue-morse", "--len", "16", "--weights", "ab=1"],
            ["gen", "--rule", "thue-morse", "--len", "16", "--weights", "=1"],
            ["gen", "--rule", "thue-morse", "--len", "16", "--weights", "a=1,ab=5"],
            ["gen", "--rule", "thue-morse", "--len", "16", "--seed-letter", "ab"],
            ["gen", "--rule", "thue-morse", "--len", "16", "--seed-letter", ""],
        ],
        ids=["weights-ab", "weights-empty", "weights-second-ab", "seed-ab", "seed-empty"],
    )
    def test_a_letter_that_is_not_one_letter_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown letter") and err.count("\n") == 1


class TestComplexValues:
    @pytest.mark.parametrize(
        "text, value",
        [("1", 1), ("-i", -1j), ("0.5-0.25i", 0.5 - 0.25j), ("2j", 2j), ("(1+2i)", 1 + 2j),
         (" ( 1+2i ) ", 1 + 2j), ("1e3", 1000)],
    )
    def test_i_or_j_as_the_unit(self, text, value):
        assert _parse_complex(text) == value

    # abs() of the last raises OverflowError
    @pytest.mark.parametrize("text", ["inf", "-inf", "infi", "nan", "1.7e308+1.7e308i"])
    def test_a_weight_that_is_not_finite_exits_2(self, capsys, text):
        argv = ["gen", "--rule", "thue-morse", "--len", "16", "--weights", f"a={text},b=1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: weight value {text!r} is not finite or above 1e+100\n"
