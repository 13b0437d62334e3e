"""Fuzzed command lines: every run exits 0 or 2 and never shows a traceback.

gen, autocorr, diffract and modelset check no property, so exit 1 (a
property violation, reserved for suites and checks) must not occur
either.  Sizes stay small; the numbers include negatives, 0, inf and nan.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from diffspec import cli

NUMBER = st.sampled_from(
    ["-3", "-1", "-0.5", "0", "0.25", "1", "2.5", "3", "7", "inf", "-inf", "nan", "1e300"]
)
SMALL_INT = st.sampled_from(["-5", "-1", "0", "1", "2", "3", "8", "40"])
# sizes valid more often than not, so that runs reach the numerical code
SIZE = st.one_of(st.sampled_from(["16", "40", "64"]), SMALL_INT)
RULES = st.sampled_from(
    ["thue-morse", "period-doubling", "fibonacci", "silver-mean", "rudin-shapiro", "nope"]
)


def number_list(min_size=1, max_size=4):
    return st.lists(NUMBER, min_size=min_size, max_size=max_size).map(",".join)


@st.composite
def sources(draw):
    """A symbolic or point-set source, always small."""
    if draw(st.booleans()):
        argv = ["--silver-mean", "--points", draw(SIZE)]
    else:
        argv = ["--rule", draw(RULES), "--len", draw(SIZE)]
        if draw(st.booleans()):
            argv += ["--seed-letter", draw(st.sampled_from(["a", "b", "z"]))]
    if draw(st.booleans()):
        weights = draw(st.lists(st.tuples(st.sampled_from("abq"), NUMBER), max_size=3))
        argv += ["--weights=" + ",".join(f"{c}={v}" for c, v in weights)]
    return argv


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["gen", "autocorr", "diffract", "modelset"]))
    if command == "modelset":
        argv = ["modelset", "--points", draw(SIZE)]
        argv += draw(optional("--k", number_list(1, 3)))
        argv += draw(optional("--box", number_list(1, 4)))
        if draw(st.booleans()):
            argv.append("--inflate")
        return argv
    argv = [command] + draw(sources())
    if command == "autocorr":
        argv += draw(optional("--lags", SMALL_INT))
        argv += draw(optional("--zmax", NUMBER))
        argv += draw(optional("--merge-tol", NUMBER))
    elif command == "diffract":
        n_flags = draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))  # exactly one is valid
        flags = draw(st.lists(st.sampled_from(
            ["candidates", "dyadic", "module-box", "sobol", "kronecker"]),
            min_size=n_flags, max_size=n_flags, unique=True))
        for flag in flags:
            value = number_list() if flag in ("candidates", "module-box") else SMALL_INT
            argv.append(f"--{flag}={draw(value)}")
        argv += draw(optional("--schedule", number_list(1, 4)))
        argv += draw(optional("--rel-tol", NUMBER))
        argv += draw(optional("--min-intensity", NUMBER))
        argv += draw(optional("--fejer", SMALL_INT))
        argv += draw(optional("--threads", st.sampled_from(["-1", "0", "1", "2"])))
    return argv


@st.composite
def diffract_lines(draw):
    """diffract on a valid source with one candidate flag; the numbers are fuzzed."""
    if draw(st.booleans()):
        argv = ["diffract", "--silver-mean", "--points", draw(st.sampled_from(["40", "200"]))]
    else:
        rule = draw(st.sampled_from(["thue-morse", "period-doubling", "rudin-shapiro"]))
        argv = ["diffract", "--rule", rule, "--len", draw(st.sampled_from(["16", "64"]))]
    flag = draw(st.sampled_from(["candidates", "dyadic", "module-box", "sobol", "kronecker"]))
    value = number_list() if flag in ("candidates", "module-box") else SMALL_INT
    argv.append(f"--{flag}={draw(value)}")
    argv += draw(optional("--schedule", number_list(3, 4)))
    argv += draw(optional("--rel-tol", NUMBER))
    argv += draw(optional("--min-intensity", NUMBER))
    argv += draw(optional("--fejer", SMALL_INT))
    argv += draw(optional("--threads", st.sampled_from(["-1", "0", "1", "2"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(command_lines(), diffract_lines()))
def test_fuzzed_command_lines_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", str(Path(tmp) / "out.txt")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip(), argv


HEADS = {
    "exact": ["pointset exact packing_radius 0.5", "pointset exact",
              "# comment\n\npointset exact"],
    "float": ["pointset float packing_radius 0.5", "pointset float # comment",
              "pointset floats"],
}
TOKENS = st.sampled_from(
    ["0", "1", "-1", "2", "0.5", "-0.0", "1e3", "inf", "-inf", "nan", "1e300", "5e-324",
     "99999999999999999999", "-9223372036854775808", "x", "#", "# c", ""]
)


@st.composite
def point_lines(draw, mode, i):
    """Point line i of a file in this mode; now and then a line of random tokens."""
    if draw(st.integers(0, 9)) == 0:
        return " ".join(draw(st.lists(TOKENS, max_size=5)))
    w = f"{draw(NUMBER)} {draw(NUMBER)}"
    if mode == "exact":
        return f"{i} {draw(st.sampled_from(['0', '1', '-1']))} {w}"
    return f"{draw(st.sampled_from([0.7, 1.3, 1e300])) * i:.12g} {w}"


@st.composite
def pointset_files(draw):
    """A point-set file of 0 to 12 points, with blank, comment and noise lines."""
    mode = draw(st.sampled_from(["exact", "float"]))
    lines = [draw(st.sampled_from(HEADS[mode] + ["pointset"]))]
    for i in range(draw(st.integers(0, 12))):
        lines.append(draw(point_lines(mode, i)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=pointset_files(), command=st.sampled_from(["modelset", "freq"]), data=st.data())
def test_fuzzed_pointset_files_exit_0_or_2(text, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.txt"
        path.write_bytes(text.encode())
        argv = [command, "--in", str(path), "--out", str(Path(tmp) / "out.txt")]
        if command == "modelset":
            argv += data.draw(st.sampled_from(
                [[], ["--k=1,1"], ["--box=2,1,1"], ["--inflate"]]))
        else:
            argv += data.draw(optional("--k-radius", NUMBER))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 2), (text, argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: "), (text, argv)
