"""Fuzzed command lines: every run exits 0, 1 or 2 and never shows a traceback.

gen, autocorr, diffract, freq and modelset check no property, so exit 1
(a property violation, reserved for suites and checks) must not occur
for them; factor and verify may exit 1.  Sizes stay small; the numbers
include negatives, 0, inf and nan.  Sizes too large for memory, up to
1e18, run only in a child process whose address space is capped.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from diffspec import cli
from diffspec.correlation import PAIR_LIMIT
from diffspec.spectral import CANDIDATE_LIMIT
from diffspec.subshift import WINDOW_LIMIT
from diffspec.verify import SMOOTHING_GRID_LIMIT, SUITE_NAMES

NUMBER = st.sampled_from(
    ["-3", "-1", "-0.5", "0", "0.25", "1", "2.5", "3", "7", "inf", "-inf", "nan", "1e300"]
)
SMALL_INT = st.sampled_from(["-5", "-1", "0", "1", "2", "3", "8", "40"])
# sizes valid more often than not, so that runs reach the numerical code
SIZE = st.one_of(st.sampled_from(["16", "40", "64"]), SMALL_INT)
RULES = st.sampled_from(
    ["thue-morse", "period-doubling", "fibonacci", "silver-mean", "rudin-shapiro", "nope"]
)
MAPS = st.sampled_from(["identity", "xor", "indicator:ab", "indicator:", "indicator:z", "nope"])
# chain lengths of the verify suites: mostly the short chains whose extent,
# or that of their inflated factor, is 0 or too small for a cluster
POINTS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "6", "40"])


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
    command = draw(st.sampled_from(["gen", "autocorr", "diffract", "freq", "modelset"]))
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
    elif command == "freq":
        argv += draw(optional("--maxlen", SMALL_INT))
        argv += draw(optional("--k-radius", NUMBER))
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


# the flags each verify suite reads: its size flag first, then the others
SUITE_FLAGS = {
    "dual-route": [("--len", SIZE), ("--rule", RULES), ("--g", MAPS), ("--lags", SMALL_INT)],
    "word-freq": [("--len", SIZE), ("--rule", RULES), ("--maxlen", SMALL_INT)],
    "smoothing": [("--points", POINTS), ("--eps", NUMBER)],
    "inflation": [("--points", POINTS)],
    "extinction": [("--points", POINTS)],
}


@st.composite
def check_lines(draw):
    """factor and verify, the commands that check a property, on small sizes.

    verify draws only flags its suites read, and always their size flags
    (--len, --points, or both for all), so that no suite runs at its
    default size.
    """
    if draw(st.booleans()):
        argv = ["factor"] + draw(sources())
        argv += draw(optional("--g", MAPS))
        argv += draw(optional("--shifts", SMALL_INT))
        return argv
    suite = draw(st.sampled_from(SUITE_NAMES + ("all",)))
    names = SUITE_NAMES if suite == "all" else (suite,)
    flags = dict(flag for name in names for flag in SUITE_FLAGS[name])
    argv = ["verify", suite]
    for flag, values in flags.items():
        if flag in ("--len", "--points"):
            argv.append(f"{flag}={draw(values)}")
        else:
            argv += draw(optional(flag, values))
    return argv


def run_in_process(argv):
    """Exit code and stderr of the CLI on argv, its output to a scratch file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", str(Path(tmp) / "out.txt")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    event(f"{argv[0]} exit {code}")
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(command_lines(), diffract_lines()))
def test_fuzzed_command_lines_exit_0_or_2(argv):
    code, err = run_in_process(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.strip(), argv


@settings(max_examples=200, deadline=None)
@given(argv=check_lines())
def test_fuzzed_check_lines_exit_0_1_or_2(argv):
    code, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert " reads no " not in err  # every flag drawn is one its suites read
    if code == 2:
        assert err.strip(), argv


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


def limited_run(argv, limit=1536 << 20, timeout=120):
    """The CLI in a child process whose address space is capped at limit bytes.

    One BLAS thread keeps the child's own address space small.
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    package = Path(cli.__file__).resolve().parent
    path = [str(package.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "diffspec.cli"] + argv, env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ["gen", "--rule", "thue-morse", "--len", str(10**14)],
    ["diffract", "--rule", "thue-morse", "--len", "64", "--sobol", str(10**10)],
])
def test_sizes_too_large_for_memory_exit_2(argv, tmp_path):
    # only ever under the address-space cap: uncapped, the first line
    # takes all the memory of the machine
    done = limited_run(argv + ["--out", str(tmp_path / "out.txt")])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--rule", "thue-morse", "--len", str(10**14)],
    ["gen", "--silver-mean", "--points", str(10**11)],
])
def test_windows_past_the_limit_exit_2_naming_it(argv, tmp_path):
    # the size is checked before any array is made; the cap only guards
    # against a check that is not there
    done = limited_run(argv + ["--out", str(tmp_path / "out.txt")])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"over the limit of {WINDOW_LIMIT}" in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["--sobol", str(10**10)], f"over the limit of {CANDIDATE_LIMIT}"),
    (["--kronecker", str(10**10)], f"over the limit of {CANDIDATE_LIMIT}"),
    (["--dyadic", "2", "--fejer", str(10**18)], f"cannot support max_lag {10**18}"),
], ids=["sobol", "kronecker", "fejer"])
def test_candidate_counts_and_lags_past_the_limit_exit_2(argv, message, tmp_path):
    # candidate counts are checked before any array is made, and so are
    # the lags of the Fejer grid (the window is too short for them)
    base = ["diffract", "--rule", "thue-morse", "--len", "64"]
    done = limited_run(base + argv + ["--out", str(tmp_path / "out.json")])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert message in done.stderr


def test_pairs_past_the_limit_exit_2_naming_it(tmp_path):
    # the pair count is bounded from the smallest gap before the lag loop:
    # 2e6 points at 1e5 lags would otherwise run for hours in O(n) memory
    argv = ["autocorr", "--silver-mean", "--points", "2000000", "--zmax", "1e5"]
    done = limited_run(argv + ["--out", str(tmp_path / "out.csv")])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"over the limit of {PAIR_LIMIT} (PAIR_LIMIT)" in done.stderr


@pytest.mark.parametrize("eps", ["1e6", "1e9", "1e12"])
def test_smoothing_grids_past_the_limit_exit_2_naming_it(eps, tmp_path):
    # the grid's sample count is checked before np.arange makes it; the cap
    # only guards against a check that is not there
    argv = ["verify", "smoothing", "--points", "200", "--eps", eps]
    done = limited_run(argv + ["--out", str(tmp_path / "out.txt")])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"over the limit of {SMOOTHING_GRID_LIMIT} (SMOOTHING_GRID_LIMIT)" in done.stderr


HUGE = str(10**18)


@pytest.mark.parametrize("argv", [
    ["gen", "--silver-mean", "--points", HUGE],
    ["autocorr", "--rule", "thue-morse", "--len", "64", "--lags", HUGE],
    ["autocorr", "--silver-mean", "--points", "200", "--zmax", "1e18"],
    ["diffract", "--rule", "thue-morse", "--len", "64", "--dyadic", HUGE],
    ["diffract", "--silver-mean", "--points", HUGE, "--candidates", "0.5"],
    ["factor", "--rule", "thue-morse", "--len", HUGE],
    ["freq", "--rule", "thue-morse", "--len", "64", "--maxlen", HUGE],
    ["freq", "--silver-mean", "--points", "200", "--k-radius", "1e18"],
    ["verify", "dual-route", "--len", "64", "--lags", HUGE],
    ["verify", "word-freq", "--len", "64", "--maxlen", HUGE],
    ["verify", "inflation", "--points", HUGE],
    ["modelset", "--points", HUGE],
    ["modelset", "--points", "200", "--box", f"{HUGE},1,1"],
    ["modelset", "--points", "200", "--k", f"{HUGE},{HUGE}"],
], ids=lambda argv: " ".join(argv).replace(HUGE, "1e18"))
def test_sizes_up_to_1e18_exit_2(argv, tmp_path):
    # every size is refused before anything of that size is made; the cap
    # only guards against a check that is not there
    done = limited_run(argv + ["--out", str(tmp_path / "out.txt")])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_factor_with_a_huge_shift_count_checks_only_the_shifts_that_fit(tmp_path):
    # the shifts are clipped to those whose image covers the origin before
    # the loop, so 10^18 of them take no longer than the window's few
    argv = ["factor", "--rule", "thue-morse", "--len", "64", "--shifts", str(10**18)]
    done = limited_run(argv + ["--out", str(tmp_path / "out.txt")], timeout=20)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out.txt").read_text().endswith("equivariance ok shifts 63 max_dev 0\n")
