"""Command line front end: generation, correlation, spectra, verification.

Every command writes deterministic text (CSV for columnar series, JSON
for structured spectra), so identical invocations produce byte-identical
files.  Exit codes: 0 success, 1 property violation, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .correlation import autocorr_pointset, autocorr_symbolic
from .delone import MERGE_TOL, PointSet1D, cluster_frequency, enumerate_k_clusters
from .errors import DiffspecError, OutOfRange
from .factors import BlockMap, _parse_complex, apply_block_map, check_block_image
from .modelset import (
    FourierModuleElement,
    inflate_factor,
    intensities_at,
    intensity_at,
    is_extinct,
    module_box,
    silver_mean_chain,
)
from .spectral import (
    CANDIDATE_LIMIT,
    SpectralEstimate,
    detect_atoms,
    kronecker_candidates,
    sobol_candidates,
    spectral_distribution,
)
from .subshift import (
    SymbolicWindow,
    build_frequency_table,
    data_lines,
    fixed_point_window,
    letter_frequencies_pf,
    letter_id,
    parse_rule,
    rule_by_name,
    word_letters,
    word_name,
)
from .verify import SUITE_KEYWORDS, SUITE_NAMES, named_block_map, run_suite


# the largest |weight| accepted: |sum of w e(-kx)|^2 and every correlation
# sum then stay inside the float range for any sample that fits in memory
MAX_WEIGHT = 1e100


def _bounded(z: complex) -> bool:
    """|z| finite and at most MAX_WEIGHT; a part above it fails before
    abs could overflow."""
    return abs(z.real) <= MAX_WEIGHT and abs(z.imag) <= MAX_WEIGHT and abs(z) <= MAX_WEIGHT


def _parse_floats(text: str) -> list[float]:
    """A nonempty list of finite numbers, separated by , or ;."""
    vals = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not vals:
        raise DiffspecError(f"empty number list {text!r}")
    if not all(np.isfinite(vals)):
        raise DiffspecError(f"number list {text!r} holds inf or nan")
    return vals


def _parse_box(text: str) -> tuple[int, int, float]:
    """Module box bounds "A,B,KMAX"; A and B are truncated to integers."""
    vals = _parse_floats(text)
    if len(vals) != 3:
        raise DiffspecError(f"module box needs three numbers A,B,KMAX, got {text!r}")
    return int(vals[0]), int(vals[1]), vals[2]


def _parse_weights(text: str | None, n_letters: int) -> dict[int, complex]:
    """Weight list "a=1,b=-1", none if text is None; values in Python complex syntax, i or j."""
    weights: dict[int, complex] = {}
    for tok in (text or "").split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, _, val = tok.partition("=")
        if not val:
            raise DiffspecError(f"weight entry {tok!r} is not letter=value")
        letter = letter_id(name.strip(), n_letters)
        try:
            weights[letter] = _parse_complex(val)
        except ValueError as exc:
            raise DiffspecError(f"bad weight value {val!r}") from exc
        if not _bounded(weights[letter]):
            raise DiffspecError(f"weight value {val!r} is not finite or above {MAX_WEIGHT:g}")
    return weights


def _parse_pointset_text(text: str) -> PointSet1D:
    ps = PointSet1D.parse(text)
    if not (np.abs(ps.weights) <= MAX_WEIGHT).all():
        raise DiffspecError(f"point set weights must be finite and at most {MAX_WEIGHT:g}")
    return ps


def _write_out(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _serialize_window(window: SymbolicWindow) -> str:
    return f"window lo {window.lo} letters {len(window)}\n{window.word_string()}\n"


def _parse_window_text(text: str, weights_spec: str | None) -> SymbolicWindow:
    lines = list(data_lines(text))
    head = lines[0].split() if lines else []
    if len(lines) < 2 or len(head) != 5 or head[:2] != ["window", "lo"] or head[3] != "letters":
        raise DiffspecError("window file must start with 'window lo <lo> letters <n>'")
    if len(lines) > 2:
        raise DiffspecError("window file must hold one word line, found a second")
    lo, n = int(head[2]), int(head[4])
    letters = word_letters(lines[1])
    if len(letters) != n:
        raise DiffspecError(f"window header says letters {n}, the word has {len(letters)}")
    return SymbolicWindow(letters, lo, _parse_weights(weights_spec, int(letters.max()) + 1))


def _rule_from_args(args):
    if getattr(args, "rule_file", None):
        return parse_rule(Path(args.rule_file).read_text())
    if getattr(args, "rule", None) is None:
        raise DiffspecError("no source; use --rule, --rule-file, --silver-mean or --in")
    return rule_by_name(args.rule)


def _window_from_args(args) -> SymbolicWindow:
    rule = _rule_from_args(args)
    seed = letter_id(args.seed_letter, rule.n_letters)
    weights = _parse_weights(getattr(args, "weights", None), rule.n_letters)
    return fixed_point_window(rule, seed, args.len, weights=weights)


# the source flags of gen, autocorr, diffract, factor and freq; at most one
_SOURCES = {"infile": "--in", "rule": "--rule", "rule_file": "--rule-file",
            "silver_mean": "--silver-mean"}


def _load_source(args) -> SymbolicWindow | PointSet1D:
    given = [flag for dest, flag in _SOURCES.items() if getattr(args, dest, None)]
    if len(given) > 1:
        raise DiffspecError(f"give one source, not {', '.join(given)}")
    if getattr(args, "infile", None):
        text = Path(args.infile).read_text()
        kind = next((ln.split()[0] for ln in data_lines(text)), "")
        if kind == "pointset":
            _refuse_weights(args)
            return _parse_pointset_text(text)
        if kind == "window":
            return _parse_window_text(text, getattr(args, "weights", None))
        raise DiffspecError("input file must start with 'pointset' or 'window'")
    if getattr(args, "silver_mean", False):
        _refuse_weights(args)
        return silver_mean_chain(args.points)
    return _window_from_args(args)


def _refuse_weights(args) -> None:
    """--weights weights the letters of a window; a point set has none."""
    if getattr(args, "weights", None):
        raise DiffspecError("--weights sets letter weights of a window, not of a point set")


def cmd_gen(args) -> int:
    src = _load_source(args)
    if isinstance(src, PointSet1D):
        _write_out(args, src.serialize())
    else:
        _write_out(args, _serialize_window(src))
    return 0


def cmd_autocorr(args) -> int:
    src = _load_source(args)
    if isinstance(src, SymbolicWindow):
        _write_out(args, autocorr_symbolic(src, args.lags).to_csv())
    else:
        _write_out(args, autocorr_pointset(src, args.zmax, merge_tol=args.merge_tol).to_csv())
    return 0


def _candidates_from_args(args, src):
    specs = [
        s
        for s in ("candidates", "dyadic", "module_box", "sobol", "kronecker")
        if getattr(args, s) is not None
    ]
    if len(specs) != 1:
        raise DiffspecError(
            "need exactly one of --candidates, --dyadic, --module-box, --sobol, --kronecker"
        )
    if args.candidates is not None:
        return _parse_floats(args.candidates)
    if args.dyadic is not None:
        top = CANDIDATE_LIMIT.bit_length() - 1  # the largest J with 2^J within the limit
        if not 0 <= args.dyadic <= top:
            raise OutOfRange(
                f"--dyadic level must be in 0..{top}, "
                f"so that its 2^J candidates stay within the limit of {CANDIDATE_LIMIT}"
            )
        denom = 2**args.dyadic
        return [p / denom for p in range(denom)]
    if args.sobol is not None:
        return list(sobol_candidates(args.sobol))
    if args.kronecker is not None:
        return list(kronecker_candidates(args.kronecker))
    a_max, b_max, k_max = _parse_box(args.module_box)
    if not isinstance(src, PointSet1D):
        raise DiffspecError("--module-box candidates need a point-set source")
    return module_box(a_max, b_max, k_max)


def _schedule_from_args(args, src):
    if args.schedule is not None:
        vals = _parse_floats(args.schedule)
        return [int(v) for v in vals] if isinstance(src, SymbolicWindow) else vals
    if isinstance(src, SymbolicWindow):
        n = len(src)
        return [n // 8, n // 4, n // 2, n]
    r = src.extent / 2.0
    return [r / 8, r / 4, r / 2, r]


def cmd_diffract(args) -> int:
    if args.threads < 1:
        raise OutOfRange(f"--threads must be at least 1, got {args.threads}")
    src = _load_source(args)
    candidates = _candidates_from_args(args, src)
    schedule = _schedule_from_args(args, src)
    est = detect_atoms(
        src,
        candidates,
        schedule,
        rel_tol=args.rel_tol,
        min_intensity=args.min_intensity,
        n_jobs=args.threads,
    )
    if args.fejer is not None:
        if not isinstance(src, SymbolicWindow):
            raise DiffspecError("--fejer needs a symbolic source")
        eta = autocorr_symbolic(src, args.fejer)
        est = SpectralEstimate(est.atoms, est.schedule, spectral_distribution(eta))
    _write_out(args, est.to_json() + "\n")
    return 0


def cmd_factor(args) -> int:
    src = _load_source(args)
    if not isinstance(src, SymbolicWindow):
        raise DiffspecError("factor needs a symbolic source")
    if args.map_file:
        g = BlockMap.parse(Path(args.map_file).read_text())
    else:
        g = named_block_map(args.g, src)
    for val in [*g.table.values(), *([] if g.default is None else [g.default])]:
        if not _bounded(val):
            raise DiffspecError(f"block map value {val} is not finite or above {MAX_WEIGHT:g}")
    image = apply_block_map(src, g)
    report = check_block_image(src, g, image)

    lines = [f"factor lo {image.lo} letters {len(image)}", image.word_string()]
    for out_id in sorted(image.weights):
        val = image.weights[out_id]
        lines.append(f"value {word_name([out_id])} = {val.real:.12g}{val.imag:+.12g}i")
    verdict = "ok" if report.ok else "violated"
    last = f"blocks {verdict} sites {report.sites} max_dev {report.max_abs_dev:.12g}"
    lines.append(last if report.ok else f"{last} first_site {report.first_site}")
    _write_out(args, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


def cmd_freq(args) -> int:
    src = _load_source(args)
    buf = []
    if isinstance(src, SymbolicWindow):
        table = build_frequency_table(src, args.maxlen)
        pf = None if args.infile else letter_frequencies_pf(_rule_from_args(args))
        buf.append("word,frequency,pf_frequency")
        for word in sorted(table.freqs, key=lambda w: (len(w), w)):
            pf_col = f"{pf[word[0]]:.12g}" if pf is not None and len(word) == 1 else ""
            buf.append(f"{word_name(word)},{table.freqs[word]:.12g},{pf_col}")
    else:
        buf.append("offsets,count,absolute,relative")
        for cluster, _count in enumerate_k_clusters(src, args.k_radius):
            fr = cluster_frequency(src, cluster)
            offs = ";".join(f"{o:.12g}" for o in cluster.offsets)
            buf.append(f"{offs},{fr.count},{fr.absolute:.12g},{fr.relative:.12g}")
    _write_out(args, "\n".join(buf) + "\n")
    return 0


# the verify flags, by the suite keyword each one sets
_VERIFY_FLAGS = {"rule_name": "rule", "g_name": "g", "min_len": "len", "max_lag": "lags",
                 "max_word_len": "maxlen", "n_points": "points", "eps": "eps"}


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    given = {k: getattr(args, d) for k, d in _VERIFY_FLAGS.items() if getattr(args, d) is not None}
    unread = [k for k in given if not any(k in SUITE_KEYWORDS[name] for name in names)]
    if unread:
        raise DiffspecError(f"verify {args.suite} reads no --{_VERIFY_FLAGS[unread[0]]}")
    reports = [
        run_suite(name, **{k: v for k, v in given.items() if k in SUITE_KEYWORDS[name]})
        for name in names
    ]
    _write_out(args, "\n".join(r.summary() for r in reports) + "\n")
    return 0 if all(r.ok for r in reports) else 1


def cmd_modelset(args) -> int:
    if getattr(args, "infile", None):
        ps = _parse_pointset_text(Path(args.infile).read_text())
    else:
        ps = silver_mean_chain(args.points)
    if ps.extent <= 0:
        raise OutOfRange(f"a sample of {len(ps)} point(s) has zero extent")

    if args.inflate:
        _write_out(args, inflate_factor(ps).serialize())
        return 0

    buf = []
    if args.k:
        vals = _parse_floats(args.k)
        if len(vals) != 2:
            raise DiffspecError(f"--k needs two numbers a,b, got {args.k!r}")
        a, b = (int(v) for v in vals)
        k = FourierModuleElement(a, b)
        buf.append(
            f"k {k.value:.12g} a {a} b {b} "
            f"intensity {intensity_at(ps, k):.12g} extinct {str(is_extinct(k)).lower()}"
        )
    if args.box:
        box = module_box(*_parse_box(args.box))
        buf.append("a,b,value,extinct,intensity")
        for k, i in zip(box, intensities_at(ps, box)):
            buf.append(f"{k.a},{k.b},{k.value:.12g},{str(is_extinct(k)).lower()},{i:.12g}")
    if not buf:
        gaps = ";".join(f"{g:.12g}" for g in ps.distinct_gaps())
        buf.append(
            f"points {len(ps)} extent {ps.extent:.12g} "
            f"density {len(ps) / ps.extent:.12g} gaps {gaps}"
        )
    _write_out(args, "\n".join(buf) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value file overriding flags")
    common.add_argument("--out", help="output path (default stdout)")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--rule", help="built-in rule name")
    source.add_argument("--rule-file", help="custom rule file, lines 'a -> ab'")
    source.add_argument("--seed-letter", default="a", help="fixed-point seed letter")
    source.add_argument("--len", type=int, default=65536, help="minimal window half-length")
    source.add_argument("--weights", help="letter weights of a window, e.g. a=1,b=-1")
    source.add_argument("--silver-mean", action="store_true", help="silver-mean chain source")
    source.add_argument("--points", type=int, default=100000, help="chain length in points")
    source.add_argument("--in", dest="infile", help="window or pointset file")

    parser = argparse.ArgumentParser(
        prog="diffspec",
        description="autocorrelation and diffraction of aperiodic sequences and point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common, source], help="generate a window or chain file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("autocorr", parents=[common, source], help="autocorrelation CSV")
    p.add_argument("--lags", type=int, default=32, help="maximal lag")
    p.add_argument("--zmax", type=float, default=10.0, help="maximal point-set difference")
    p.add_argument("--merge-tol", type=float, default=MERGE_TOL, help="difference merge tolerance")
    p.set_defaults(func=cmd_autocorr)

    p = sub.add_parser("diffract", parents=[common, source], help="atom detection JSON")
    p.add_argument("--candidates", help="explicit frequency list k1,k2,...")
    p.add_argument("--dyadic", type=int, help="all p/2^J for the given J")
    p.add_argument("--module-box", help="module candidates A,B,KMAX (point sets)")
    p.add_argument("--sobol", type=int, help="quasirandom candidate count")
    p.add_argument("--kronecker", type=int, help="irrational candidate count")
    p.add_argument("--schedule", help="increasing sizes N1,N2,... or radii")
    p.add_argument("--rel-tol", type=float, default=0.05, help="atom stability tolerance")
    p.add_argument("--min-intensity", type=float, default=1e-6, help="atom intensity floor")
    p.add_argument("--fejer", type=int, help="add a circle-grid density with this many lags")
    p.add_argument("--threads", type=int, default=1,
                   help="threads, at least 1, for point-set candidates summed one by one")
    p.set_defaults(func=cmd_diffract)

    p = sub.add_parser("factor", parents=[common, source], help="apply a sliding block map")
    p.add_argument("--g", default="identity", help="identity | xor | indicator:WORD")
    p.add_argument("--map-file", help="serialized block map file")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("freq", parents=[common, source], help="word or cluster frequencies CSV")
    p.add_argument("--maxlen", type=int, default=4, help="maximal word length")
    p.add_argument("--k-radius", type=float, default=1.1, help="cluster radius (point sets)")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("verify", parents=[common], help="run property suites")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--rule", help="rule name for sequence suites")
    p.add_argument("--g", help="factor for the dual-route suite")
    p.add_argument("--len", type=int, help="minimal window half-length")
    p.add_argument("--lags", type=int, help="maximal lag")
    p.add_argument("--maxlen", type=int, help="maximal word length")
    p.add_argument("--points", type=int, help="chain length in points")
    p.add_argument("--eps", type=float, help="tent half-width")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("modelset", parents=[common], help="silver-mean chain operations")
    p.add_argument("--points", type=int, default=100000, help="chain length in points")
    p.add_argument("--in", dest="infile", help="pointset file")
    p.add_argument("--k", help="module element a,b to evaluate")
    p.add_argument("--box", help="module box A,B,KMAX to tabulate")
    p.add_argument("--inflate", action="store_true", help="emit the inflated chain")
    p.set_defaults(func=cmd_modelset)

    return parser


def _apply_config(args, parser: argparse.ArgumentParser):
    """Overlay key=value pairs from the config file onto parsed args.

    Keys use flag spelling with - or _; values go through the same type
    conversion as the flag and take precedence over anything given on
    the command line.
    """
    sub_actions = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub_actions = action.choices[args.command]._actions
    types: dict[str, callable] = {}
    for action in sub_actions:
        if action.dest in ("help", "config"):
            continue
        if action.nargs == 0:
            types[action.dest] = lambda s: s.strip().lower() in ("1", "true", "yes", "on")
        else:
            types[action.dest] = action.type or str

    for line in data_lines(Path(args.config).read_text()):
        key, sep, val = line.partition("=")
        if not sep:
            raise DiffspecError(f"config line {line!r} is not key=value")
        dest = key.strip().replace("-", "_")
        if dest not in types:
            raise DiffspecError(f"unknown config key {key.strip()!r}")
        try:
            setattr(args, dest, types[dest](val.strip()))
        except ValueError as exc:
            raise DiffspecError(f"bad config value for {key.strip()!r}: {val.strip()!r}") from exc


# scalar float options that must be finite
_FINITE = ("zmax", "merge_tol", "rel_tol", "min_intensity", "k_radius", "eps")


def _check_finite(args):
    for dest in _FINITE:
        val = getattr(args, dest, None)
        if val is not None and not np.isfinite(val):
            raise DiffspecError(f"--{dest.replace('_', '-')} must be finite, got {val}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args, parser)
        _check_finite(args)
        return args.func(args)
    except (DiffspecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large for this machine
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
