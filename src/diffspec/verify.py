"""Named property suites shared by the command line and the test suite.

Each suite checks one identity the library is built around and returns a
SuiteReport with a pass flag and the measured deviations, so callers can
print a one-line verdict or assert on the numbers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .correlation import autocorr_symbolic, autocorr_via_spectral_inner
from .delone import enumerate_k_clusters, locator_set, smooth_comb, tent_ft
from .errors import DiffspecError, OutOfRange, WindowTooShort
from .factors import BlockMap, apply_block_map, identity_map, indicator_block_map, xor_map
from .modelset import (
    intensities_at,
    is_extinct,
    module_box,
    silver_mean_chain,
    verify_inflation_identity,
)
from .spectral import sampled_comb_intensity, spectral_distribution
from .subshift import (
    SymbolicWindow,
    collared,
    fixed_point_window,
    letter_frequencies_pf,
    letter_id,
    rule_by_name,
    word_name,
)


@dataclass
class SuiteReport:
    name: str
    ok: bool
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        parts = [f"suite {self.name}: {verdict}"]
        for key, val in self.metrics.items():
            parts.append(f"  {key} = {val:.6g}")
        parts.extend(f"  {line}" for line in self.lines)
        return "\n".join(parts)


def named_block_map(name: str, window: SymbolicWindow) -> BlockMap:
    """Resolve a factor named on the command line.

    Accepts "identity", "xor" (two-letter alphabets only), and
    "indicator:WORD" for the one-zero indicator of WORD.
    """
    if name == "identity":
        return identity_map(window)
    if name == "xor":
        return xor_map()
    if name.startswith("indicator:"):
        word_text = name.split(":", 1)[1]
        if not word_text:
            raise DiffspecError("indicator factor needs a word, e.g. indicator:ab")
        n_letters = int(window.letters.max()) + 1
        word = tuple(letter_id(c, n_letters) for c in word_text)
        return indicator_block_map(word)
    raise DiffspecError(f"unknown factor {name!r}; known: identity, xor, indicator:WORD")


def verify_dual_route(
    rule_name: str = "thue-morse",
    g_name: str = "xor",
    min_len: int = 2**16,
    max_lag: int = 32,
) -> SuiteReport:
    """Dual-route autocorrelation and its distribution on the circle.

    Route one averages conj(y_n) y_{n+m} over the factor image y; route
    two takes the inner products <g | U^m g> along the original window.
    The term-by-term deviation must be at most 1e-12 and the L1 distance
    between the two Fejer distributions on the circle grid at most 0.05.  Route two is
    route one on the image that apply_block_map builds, through the same
    lag kernel, so this checks the factor-image lookup, not two
    algorithms.  The distributions use 512 lags, or as many as
    a short window supports, but never fewer than max_lag, so a max_lag
    the window cannot support is refused naming it.  A negative max_lag
    raises OutOfRange.
    """
    if max_lag < 0:
        raise OutOfRange(f"max_lag {max_lag} must be nonnegative")
    rule = rule_by_name(rule_name)
    window = fixed_point_window(rule, 0, min_len)
    g = named_block_map(g_name, window)
    image = apply_block_map(window, g)

    lags = max(max_lag, min(512, (len(image) - 4) // 2))
    eta_inner = autocorr_via_spectral_inner(window, g, lags)
    eta_direct = autocorr_symbolic(image, lags)
    dev = max(
        abs(eta_direct.value(m) - eta_inner.value(m))
        for m in range(-max_lag, max_lag + 1)
    )
    d_inner = spectral_distribution(eta_inner)
    d_direct = spectral_distribution(eta_direct)
    l1 = float(np.abs(d_inner.masses - d_direct.masses).sum())

    ok = dev <= 1e-12 and l1 <= 0.05
    return SuiteReport(
        "dual-route",
        ok,
        {"max_abs_dev": dev, "grid_l1": l1, "lags": float(max_lag)},
    )


def verify_word_freq(
    rule_name: str = "fibonacci",
    max_word_len: int = 4,
    min_len: int = 2**16,
) -> SuiteReport:
    """Word frequencies recovered from lag-zero spectral inner products.

    nu_w = <1_w | 1_w> on one window must match, to within 1e-3, the
    exact frequency of every legal word w of length ell <= max_word_len,
    the Perron-Frobenius vector of its ell-block substitution (collared).
    ell = 1 is the rule itself, so its deviation is the letter check.
    """
    if max_word_len < 1:
        raise ValueError("max_len must be positive")
    rule = rule_by_name(rule_name)
    window = fixed_point_window(rule, 0, min_len)
    if max_word_len > len(window):
        raise WindowTooShort(f"window of length {len(window)} has no words "
                             f"of length {max_word_len}")

    lines, dev = [], {}  # dev: the largest deviation at each length
    for ell in range(1, max_word_len + 1):
        sigma, words = collared(rule, ell)
        for w, exact in zip(words.tolist(), letter_frequencies_pf(sigma).tolist()):
            nu = autocorr_via_spectral_inner(window, indicator_block_map(w), 0).value(0).real
            dev[ell] = max(dev.get(ell, 0.0), abs(nu - exact))
            lines.append(f"nu[{word_name(w)}] = {nu:.6f}  exact {exact:.6f}")

    worst = max(dev.values())
    metrics = {"max_word_dev": worst, "max_letter_dev": dev[1], "words": float(len(lines))}
    return SuiteReport("word-freq", worst <= 1e-3, metrics, lines)


# grid samples of the smoothing suite, at most, checked before the grid is
# made: the suite's peak is about 80 bytes per sample (tracemalloc), so the
# largest grid takes about 0.7 GB and fits an address space of 1.5 GiB
SMOOTHING_GRID_LIMIT = 2**23
_SMOOTHING_STEP = 0.005  # the step of its grid


def verify_smoothing(n_points: int = 2**13, eps: float = 0.25) -> SuiteReport:
    """Smoothing factorizes through the transform of the tent.

    The intensity of the tent-smoothed comb of the singleton K = 1.1
    locator set at k must equal tent_ft(eps, k)^2 times the raw comb
    intensity, to a relative 0.01; checked at the 10 strongest raw peaks,
    where the quadrature route is well conditioned.  A locator set of
    zero extent raises OutOfRange.
    """
    chain = silver_mean_chain(n_points)
    clusters = enumerate_k_clusters(chain, 1.1)
    singleton = next(c for c, _ in clusters if c.offsets == (0,))
    locator = locator_set(chain, singleton)
    if not locator.extent > 0:
        raise OutOfRange(
            f"a sample of {n_points} point(s) has {len(locator)} locator point(s): no extent"
        )

    candidates = module_box(6, 3, 3.0)
    by_intensity = zip(candidates, intensities_at(locator, candidates))
    ranked = sorted(by_intensity, key=lambda kr: -kr[1])[:10]

    x0 = float(locator.coords[0])
    x1 = float(locator.coords[-1])
    samples = (x1 - x0 + 4 * eps) / _SMOOTHING_STEP
    if samples > SMOOTHING_GRID_LIMIT:
        raise OutOfRange(
            f"a smoothing grid of {samples:.6g} samples at eps {eps:g} "
            f"and step {_SMOOTHING_STEP:g} "
            f"is over the limit of {SMOOTHING_GRID_LIMIT} (SMOOTHING_GRID_LIMIT)"
        )
    t_grid = np.arange(x0 - 2 * eps, x1 + 2 * eps, _SMOOTHING_STEP)
    f = smooth_comb(locator, eps, t_grid)

    worst = 0.0
    lines = []
    for k, raw in ranked:
        smoothed = sampled_comb_intensity(t_grid, f, k.value, locator.extent)
        target = tent_ft(eps, k.value) ** 2 * raw
        rel = abs(smoothed - target) / max(target, 1e-300)
        worst = max(worst, rel)
        lines.append(f"k = {k.value:+.6f}  raw {raw:.4e}  smoothed {smoothed:.4e}  rel {rel:.2e}")

    ok = worst <= 0.01
    return SuiteReport(
        "smoothing",
        ok,
        {"max_rel_error": worst, "peaks": float(len(ranked)), "eps": eps},
        lines,
    )


def verify_inflation(
    n_points: int = 100000,
    top: int = 20,
    rel_tol: float = 0.02,
    transport_floor: float = 1e-3,
) -> SuiteReport:
    """Intensities of the inflated chain reproduce the original at lambda k.

    The comparison carries the squared density ratio as its constant,
    and extinctions of the original chain must not survive inflation.
    """
    chain = silver_mean_chain(n_points)
    candidates = module_box(6, 3, 3.0)
    report = verify_inflation_identity(chain, candidates, top=top)
    transport_min = min((v for _, v in report.extinction_transport), default=np.inf)

    ok = report.max_rel_error <= rel_tol and transport_min > transport_floor
    lines = [
        f"k = {row.k.value:+.6f}  inflated {row.inflated_intensity:.4e}  "
        f"scaled original {report.scale_constant * row.original_at_lambda_k:.4e}  "
        f"rel {row.rel_error:.2e}"
        for row in report.rows
    ]
    return SuiteReport(
        "inflation",
        ok,
        {
            "max_rel_error": report.max_rel_error,
            "density_ratio": report.density_ratio,
            "scale_constant": report.scale_constant,
            "min_extinction_transport": transport_min,
        },
        lines,
    )


def verify_extinction(
    n_points: int = 100000,
    a_max: int = 6,
    b_max: int = 3,
    k_max: float = 3.0,
    threshold: float = 1e-4,
) -> SuiteReport:
    """Intensity vanishes exactly at the predicted module elements.

    Over the module box without 0, intensity below the threshold must
    occur exactly at b = 0 with a even; both the largest intensity on
    that set and the smallest off it are reported.
    """
    chain = silver_mean_chain(n_points)
    worst_extinct = 0.0
    smallest_live = np.inf
    misclassified = 0
    box = [k for k in module_box(a_max, b_max, k_max) if (k.a, k.b) != (0, 0)]
    for k, i in zip(box, intensities_at(chain, box)):
        if is_extinct(k):
            worst_extinct = max(worst_extinct, i)
            if i >= threshold:
                misclassified += 1
        else:
            smallest_live = min(smallest_live, i)
            if i < threshold:
                misclassified += 1

    ok = misclassified == 0
    return SuiteReport(
        "extinction",
        ok,
        {
            "max_extinct_intensity": worst_extinct,
            "min_live_intensity": smallest_live,
            "misclassified": float(misclassified),
        },
    )


_SUITES = {
    "dual-route": verify_dual_route,
    "word-freq": verify_word_freq,
    "smoothing": verify_smoothing,
    "inflation": verify_inflation,
    "extinction": verify_extinction,
}
SUITE_NAMES = tuple(_SUITES)
#: the keywords each suite reads, from its signature
SUITE_KEYWORDS = {
    name: frozenset(inspect.signature(fn).parameters) for name, fn in _SUITES.items()
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Run one named suite on kwargs, keywords among SUITE_KEYWORDS[name]."""
    if name not in _SUITES:
        raise DiffspecError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name](**kwargs)
