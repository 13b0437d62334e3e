"""The three benchmark workloads, driven through diffspec's public API.

A workload is a fixed list of jobs.  One pass runs every job once, in
order, on one thread of control (closed loop, one client); only
detect_atoms on pointset-exact uses its own thread pool, with
min(2, nproc) workers.  The seed changes values (control frequencies,
weights, the order of candidates, which module element the CLI
evaluates), never sizes, so every pass does the same amount of work.

Every check compares against an exact answer or a release-gate
tolerance; EXPECTED holds the constants.  The WARM sizes run the same
calls on tiny inputs so that lazy imports and first-call costs are paid
during set-up; checks are not counted there.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import diffspec
from diffspec import (
    autocorr_pointset,
    autocorr_symbolic,
    autocorr_via_spectral_inner,
    apply_block_map,
    build_frequency_table,
    cluster_frequency,
    detect_atoms,
    enumerate_k_clusters,
    fixed_point_window,
    indicator_block_map,
    intensity_at,
    is_extinct,
    locator_set,
    module_box,
    rule_by_name,
    silver_mean_chain,
    sobol_candidates,
    spectral_distribution,
    verify_inflation_identity,
    weighted_silver_comb,
)
from diffspec.cli import main as cli_main
from diffspec.factors import xor_map  # not exported by diffspec.__all__

PM = {0: 1.0, 1: -1.0}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Controls are frac(theta + i * GOLDEN) for a seeded theta, kept only when
# dist(2^j x, Z) >= CERT_DIST for j = 0..CERT_LEVELS.  A scan of the whole
# circle (certify_controls.py) shows every such x has period-doubling
# intensity below 5e-7 at N = 2^16, under detect_atoms' 1e-6 floor, so no
# control can be called an atom.  Thue-Morse and Rudin-Shapiro have no
# atoms at any frequency.
CERT_LEVELS = 12
CERT_DIST = 0.02

EXPECTED = {
    # seq-spectrum
    "dyadic_atoms": 64,  # every p/64 is an atom of period-doubling +-1 and of TM xor
    "control_atoms": 0,  # certified controls, Sobol points on TM, controls on RS
    "atom_stability_max": 0.05,  # detect_atoms rel_tol (c03)
    "tm_eta1": -1.0 / 3.0,  # Thue-Morse +-1 autocorrelation at lag 1 over eta(0) (c02)
    "tm_eta1_tol": 1e-3,
    "fejer_mass": 1.0,  # Fejer grid mass equals eta(0) = |w|^2 (= 1 for +-1)
    "fejer_mass_tol": 1e-9,
    "parity_grid_l1": 0.05,  # TM xor factor vs period-doubling 0/1 comb (c03)
    # pointset-exact
    "module_box_size": 85,  # module_box(6, 3, 3.0)
    "module_atoms": 79,  # the 85 elements minus the 6 extinct ones
    "extinction_threshold": 1e-4,  # c08
    "inflation_rel_tol": 0.02,  # c09
    "inflation_transport_floor": 1e-3,  # c09
    # local-patterns
    "fibonacci_words_le4": 14,  # Sturmian complexity n + 1: 2 + 3 + 4 + 5
    "word_freq_tol": 1e-3,  # c04
    "cluster_counts": [29289, 41420, 29289],  # K = 1.1 on 1e5 points (c07)
    "zero_mode_rel_tol": 0.01,  # c07
    "relative_sum_tol": 1e-3,  # c07
    "point_diffs_within_10": 19,  # distinct differences |z| <= 10 of the chain
    "eta0_rel_tol": 1e-12,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def certified_controls(rng: np.random.Generator, n: int) -> list[float]:
    """n irrational control frequencies, far from every dyadic of level <= 12."""
    theta = float(rng.random())
    out: list[float] = []
    i = 0
    while len(out) < n:
        i += 1
        x = (theta + i * GOLDEN) % 1.0
        if all(
            abs(2.0**j * x - round(2.0**j * x)) >= CERT_DIST
            for j in range(CERT_LEVELS + 1)
        ):
            out.append(x)
    return out


def unit_phase(rng: np.random.Generator) -> complex:
    """A seeded unit complex number, written with 6 decimals so that the
    CLI text form and the library value are the same number."""
    phi = 2.0 * math.pi * float(rng.random())
    return complex(f"{math.cos(phi):.6f}{math.sin(phi):+.6f}j")


class Checks:
    """Counts result checks attempted and failed; keeps failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


# --- work counts (evaluated after a span's clock stops) -------------------


def sites(window) -> dict:
    return {"subshift.sites": len(window)}


def spectral_work(n_candidates: int, terms: list[int]):
    """Direct exp-sum work of detect_atoms: one sum per (candidate, size)."""

    def work(est) -> dict:
        return {
            "spectral.intensity_evals": n_candidates * len(terms),
            "spectral.exp_terms": n_candidates * sum(terms),
            "spectral.prefix_terms": n_candidates * terms[-1],
            "spectral.atoms": len(est.atoms),
        }

    return work


def lag_pairs(n: int, max_lag: int):
    return lambda _eta: {
        "correlation.lag_pairs": sum(n - m for m in range(max_lag + 1))
    }


def points_in_window(ps, radius: float) -> int:
    """Points intensity_at sums at this radius."""
    x = ps.coords
    lo = np.searchsorted(x, x[0] - 1e-9, side="left")
    hi = np.searchsorted(x, x[0] + 2 * radius + 1e-9, side="right")
    return int(hi - lo)


def interior_points(ps, k_radius: float) -> int:
    x = ps.coords
    lo = np.searchsorted(x, x[0] + k_radius - 1e-9, side="left")
    hi = np.searchsorted(x, x[-1] - k_radius + 1e-9, side="right")
    return int(hi - lo)


def run_cli(argv: list[str]) -> int:
    """diffspec.cli.main in-process; argparse usage errors exit via SystemExit."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


class Workload:
    """A named job list run on FULL sizes for timing and WARM sizes in set-up."""

    name = ""
    FULL: object = None
    WARM: object = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def jobs(self):
        raise NotImplementedError

    def run_pass(self, tr, ck: Checks, z) -> None:
        with tr.region("pass"):
            for job in self.jobs():
                with tr.region(f"job.{job.__name__}"):
                    try:
                        job(tr, ck, z)
                    except Exception:
                        ck(job.__name__, False, traceback.format_exc())

    def cli(self, tr, argv: list[str], infile: Path | None, outfile: Path) -> int:
        def work(_rc) -> dict:
            size = outfile.stat().st_size if outfile.exists() else 0
            if infile is not None:
                size += infile.stat().st_size
            return {"cli.bytes": size}

        return tr.call("cli.main", run_cli, argv, work=work)


@dataclass(frozen=True)
class SeqSizes:
    half: int  # fixed_point_window min_len: windows of ~2 * half sites
    schedule: tuple[int, ...]
    big_half: int
    lags: int
    cli_half: int
    cli_lags: int


class SeqSpectrum(Workload):
    """Symbolic diffraction: spectral-heavy, no point-set work."""

    name = "seq-spectrum"
    FULL = SeqSizes(2**16, (2**13, 2**14, 2**15, 2**16), 2**20, 512, 2**14, 64)
    WARM = SeqSizes(2**9, (2**6, 2**7, 2**8, 2**9), 2**9, 32, 2**7, 8)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.controls = certified_controls(self.rng, 64)
        self.phase = unit_phase(self.rng)
        self.cli_phase = unit_phase(self.rng)

    def jobs(self):
        return (self.period_doubling, self.parity_factor, self.thue_morse,
                self.rudin_shapiro, self.long_autocorr, self.cli_roundtrip)

    def window(self, tr, name, half, weights):
        return tr.call("subshift.fixed_point_window", fixed_point_window,
                       rule_by_name(name), 0, half, weights=weights, work=sites)

    def detect(self, tr, source, cands, z):
        return tr.call("spectral.detect_atoms", detect_atoms, source, cands,
                       list(z.schedule),
                       work=spectral_work(len(cands), list(z.schedule)))

    def period_doubling(self, tr, ck, z):
        dyadics = [p / 64 for p in range(64)]
        pd = self.window(tr, "period-doubling", z.half, PM)
        est = self.detect(tr, pd, dyadics + self.controls, z)
        found = {a.k for a in est.atoms}
        ck("pd.dyadic_atoms", len(found & set(dyadics)) == EXPECTED["dyadic_atoms"],
           f"{len(found & set(dyadics))} of 64 dyadics")
        ck("pd.control_atoms", len(found - set(dyadics)) == EXPECTED["control_atoms"],
           f"controls called atoms: {sorted(found - set(dyadics))}")

    def parity_factor(self, tr, ck, z):
        dyadics = [p / 64 for p in range(64)]
        tm = self.window(tr, "thue-morse", z.half, PM)
        comb = tr.call("factors.apply_block_map", apply_block_map, tm, xor_map(),
                       work=lambda w: {"factors.blocks": len(w)})
        est = self.detect(tr, comb, dyadics, z)
        found = {a.k for a in est.atoms}
        worst = max((a.stability for a in est.atoms), default=0.0)
        ck("xor.dyadic_atoms", len(found) == EXPECTED["dyadic_atoms"],
           f"{len(found)} of 64 dyadics")
        ck("xor.stability", worst <= EXPECTED["atom_stability_max"], f"{worst:.3g}")
        eta_g = tr.call("correlation.autocorr_via_spectral_inner",
                        autocorr_via_spectral_inner, tm, xor_map(), z.lags,
                        work=lag_pairs(len(tm) - 1, z.lags))
        sigma_g = tr.call("spectral.spectral_distribution", spectral_distribution, eta_g)
        pd01 = self.window(tr, "period-doubling", z.half, {0: 1.0, 1: 0.0})
        eta_pd = tr.call("correlation.autocorr_symbolic", autocorr_symbolic, pd01,
                         z.lags, work=lag_pairs(len(pd01), z.lags))
        rho = tr.call("spectral.spectral_distribution", spectral_distribution, eta_pd)
        l1 = float(np.abs(sigma_g.masses - rho.masses).sum())
        ck("xor.grid_l1", l1 <= EXPECTED["parity_grid_l1"], f"L1 {l1:.3g}")

    def thue_morse(self, tr, ck, z):
        tm = self.window(tr, "thue-morse", z.half, PM)
        sobol = tr.call("spectral.sobol_candidates", sobol_candidates, 64)
        est = self.detect(tr, tm, [float(k) for k in sobol] + self.controls, z)
        ck("tm.atoms", len(est.atoms) == EXPECTED["control_atoms"],
           f"atoms at {[a.k for a in est.atoms]}")

    def rudin_shapiro(self, tr, ck, z):
        rs = self.window(tr, "rudin-shapiro", z.half, {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0})
        est = self.detect(tr, rs, self.controls, z)
        ck("rs.atoms", len(est.atoms) == EXPECTED["control_atoms"],
           f"atoms at {[a.k for a in est.atoms]}")

    def long_autocorr(self, tr, ck, z):
        w = self.phase
        tm = self.window(tr, "thue-morse", z.big_half, {0: w, 1: -w})
        eta = tr.call("correlation.autocorr_symbolic", autocorr_symbolic, tm, z.lags,
                      work=lag_pairs(len(tm), z.lags))
        grid = tr.call("spectral.spectral_distribution", spectral_distribution, eta)
        # the weights are +-w with |w| = 1 up to the 6 printed decimals
        dev = abs(eta.value(1) - EXPECTED["tm_eta1"] * abs(w) ** 2)
        ck("tm2^21.eta1", dev <= EXPECTED["tm_eta1_tol"], f"|eta(1) + 1/3| = {dev:.3g}")
        mass_dev = abs(grid.total_mass - EXPECTED["fejer_mass"] * abs(w) ** 2)
        ck("tm2^21.fejer_mass", mass_dev <= EXPECTED["fejer_mass_tol"], f"{mass_dev:.3g}")

    def cli_roundtrip(self, tr, ck, z):
        w = self.cli_phase
        spec = f"a={w.real:.6f}{w.imag:+.6f}j,b={-w.real:.6f}{-w.imag:+.6f}j"
        win_file = self.workdir / "tm.txt"
        eta_file = self.workdir / "eta.csv"
        rc1 = self.cli(tr, ["gen", "--rule", "thue-morse", "--len", str(z.cli_half),
                            "--out", str(win_file)], None, win_file)
        rc2 = self.cli(tr, ["autocorr", "--in", str(win_file), "--weights", spec,
                            "--lags", str(z.cli_lags), "--out", str(eta_file)],
                       win_file, eta_file)
        lib = self.window(tr, "thue-morse", z.cli_half, {0: w, 1: -w})
        want = tr.call("correlation.autocorr_symbolic", autocorr_symbolic, lib,
                       z.cli_lags, work=lag_pairs(len(lib), z.cli_lags)).to_csv()
        ck("cli.exit_codes", (rc1, rc2) == (0, 0), f"exit codes {rc1}, {rc2}")
        ck("cli.autocorr_csv", eta_file.read_text() == want, "CSV differs from library")


@dataclass(frozen=True)
class PointSizes:
    points: int
    box: tuple[int, int, float]


class PointsetExact(Workload):
    """Exact Z[sqrt 2] diffraction of the silver-mean chain at gate size."""

    name = "pointset-exact"
    FULL = PointSizes(100000, (6, 3, 3.0))
    WARM = PointSizes(2000, (2, 1, 1.0))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.threads = min(2, nproc())

    def jobs(self):
        return (self.chain, self.atoms, self.extinction, self.inflation,
                self.cli_roundtrip)

    def intensity(self, tr, ps, k):
        return tr.call("modelset.intensity_at", intensity_at, ps, k,
                       work=lambda _i: {"modelset.exact_terms": len(ps)})

    def chain(self, tr, ck, z):
        """The chain and the candidate box shared by the jobs below."""
        self.ps = tr.call("modelset.silver_mean_chain", silver_mean_chain, z.points)
        box = tr.call("modelset.module_box", module_box, *z.box)
        order = np.random.default_rng(self.seed).permutation(len(box))
        self.box = [box[i] for i in order]
        ck("box.size", len(box) == EXPECTED["module_box_size"], f"{len(box)}")

    def atoms(self, tr, ck, z):
        r = self.ps.extent / 2.0
        radii = [r / 8, r / 4, r / 2, r]
        terms = [points_in_window(self.ps, s) for s in radii]
        est = tr.call("spectral.detect_atoms", detect_atoms, self.ps, self.box, radii,
                      n_jobs=self.threads, work=spectral_work(len(self.box), terms))
        live = {(k.a, k.b) for k in self.box if not is_extinct(k)}
        found = {a.k_exact for a in est.atoms}
        ck("box.atoms_are_live", found == live,
           f"missed {sorted(live - found)}, extra {sorted(found - live)}")
        ck("box.atom_count", len(found) == EXPECTED["module_atoms"], f"{len(found)}")

    def extinction(self, tr, ck, z):
        wrong = []
        self.box_intensity = {}
        for k in self.box:
            if k.a == 0 and k.b == 0:
                continue
            i = self.intensity(tr, self.ps, k)
            self.box_intensity[(k.a, k.b)] = i
            if (i < EXPECTED["extinction_threshold"]) != is_extinct(k):
                wrong.append((k.a, k.b, i))
        ck("extinction.classified", not wrong, f"misclassified {wrong}")

    def inflation(self, tr, ck, z):
        rep = tr.call("modelset.verify_inflation_identity", verify_inflation_identity,
                      self.ps, self.box, top=20)
        transport = min((v for _, v in rep.extinction_transport), default=math.inf)
        ck("inflation.rel_error", rep.max_rel_error <= EXPECTED["inflation_rel_tol"],
           f"{rep.max_rel_error:.3g}")
        ck("inflation.transport", transport > EXPECTED["inflation_transport_floor"],
           f"{transport:.3g}")

    def cli_roundtrip(self, tr, ck, z):
        # reuses the library intensities of the extinction job as the answer
        keys = sorted(self.box_intensity)
        a, b = keys[int(np.random.default_rng(self.seed).integers(len(keys)))]
        chain_file = self.workdir / "chain.txt"
        out_file = self.workdir / "k.txt"
        rc1 = self.cli(tr, ["gen", "--silver-mean", "--points", str(z.points),
                            "--out", str(chain_file)], None, chain_file)
        rc2 = self.cli(tr, ["modelset", "--in", str(chain_file), f"--k={a},{b}",
                            "--out", str(out_file)], chain_file, out_file)
        k = diffspec.FourierModuleElement(a, b)
        want = (f"k {k.value:.12g} a {a} b {b} intensity {self.box_intensity[(a, b)]:.12g} "
                f"extinct {str(is_extinct(k)).lower()}\n")
        ck("cli.exit_codes", (rc1, rc2) == (0, 0), f"exit codes {rc1}, {rc2}")
        ck("cli.modelset_k", out_file.read_text() == want,
           f"{out_file.read_text()!r} != {want!r}")


@dataclass(frozen=True)
class LocalSizes:
    fib_half: int
    max_len: int
    points: int
    k_radius: float
    z_max: float


class LocalPatterns(Workload):
    """Word and K-cluster statistics; no spectral calls."""

    name = "local-patterns"
    FULL = LocalSizes(2**16, 4, 100000, 1.1, 10.0)
    WARM = LocalSizes(2**8, 4, 2000, 1.1, 10.0)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.w_long = unit_phase(self.rng) * (0.5 + float(self.rng.random()))
        self.w_short = unit_phase(self.rng) * (0.5 + float(self.rng.random()))

    def jobs(self):
        return (self.words, self.chain, self.clusters, self.pair_correlation)

    def words(self, tr, ck, z):
        fib = tr.call("subshift.fixed_point_window", fixed_point_window,
                      rule_by_name("fibonacci"), 0, z.fib_half, work=sites)
        n = len(fib)
        table = tr.call("subshift.build_frequency_table", build_frequency_table, fib,
                        z.max_len, work=lambda _t: {
                            "subshift.words": sum(n - ell + 1 for ell in range(1, z.max_len + 1))})
        ck("words.count", len(table.freqs) == EXPECTED["fibonacci_words_le4"],
           f"{len(table.freqs)} words")
        words = list(table.freqs)
        worst = 0.0
        for i in np.random.default_rng(self.seed).permutation(len(words)):
            word = words[i]
            eta = tr.call("correlation.autocorr_via_spectral_inner",
                          autocorr_via_spectral_inner, fib, indicator_block_map(word), 0,
                          work=lambda _e, w=word: {"correlation.lag_pairs": n - len(w) + 1})
            worst = max(worst, abs(eta.value(0).real - table.freqs[word]))
        ck("words.lag0_vs_count", worst <= EXPECTED["word_freq_tol"], f"dev {worst:.3g}")
        letter_dev = max(abs(table.freqs[(0,)] - GOLDEN), abs(table.freqs[(1,)] - (1 - GOLDEN)))
        ck("words.letters_vs_pf", letter_dev <= EXPECTED["word_freq_tol"], f"dev {letter_dev:.3g}")

    def chain(self, tr, ck, z):
        """The chain shared by the cluster and pair-correlation jobs."""
        self.ps = tr.call("modelset.silver_mean_chain", silver_mean_chain, z.points)

    def clusters(self, tr, ck, z):
        chain = self.ps
        interior = interior_points(chain, z.k_radius)
        found = tr.call("delone.enumerate_k_clusters", enumerate_k_clusters, chain,
                        z.k_radius, work=lambda cs: {"delone.interior_points": interior,
                                                     "delone.clusters": len(cs)})
        counts = [n for _, n in found]
        ck("clusters.counts", counts == EXPECTED["cluster_counts"], f"{counts}")
        worst = 0.0
        rel_total = 0.0
        scan = {"delone.interior_points": interior}
        for cluster, n in found:
            fr = tr.call("delone.cluster_frequency", cluster_frequency, chain, cluster,
                         work=lambda _f: scan)
            loc = tr.call("delone.locator_set", locator_set, chain, cluster,
                          work=lambda _l: scan)
            i0 = tr.call("modelset.intensity_at", intensity_at, loc, 0.0,
                         work=lambda _i, m=len(loc): {"modelset.exact_terms": m})
            rel_total += fr.relative
            worst = max(worst, abs(i0 - fr.absolute**2) / fr.absolute**2)
            ck("clusters.locator_count", fr.count == len(loc) == n,
               f"frequency {fr.count}, locator {len(loc)}, enumerated {n}")
        ck("clusters.zero_mode", worst <= EXPECTED["zero_mode_rel_tol"], f"rel {worst:.3g}")
        dev = abs(rel_total - 1.0)
        ck("clusters.relative_sum", dev <= EXPECTED["relative_sum_tol"], f"dev {dev:.3g}")

    def pair_correlation(self, tr, ck, z):
        chain = self.ps
        comb = tr.call("modelset.weighted_silver_comb", weighted_silver_comb, chain,
                       self.w_short, self.w_long)
        pc = tr.call("correlation.autocorr_pointset", autocorr_pointset, comb, z.z_max,
                     work=lambda p: {"correlation.point_diffs": int(p.counts[p.diffs >= 0].sum())})
        # expected eta(0): squared weights of the tiles each point begins,
        # classified from the float gaps (long ~ 2.414, short = 1)
        n_long = int(np.count_nonzero(np.diff(chain.coords) > 1.5))
        n_short = len(chain) - 1 - n_long
        want = (n_long * abs(self.w_long) ** 2 + n_short * abs(self.w_short) ** 2) / comb.extent
        got = pc.value(0.0).real
        ck("pairs.eta0", abs(got - want) <= EXPECTED["eta0_rel_tol"] * want,
           f"{got!r} vs {want!r}")
        ck("pairs.diff_count", len(pc.diffs) == EXPECTED["point_diffs_within_10"],
           f"{len(pc.diffs)} differences")
        ck("pairs.hermitian", bool(np.all(pc.values == np.conj(pc.values[::-1]))),
           "eta(-z) != conj(eta(z))")


WORKLOADS = {w.name: w for w in (SeqSpectrum, PointsetExact, LocalPatterns)}


def environment() -> dict:
    """Machine and library versions recorded with every result."""
    import platform

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ld = np.finfo(np.longdouble)
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "diffspec": diffspec.__version__,
        "longdouble_precision": int(ld.precision),
        "longdouble_mantissa_bits": int(ld.nmant) + 1,
    }
