"""Autocorrelation and diffraction toolkit for one-dimensional aperiodic order.

Builds substitution fixed-point windows and quasiperiodic point sets,
pushes them through sliding-block factors, and estimates their
diffraction: Bragg peak detection over candidate frequencies, Fejer
densities on the circle, exact extinction tests for the silver-mean
chain, and the property suites tying the routes together.
"""

from .correlation import (
    CorrelationSeq,
    PointCorrelation,
    autocorr_pointset,
    autocorr_symbolic,
    autocorr_via_spectral_inner,
)
from .delone import (
    Cluster,
    ClusterFrequency,
    PointSet1D,
    cluster_frequency,
    enumerate_k_clusters,
    locator_set,
    smooth_comb,
    tent_ft,
)
from .errors import DiffspecError
from .factors import (
    BlockCheck,
    BlockMap,
    apply_block_map,
    check_block_image,
    identity_map,
    indicator_block_map,
    xor_map,
)
from .modelset import (
    FourierModuleElement,
    InflationReport,
    inflate_factor,
    intensity_at,
    intensity_table_at,
    is_extinct,
    module_box,
    silver_mean_chain,
    verify_inflation_identity,
    weighted_silver_comb,
)
from .spectral import (
    Atom,
    MeasureOnGrid,
    SpectralEstimate,
    UniformGrid,
    detect_atoms,
    intensity_ratios,
    intensity_table,
    kronecker_candidates,
    nu_family,
    sobol_candidates,
    spectral_distribution,
)
from .subshift import (
    SubstitutionRule,
    SymbolicWindow,
    build_frequency_table,
    collared,
    dictionary,
    fixed_point_window,
    letter_frequencies_pf,
    parse_rule,
    rule_by_name,
    word_frequency_empirical,
)
from .verify import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BlockCheck",
    "BlockMap",
    "Cluster",
    "ClusterFrequency",
    "CorrelationSeq",
    "DiffspecError",
    "FourierModuleElement",
    "InflationReport",
    "MeasureOnGrid",
    "PointCorrelation",
    "PointSet1D",
    "SpectralEstimate",
    "SubstitutionRule",
    "SuiteReport",
    "SUITE_NAMES",
    "SymbolicWindow",
    "UniformGrid",
    "apply_block_map",
    "autocorr_pointset",
    "autocorr_symbolic",
    "autocorr_via_spectral_inner",
    "build_frequency_table",
    "check_block_image",
    "cluster_frequency",
    "collared",
    "detect_atoms",
    "dictionary",
    "enumerate_k_clusters",
    "fixed_point_window",
    "identity_map",
    "indicator_block_map",
    "inflate_factor",
    "intensity_at",
    "intensity_ratios",
    "intensity_table",
    "intensity_table_at",
    "is_extinct",
    "kronecker_candidates",
    "letter_frequencies_pf",
    "locator_set",
    "module_box",
    "nu_family",
    "parse_rule",
    "rule_by_name",
    "run_suite",
    "silver_mean_chain",
    "smooth_comb",
    "sobol_candidates",
    "spectral_distribution",
    "tent_ft",
    "verify_inflation_identity",
    "weighted_silver_comb",
    "word_frequency_empirical",
    "xor_map",
]
