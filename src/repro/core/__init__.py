"""The paper's primary contribution: the EBS accuracy-evaluation methodology.

This package implements the profiler post-processing side (sample
attribution, the LBR-based IP+1 offset fix, full-LBR basic-block accounting),
the accuracy-error metric of Section 3.3, the Table 3 method catalogue, and
the experiment harness that regenerates Tables 1 and 2.
"""

from repro.core.profile import Profile
from repro.core.accuracy import AccuracyResult, accuracy_error, profile_error
from repro.core.attribution import attribute_plain, block_of_samples
from repro.core.ip_fix import attribute_with_ip_fix
from repro.core.lbr_counts import lbr_block_exec_counts, attribute_lbr
from repro.core.methods import (
    Attribution,
    MethodSpec,
    METHOD_KEYS,
    METHODS,
    ResolvedMethod,
    get_method,
    method_available,
    resolve_method,
)
from repro.core.stats import (
    AccuracyStats,
    geometric_mean,
    improvement_factor,
    summarize_errors,
)
from repro.core.runner import cell_seed, evaluate_method, run_method
from repro.core.cache import (
    ArtifactCache,
    CACHE_FORMAT_VERSION,
    CacheStats,
    cache_digest,
    default_cache_root,
    resolve_cache,
)
from repro.core.experiment import (
    CellScores,
    CellSpec,
    DEFAULT_MACHINES,
    ExperimentConfig,
    Harness,
)
from repro.core.parallel import evaluate_cells, plan_cells
from repro.core.tables import (
    TABLE_METHOD_KEYS,
    TableResult,
    build_table1,
    build_table2,
    render_table3,
)
from repro.core.functions import (
    RankComparison,
    compare_top_functions,
    reference_top_functions,
)
from repro.core.compare import ClaimResult, evaluate_all_claims
from repro.core.ablation import SweepResult, sweep_period, sweep_uarch_parameter
from repro.core.recommendations import Recommendation, recommend_method
from repro.core.tripcounts import (
    LoopEstimate,
    estimate_tripcounts,
    find_loop_backedges,
    true_mean_trips,
)
from repro.core.export import load_table_json, table_to_csv, table_to_json
from repro.core.validation import (
    BatchDiagnostics,
    assert_healthy,
    diagnose_batch,
)

__all__ = [
    "Profile",
    "AccuracyResult",
    "accuracy_error",
    "profile_error",
    "attribute_plain",
    "block_of_samples",
    "attribute_with_ip_fix",
    "lbr_block_exec_counts",
    "attribute_lbr",
    "Attribution",
    "MethodSpec",
    "METHODS",
    "METHOD_KEYS",
    "ResolvedMethod",
    "get_method",
    "method_available",
    "resolve_method",
    "AccuracyStats",
    "geometric_mean",
    "improvement_factor",
    "summarize_errors",
    "cell_seed",
    "evaluate_method",
    "run_method",
    "ArtifactCache",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "cache_digest",
    "default_cache_root",
    "resolve_cache",
    "CellScores",
    "CellSpec",
    "ExperimentConfig",
    "Harness",
    "DEFAULT_MACHINES",
    "evaluate_cells",
    "plan_cells",
    "TableResult",
    "TABLE_METHOD_KEYS",
    "build_table1",
    "build_table2",
    "render_table3",
    "RankComparison",
    "compare_top_functions",
    "reference_top_functions",
    "ClaimResult",
    "evaluate_all_claims",
    "SweepResult",
    "sweep_period",
    "sweep_uarch_parameter",
    "Recommendation",
    "recommend_method",
    "LoopEstimate",
    "estimate_tripcounts",
    "find_loop_backedges",
    "true_mean_trips",
    "table_to_csv",
    "table_to_json",
    "load_table_json",
    "BatchDiagnostics",
    "diagnose_batch",
    "assert_healthy",
]
