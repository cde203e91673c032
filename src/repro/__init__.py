"""repro — reproduction of "Establishing a Base of Trust with Performance
Counters for Enterprise Workloads" (Nowak et al., USENIX ATC 2015).

The library simulates the paper's entire experimental stack — a synthetic
ISA, three out-of-order machines (Westmere, Ivy Bridge, Magny-Cours), their
PMUs (skid/shadow, PEBS, PDIR, IBS, LBR), the Table 3 sampling-method ladder,
exact reference instrumentation, and the kernel/application workloads — and
regenerates the paper's accuracy tables.

Quickstart::

    from repro import Machine, IVY_BRIDGE, evaluate_method, get_workload

    workload = get_workload("latency_biased")
    execution = Machine(IVY_BRIDGE).execute(workload.build())
    stats = evaluate_method(execution, "lbr", base_period=2000, seeds=range(5))
    print(stats.mean_error)
"""

from repro._version import __version__
from repro.errors import (
    AnalysisError,
    EvaluationAborted,
    ExecutionError,
    PMUConfigError,
    ProgramError,
    ReproError,
    RequestError,
    ServeError,
    SweepError,
    WorkloadError,
)
from repro.isa import (
    BasicBlock,
    BlockKind,
    Function,
    Instruction,
    LatencyClass,
    Opcode,
    Program,
    ProgramBuilder,
)
from repro.cpu import (
    ALL_UARCHES,
    Execution,
    IVY_BRIDGE,
    MAGNY_COURS,
    Machine,
    Microarchitecture,
    Trace,
    WESTMERE,
    get_uarch,
    run_program,
)
from repro.pmu import (
    Event,
    EventKind,
    LBRFacility,
    PeriodPolicy,
    Precision,
    Randomization,
    SampleBatch,
    SamplingConfig,
)
from repro.instrumentation import ReferenceCounts, collect_reference
from repro.obs import Collector, collecting, count, gauge, span
from repro.core import (
    AccuracyStats,
    ArtifactCache,
    CellSpec,
    ExperimentConfig,
    Harness,
    MethodSpec,
    METHOD_KEYS,
    METHODS,
    Profile,
    TableResult,
    accuracy_error,
    evaluate_method,
    get_method,
    run_method,
)
from repro.workloads import Workload, get_workload, list_workloads
from repro import api
from repro.api import (
    API_SCHEMA_VERSION,
    CACHE_STATS_SCHEMA_VERSION,
    CacheConfig,
    CampaignResult,
    CampaignSpec,
    EvaluateRequest,
    EvaluateResult,
    FleetConfig,
    FleetReport,
    TierStats,
    evaluate_cell,
    evaluate_request,
    load_campaign,
    load_table,
    run_campaign,
    run_table1,
    run_table2,
    save_table,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ProgramError",
    "ExecutionError",
    "PMUConfigError",
    "WorkloadError",
    "AnalysisError",
    "SweepError",
    "RequestError",
    "ServeError",
    "EvaluationAborted",
    # isa
    "Opcode",
    "LatencyClass",
    "Instruction",
    "BasicBlock",
    "BlockKind",
    "Function",
    "Program",
    "ProgramBuilder",
    # cpu
    "Microarchitecture",
    "WESTMERE",
    "IVY_BRIDGE",
    "MAGNY_COURS",
    "ALL_UARCHES",
    "get_uarch",
    "Machine",
    "Execution",
    "Trace",
    "run_program",
    # pmu
    "Event",
    "EventKind",
    "Precision",
    "PeriodPolicy",
    "Randomization",
    "SamplingConfig",
    "SampleBatch",
    "LBRFacility",
    # instrumentation
    "ReferenceCounts",
    "collect_reference",
    # observability
    "Collector",
    "collecting",
    "count",
    "gauge",
    "span",
    # core
    "Profile",
    "accuracy_error",
    "AccuracyStats",
    "MethodSpec",
    "METHODS",
    "METHOD_KEYS",
    "get_method",
    "run_method",
    "evaluate_method",
    # stable facade (repro.api)
    "api",
    "API_SCHEMA_VERSION",
    "CACHE_STATS_SCHEMA_VERSION",
    "ArtifactCache",
    "CacheConfig",
    "TierStats",
    "CellSpec",
    "EvaluateRequest",
    "EvaluateResult",
    "ExperimentConfig",
    "Harness",
    "TableResult",
    "evaluate_cell",
    "evaluate_request",
    "run_table1",
    "run_table2",
    "load_table",
    "save_table",
    # campaigns (repro.sweep)
    "CampaignResult",
    "CampaignSpec",
    "FleetConfig",
    "FleetReport",
    "load_campaign",
    "run_campaign",
    # workloads
    "Workload",
    "get_workload",
    "list_workloads",
]
