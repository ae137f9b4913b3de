"""Monitoring of spatio-temporal specifications with graph operators over
multi-agent runs: parsing, centralized Boolean monitoring, distributed
three-valued monitoring with determinability analysis, and encodings of
counting / distance / trace properties from neighboring logics."""

from .model import (
    Edge,
    GraphTrajectory,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    TimeOutOfRangeError,
    UnknownGraphTypeError,
    agent_neighbors,
)
from .formula import (
    AgentBind,
    AgentStateVar,
    Always,
    And,
    Atom,
    BinFn,
    BinOp,
    Const,
    CountSet,
    Eventually,
    ExistsAgent,
    ForAllAgents,
    GlobalAtom,
    GlobalFormula,
    GraphOp,
    Implies,
    LocalFormula,
    Not,
    Or,
    StateVar,
    TimeInterval,
    Truth,
    UnaryFn,
    Until,
    WeightInterval,
    horizon,
    lower,
)
from .parser import ParseError, SourceSpan, parse_global, parse_local, print_formula
from .central import (
    InsufficientTraceError,
    Signal,
    monitor_global,
    monitor_local,
    oracle_eval,
    oracle_eval_global,
)
from .distributed import (
    DeterminabilityReport,
    KnowledgeMask,
    is_determinable,
    monitor_dist,
    refine,
)
from .translators import (
    anchor_subgraph,
    count_set_for,
    enumerate_traces,
    labeled_subgraph,
    normalize_labels,
    psi_graph_tag,
    shortest_distance_graph,
    shortest_distance_map,
    translate_sastl_count,
    translate_sstl,
    translate_strel,
)
from .scenario import (
    BikeScenarioConfig,
    DroneScenarioConfig,
    export_station_csv,
    gen_bike,
    gen_drone,
    ingest_station_csv,
)

__version__ = "0.1.0"
