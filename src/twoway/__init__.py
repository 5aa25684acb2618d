"""Two-way finite automata workbench: hand-built and compiled machines over
split inputs x #^n y, communication-protocol extraction, and time-space
measurement.

The central pipeline: take a quantum query algorithm for f, plug in a
two-party gadget g, and produce a two-way machine recognizing the lifted
language {x #^n y : f(g(x_1,y_1), ..., g(x_p,y_p)) = 1} whose acceptance
probabilities match the algorithm's to floating-point accuracy. Hand-built
deterministic and probabilistic equality machines provide the classical
baselines, and the harness measures how T * S scales with n.
"""

from .errors import (
    TwoWayError,
    InputError,
    SpecError,
    UnsupportedStructureError,
    NonHaltingError,
    RefusalError,
)
from .boolfn import (
    BoolFunction,
    Gadget,
    ComposedFunction,
    LanguageSpec,
    and_fn,
    or_fn,
    xor_fn,
    ne_fn,
    and_gadget,
    ip_gadget,
    eq_language,
    ints_language,
    rne_language,
    lifted_language,
    membership,
    parse_function,
    parse_gadget,
    parse_language,
)
from .automata import (
    TwoWayDfa,
    TwoWayPfa,
    TwoWayQcfa,
    RunTrace,
    ExactRunResult,
    CostReport,
    run_dfa,
    run_pfa_sample,
    pfa_exact,
    qcfa_exact,
    qcfa_sample,
    cost_report,
    dfa_from_table,
    pfa_from_table,
)
from .handcrafted import (
    PrimeTable,
    build_eq_dfa,
    build_eq_pfa,
    eq_pfa_exact_prob,
    eq_dfa_time,
    eq_pfa_time,
)
from .qquery import (
    QueryAlgorithm,
    Segment,
    Decision,
    DecisionRows,
    per_outcome,
    RegisterLayout,
    DecisionTree,
    grover_or,
    exact_parity,
    run_query_alg,
    run_query_alg_lanes,
    parse_query_algorithm,
    build_optimal_dt,
    dt_optimal_depth,
)
from .compiler import (
    CompilationReport,
    compile_query_to_qcfa,
    run_compiled,
    run_compiled_lanes,
    verify_segment_equivalence,
)
from .commlab import (
    ProtocolMessage,
    ProtocolTranscript,
    FunctionMatrix,
    extract_protocol,
    machine_space,
    bruteforce_dcc,
    block_exchange_protocol,
    composed_protocol_cost,
    fingerprint_protocol,
    eq_matrix,
)
from .harness import (
    SweepRow,
    FitResult,
    FAMILIES,
    sweep_ts,
    fit_scaling,
    write_rows,
    read_rows,
    certificate_check,
)
from .serialize import (
    machine_to_json,
    load_machine,
    algorithm_to_json,
    load_algorithm,
    report_to_json,
    transcript_to_json,
    save_json,
    load_json,
)

__version__ = "0.1.0"
