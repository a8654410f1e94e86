"""Identifying codes on graphs: verification, exact and greedy solvers,
randomized edge-deletion sparsification, complement-graph codes, watching
systems, and the analytic bounds backing them.
"""

import types

from .bounds import (
    BoundReport,
    alpha0,
    bipartite_subgraph_bound,
    bound_names,
    chernoff_constant,
    edge_deletion_sensitivity_bound,
    evaluate,
    gnp_idcode_prediction,
    idcode_lower_bound,
    sparse_edge_threshold,
)
from .codes import (
    InvalidCodeError,
    UndominatedVertex,
    UnseparatedPair,
    Verdict,
    is_dominating,
    is_identifying_code,
    is_locating_dominating,
    is_separating,
    signature,
)
from .complement import (
    ComplementNotTwinFreeError,
    EquivClassPartition,
    NoSeparatorError,
    complement_code,
    equivalence_classes,
    separate_class,
)
from .graphs import (
    FamilySpec,
    FormatError,
    Graph,
    complement,
    complete,
    complete_bipartite,
    connected_cliques,
    cycle,
    degree_stats,
    disjoint_cliques,
    dist2_pairs,
    find_twins,
    generate,
    gnp,
    least_twins,
    parse_edge_list,
    path,
    star,
    to_dot,
    write_edge_list,
)
from .solvers import (
    NotTwinFreeError,
    SearchResult,
    exact_min_dominating,
    exact_min_idcode,
    greedy_dominating,
    greedy_idcode,
)
from .sparsify import (
    DegenerateGraphError,
    InfeasibleProbabilityError,
    MaxDegreeError,
    RetriesExhaustedError,
    SparsifyParams,
    SparsifyResult,
    SparsifyStats,
    TrialRecord,
    Violation,
    bounded_f,
    check_events,
    pair_collision_frequency,
    pick_code,
    sample_subgraph,
    sparsify,
)
from .watching import (
    NotDominatingError,
    WatchBounds,
    Watcher,
    WatchingSystem,
    ZoneOutOfNeighborhoodError,
    verify_watching,
    watch_bounds,
    watching_binary,
    watching_from_subgraph_code,
)

__version__ = "0.1.0"

# the public names are the classes and functions the lists above import;
# the submodules they load are bound here too, and are not public names
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, types.ModuleType)
)
