"""Configuration-model random graphs, branching-process limits, percolation.

The package is organized around the pipeline used throughout:

- ``distributions``: finite integer laws and their derived laws.
- ``branching``: survival fixed point, small-tree table, limit-tree probabilities.
- ``configuration``: degree sequences, uniform pairings, multigraphs.
- ``census``: components, local properties and their vectorized counts.
- ``percolation``: red/blue edge coloring and thinning.
- ``labcli``: seeded experiment commands and serialization.
"""

from .branching import (
    ProgenyTable,
    SurvivalSolution,
    critical_percolation,
    giant_degree_fractions,
    limit_probability,
    rho,
    rho_k_table,
    solve_x_plus,
)
from .census import (
    ComponentCensus,
    ComponentSizeAtLeast,
    ComponentSizeExactly,
    Conjunction,
    LocalProperty,
    MaxDegreeBall,
    RootDegree,
    components,
    count_property,
    count_property_in_giant,
    property_mask,
)
from .configuration import (
    DegreeSequence,
    MultiGraph,
    Pairing,
    apply_switching,
    conf_distance,
    degree_counts,
    is_simple,
    load_degree_sequence,
    sample_degree_sequence,
    sample_pairing,
    sample_simple,
    save_degree_sequence,
    save_edge_list,
    tail_mass,
    to_multigraph,
)
from .distributions import (
    Distribution,
    from_json_doc,
    joint_thinning_matrix,
    load_spec,
    mean,
    offspring,
    sample,
    size_biased,
    supercriticality,
    thin,
    to_json_doc,
)
from .errors import (
    BadProbability,
    DegenerateDistribution,
    Exhausted,
    GCLabError,
    InsufficientRadius,
    NoThreshold,
    SamePair,
    SpecParseError,
    UnboundedRadius,
    ZeroMean,
)
from .percolation import (
    ColoredGraph,
    color_edges,
    percolate,
    split,
    thinned_sequence_distance,
)

__version__ = "0.1.0"
