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
    property_counts,
    property_mask,
)
from .configuration import (
    DegreeSequence,
    MultiGraph,
    Pairing,
    apply_switching,
    conf_distance,
    is_simple,
    load_degree_sequence,
    sample_degree_sequence,
    sample_multigraph,
    sample_pairing,
    sample_simple,
    to_multigraph,
)
from .distributions import (
    Distribution,
    from_json_doc,
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
    retention_levels,
    split,
)

__version__ = "0.1.0"
