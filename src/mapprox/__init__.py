"""Local-type statistics, mass-transport certificates, and approximation
pipelines for finite mappings: structures with one unary function and
unary predicates.

The modules layer bottom-up: `structure` (mappings, balls, products),
`logic` (guarded formulas, Stone pairings, interpretations), `localtypes`
(rank-r types via the local game, type measures), `equivalence` (global
games and distances), `fmtp` (the finitary mass-transport principle and
its restricted certificates), `realize` (measures back to structures and
the end-to-end pipeline), `compress` (smallest known rank-r equivalent),
`mapfile` and `randgen` and `cli` (formats, corpora, tools).
"""

from .errors import MapproxError
from .structure import (
    FiniteMapping,
    Signature,
    ball,
    connected_components,
    cycle_cut_product,
    cycle_lengths,
    cycle_orbits,
    cyclic_part,
    disjoint_union,
    distance,
    mark_element,
    preimage,
    recover,
    residualize,
    restrict,
    validate,
)
from .logic import (
    Formula,
    Interpretation,
    apply_interpretation,
    build_delta,
    evaluate,
    formula_to_text,
    parse,
    rank,
    stone_pairing,
    translate,
)
from .localtypes import (
    LocalType,
    TypeMeasure,
    TypeTable,
    adm_minus,
    adm_plus,
    global_table,
    local_type,
    measure_tv,
    project,
    transport,
    type_distribution,
    types_equal,
)
from .equivalence import ef_equivalent, fo_dist, ldist
from .fmtp import (
    CompanionCertificate,
    Violation,
    approximate_measure,
    check_fmtp,
    check_realizability_preconditions,
    exhaustive_fmtp_check,
    restricted_fmtp_certificate,
    verify_certificate,
)
from .realize import (
    certificate_digest,
    merge,
    pipeline,
    realize,
    rewire,
    verify_upsilon,
)
from .compress import standard_r_approximation
from .mapfile import read_map, read_measure, write_map, write_measure
from .randgen import cycle_statistics, random_mapping

__version__ = "0.1.0"
