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

`import mapprox` loads `errors`, `structure`, `localtypes`, `equivalence`,
`simplex`, `fmtp`, `realize`, `compress` and `mapfile`.  `logic` and
`randgen`, which no other layer imports but `cli`, load on first use: the
first read of `mapprox.logic`, `mapprox.randgen` or one of the names the
package re-exports from them (`mapprox.parse`, `mapprox.random_mapping`,
...) imports the module, and the name is then the module's own object.
"""

from importlib import import_module

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

__version__ = "0.1.0"

# Re-exported name -> the module that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        (
            "Formula",
            "Interpretation",
            "apply_interpretation",
            "build_delta",
            "evaluate",
            "formula_to_text",
            "parse",
            "rank",
            "stone_pairing",
            "translate",
        ),
        "logic",
    ),
    **dict.fromkeys(("cycle_statistics", "random_mapping"), "randgen"),
}


def __getattr__(name: str):
    # Only names missing from the package's globals reach here (PEP 562).
    # Importing a submodule binds it in the globals, so each lazy module,
    # and each name once cached below, is looked up here once.
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | set(_LAZY.values()))
