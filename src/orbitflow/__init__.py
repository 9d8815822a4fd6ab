"""Suspension flows over finite directed graphs: pressure, entropy
spectra, and periodic-orbit counting by homology class.

The public names below are resolved on first access (PEP 562, as in
Scientific Python SPEC 1), so ``import orbitflow`` loads only ``errors``
and each submodule is compiled when something of it is first used."""

import importlib
import sys

from .errors import (
    BudgetExceeded,
    DegenerateModel,
    DimensionMismatch,
    EmptySelection,
    InfiniteQuotient,
    InvalidArgument,
    InvalidGraph,
    InvalidTree,
    MissingChordValue,
    MissingEdge,
    MissingEdgeValue,
    MissingEdgeWeight,
    ModelSyntaxError,
    NoMeridians,
    NonConvergence,
    NotPrimitive,
    OrbitflowError,
    OutsideCone,
    RoofNotUnit,
    SingularHessian,
    UnknownModel,
    ValidationError,
)

_EXPORTS = {
    "graphs": """CycleScan DirectedGraph PrimeCycle canonical_form enumerate_prime_cycles
        is_aperiodic scan_cycles validate_graph""",
    "weights": """BirkhoffData ChordAssignment GenerationCheck WeightSystem birkhoff
        generation_check lattice_length_heuristic linking_numbers smith_decomposition
        smith_normal_form weights_from_chords""",
    "thermo": """MarkovMeasure PerronData equilibrium_measure flow_pressure integrate_observable
        perron pressure_gradient pressure_hessian shift_pressure transfer_matrix""",
    "legendre": """DirectionData DirectionHull Membership direction_hull entropy_hessian
        hull_contains membership solve_u""",
    "counting": """ChebotarevResult CountQuery CountResult EquidistributionResult FiniteQuotient
        MargulisCount SweepRow chebotarev_distribution cycle_table equidistribution_test
        evaluate_query exact_window_count floor_class jitter_averaged_ratio margulis_total
        predict_count sweep target_class trace_prime_count trace_prime_counts_table
        window_count_from_table""",
    "models": "ModelSpec builtin_model load_model parse_model serialize_model",
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = [name for name in globals() if name[0].isupper()] + list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """A submodule, or a public name read from its submodule, which is
    imported on first access.  The name is read afresh on every access, not
    cached here, so a rebinding in its submodule (a tracer's wrapper, a
    test's patch, and its removal) shows through the package as well."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:  # a loaded module read directly: import_module costs ~30 us with cold caches
        return getattr(sys.modules[_MODULE_OF[name]], name)
    except (KeyError, AttributeError):  # not loaded, or still loading in another thread
        return getattr(importlib.import_module(_MODULE_OF[name]), name)


def __dir__():
    return list(__all__)
