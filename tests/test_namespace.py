"""The package namespace, resolved lazily, and the result records.

``import orbitflow`` loads ``errors`` alone and resolves every other public
name on first access; each name must still be the object its module
defines.  The plain result records are NamedTuples: immutable, unpackable,
equal to the tuple of their fields.
"""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import orbitflow
from orbitflow import (BirkhoffData, CountResult, DirectionData, DirectionHull,
                       EquidistributionResult, GenerationCheck, MargulisCount, MarkovMeasure,
                       PerronData, SweepRow)

# every name the package exported when it imported all its modules eagerly
EXPORTED = {
    "errors": """BudgetExceeded DegenerateModel DimensionMismatch EmptySelection InfiniteQuotient
        InvalidArgument InvalidGraph InvalidTree MissingChordValue MissingEdge MissingEdgeValue
        MissingEdgeWeight ModelSyntaxError NoMeridians NonConvergence NotPrimitive OrbitflowError
        OutsideCone RoofNotUnit SingularHessian UnknownModel ValidationError""",
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
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def run(code: str):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module,name", NAMES)
def test_exported_name_is_its_modules_object(module, name):
    value = getattr(orbitflow, name)
    assert value is getattr(importlib.import_module(f"orbitflow.{module}"), name)
    assert name in orbitflow.__all__ and name in dir(orbitflow)


def test_all_and_dir_list_the_same_names():
    assert sorted(orbitflow.__all__) == sorted(dir(orbitflow)) == sorted(n for _, n in NAMES)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from orbitflow import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"orbitflow.{module}"), name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        orbitflow.no_such_name
    assert not hasattr(orbitflow, "no_such_name")


def test_import_loads_errors_alone():
    loaded = run("import json, sys, orbitflow\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('orbitflow.'))))")
    assert loaded == ["orbitflow.errors"]


def test_first_access_loads_its_module_and_what_it_imports():
    loaded = run("import json, sys, orbitflow\n"
                 "orbitflow.DirectedGraph, orbitflow.thermo\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('orbitflow.'))))")
    assert loaded == ["orbitflow.errors", "orbitflow.graphs", "orbitflow.thermo",
                      "orbitflow.weights"]


# each record with its fields in order and hashable stand-in values
RECORDS = [
    (CountResult, ("exact", "predicted", "ratio", "target_class"), (3, 2.5, 1.2, (1, 0))),
    (SweepRow, ("T", "delta", "target_class", "exact", "predicted", "ratio"),
     (10.0, 1.0, (5,), 3, 2.5, 1.2)),
    (MargulisCount, ("exact", "reference"), (7, 6.5)),
    (EquidistributionResult, ("empirical", "expected", "n_orbits"), (0.5, 0.25, 4)),
    (DirectionHull, ("points", "vertices", "dim"), (((0.0,), (1.0,)), ((0.0,), (1.0,)), 1)),
    (DirectionData, ("rho", "u", "entropy", "pressure_at_u", "hessian_h"),
     ((0.3,), (-0.8,), 0.6, 0.4, -2.0)),
    (PerronData, ("eigenvalue", "right", "left", "stationary", "transition", "fundamental"),
     (2.0, (1.0,), (1.0,), (1.0,), (1.0,), (1.0,))),
    (MarkovMeasure, ("stationary", "transition", "edge_measure"), ((1.0,), (1.0,), 1.0)),
    (BirkhoffData, ("length", "class_vector"), (3.0, (1, -1))),
    (GenerationCheck, ("generates", "lattice_invariants", "rank"), (True, (1, 2), 2)),
]


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_a_named_tuple(cls, fields, values):
    rec = cls(*values)
    assert cls._fields == fields
    assert tuple(rec) == values and rec == values
    assert [getattr(rec, f) for f in fields] == list(values)
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    twin = cls(**dict(zip(fields, values)))
    assert twin == rec and hash(twin) == hash(rec)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])


def test_records_from_the_library_unpack(bench3):
    g, w = bench3.graph, bench3.weights
    exact, reference = orbitflow.margulis_total(g, w, bench3.removed, 6.0)
    assert (exact, reference) == orbitflow.margulis_total(g, w, bench3.removed, 6.0)
    dd = orbitflow.solve_u(g, w, orbitflow.pressure_gradient(g, w, [0.1, -0.2]))
    rho, u, entropy, pressure, hess = dd
    assert np.allclose(u, [0.1, -0.2]) and hess is dd.hessian_h
