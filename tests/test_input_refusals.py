"""The input rules each caller shares: every edge has a value, a vector
has the class dimension, a cycle is not empty.  Each rule has one author,
so every caller refuses with the same error and the same one line."""

import re

import pytest

from orbitflow import (
    ChordAssignment,
    CountQuery,
    DimensionMismatch,
    DirectedGraph,
    DirectionData,
    InvalidArgument,
    MarkovMeasure,
    MissingEdgeValue,
    MissingEdgeWeight,
    PrimeCycle,
    WeightSystem,
    birkhoff,
    canonical_form,
    equidistribution_test,
    flow_pressure,
    integrate_observable,
    margulis_total,
    scan_cycles,
    solve_u,
    target_class,
    trace_prime_count,
)

FULL2 = DirectedGraph(2, ((1, 1), (1, 2), (2, 1), (2, 2)))


def full2_weights(roof=1.0, skip=()):
    """full2's roofs and classes (1 on the edges into 2), less the edges in skip."""
    edges = [e for e in FULL2.edges if e not in skip]
    return WeightSystem(0, 1, dict.fromkeys(edges, roof), {e: (int(e[1] == 2),) for e in edges})


UNWEIGHTED = full2_weights(skip=[(2, 2)])          # unit roofs: a total is walked
UNWEIGHTED_SCAN = full2_weights(1.5, [(2, 2)])     # roof 1.5: a total is scanned
W = full2_weights()
Q = CountQuery(T=5.0, delta=1.0, rho=(0.5,), alpha=(0,))
Q2 = CountQuery(T=5.0, delta=1.0, rho=(0.5, 0.5), alpha=(0, 0))
DD = DirectionData(rho=(0.5,), u=(0.0,), entropy=0.5, pressure_at_u=0.5, hessian_h=-1.0)
MEASURE = MarkovMeasure(None, None, dict.fromkeys(FULL2.edges, 0.25))
PHI = {(1, 1): 1.0, (2, 1): 0.5}

WEIGHTS = "edges without weights: [(2, 2)]"
ONE_D = "has length 2, class dimension is 1"

# caller: (call, error, message)
INPUT_REFUSALS = {
    "scan": (lambda: scan_cycles(FULL2, UNWEIGHTED.roof, UNWEIGHTED.classes, 3),
             MissingEdgeWeight, WEIGHTS),
    "margulis_total, walked": (lambda: margulis_total(FULL2, UNWEIGHTED, (), 5.0),
                               MissingEdgeWeight, WEIGHTS),
    "margulis_total, scanned": (lambda: margulis_total(FULL2, UNWEIGHTED_SCAN, (), 5.0),
                                MissingEdgeWeight, WEIGHTS),
    "flow_pressure, unweighted edge": (lambda: flow_pressure(FULL2, UNWEIGHTED, [0.0]),
                                       MissingEdgeWeight, WEIGHTS),
    "flow_pressure, u": (lambda: flow_pressure(FULL2, W, [0.0, 0.0]),
                         DimensionMismatch, "u " + ONE_D),
    "birkhoff": (lambda: birkhoff(PrimeCycle((1, 2, 2)), UNWEIGHTED), MissingEdgeWeight, WEIGHTS),
    "equidistribution_test": (lambda: equidistribution_test(FULL2, W, DD, Q, PHI),
                              MissingEdgeValue, "observable undefined on edges: [(1, 2), (2, 2)]"),
    "integrate_observable": (lambda: integrate_observable(MEASURE, W, PHI),
                             MissingEdgeValue, "observable undefined on edges: [(1, 2), (2, 2)]"),
    "target_class": (lambda: target_class(W, Q2), DimensionMismatch, "rho " + ONE_D),
    "trace_prime_count": (lambda: trace_prime_count(FULL2, W, 3, (0, 0)),
                          DimensionMismatch, "class vector " + ONE_D),
    "solve_u": (lambda: solve_u(FULL2, W, (0.5, 0.5)), DimensionMismatch, "rho " + ONE_D),
    "WeightSystem": (lambda: WeightSystem(0, 1, {(1, 1): 1.0}, {(1, 1): (0, 0)}),
                     DimensionMismatch, "class vector on edge (1, 1) " + ONE_D),
    "ChordAssignment": (lambda: ChordAssignment(1, ((1, 2),), {(2, 2): (1, 1)}),
                        DimensionMismatch, "chord value on edge (2, 2) " + ONE_D),
    "canonical_form": (lambda: canonical_form(FULL2, ()), InvalidArgument, "empty vertex sequence"),
    "PrimeCycle": (lambda: PrimeCycle(()), InvalidArgument, "empty vertex sequence"),
}


@pytest.mark.parametrize("caller", INPUT_REFUSALS)
def test_input_refusal_message(caller):
    call, error, message = INPUT_REFUSALS[caller]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
