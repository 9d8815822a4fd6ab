"""The input rules each caller shares: every edge has a value, a vector
has the class dimension, a roof is positive and finite where it is read, a
cycle is not empty.  Each rule has one author, so every caller refuses with
the same error and the same one line.  The table also pins refusals that
no other test reaches."""

import math
import re

import numpy as np
import pytest

from orbitflow import (
    ChordAssignment,
    CountQuery,
    DimensionMismatch,
    DirectedGraph,
    DirectionData,
    EmptySelection,
    FiniteQuotient,
    InvalidArgument,
    InvalidTree,
    MarkovMeasure,
    MissingEdgeValue,
    MissingEdgeWeight,
    NonConvergence,
    PrimeCycle,
    WeightSystem,
    SingularHessian,
    birkhoff,
    canonical_form,
    chebotarev_distribution,
    cycle_table,
    direction_hull,
    entropy_hessian,
    enumerate_prime_cycles,
    equidistribution_test,
    flow_pressure,
    generation_check,
    integrate_observable,
    margulis_total,
    perron,
    scan_cycles,
    solve_u,
    target_class,
    trace_prime_count,
    trace_prime_counts_table,
    weights_from_chords,
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
PHI_NOT_FINITE = {(1, 1): 1.0, (1, 2): math.nan, (2, 1): 0.5, (2, 2): -math.inf}
NOT_FINITE = "observable not finite on edges: [(1, 2), (2, 2)]"
OVERFLOW = "the average of the observable overflows a float"

WEIGHTS = "edges without weights: [(2, 2)]"
ONE_D = "has length 2, class dimension is 1"
ROOF = "roof must be positive and finite, got {} on edge {}"
NOT_INT = "period bound must be an integer, got {}"
TWO_CYCLE = DirectedGraph(2, ((1, 2), (2, 1)))
PATH3 = DirectedGraph(3, ((1, 2), (2, 1), (2, 3), (3, 2)))


def edited(roof):
    """full2's weights with the roof of (2, 2) set to roof in place, after
    construction checked it."""
    w = full2_weights()
    w.roof[(2, 2)] = roof
    return w


# every reader of a roof that checks it, called on weights edited in place
ROOF_READS = {
    "scan": lambda w: scan_cycles(FULL2, w.roof, w.classes, 4),
    "flow_pressure": lambda w: flow_pressure(FULL2, w, [0.0]),
    "margulis_total": lambda w: margulis_total(FULL2, w, (), 5.0),
    "cycle_table": lambda w: cycle_table(FULL2, w, 5.0),
    "birkhoff": lambda w: birkhoff(PrimeCycle((2,)), w),
    "integrate_observable": lambda w: integrate_observable(MEASURE, w, W.roof),
}

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
    "equidistribution_test, not finite": (
        lambda: equidistribution_test(FULL2, W, DD, Q, PHI_NOT_FINITE), InvalidArgument, NOT_FINITE),
    "integrate_observable, not finite": (
        lambda: integrate_observable(MEASURE, W, PHI_NOT_FINITE), InvalidArgument, NOT_FINITE),
    # finite values whose sums overflow: refused, with no RuntimeWarning
    "equidistribution_test, overflow": (
        lambda: equidistribution_test(FULL2, W, DD, Q, dict.fromkeys(FULL2.edges, 1e308)),
        NonConvergence, OVERFLOW),
    "integrate_observable, overflow": (
        lambda: integrate_observable(MEASURE, full2_weights(0.5), dict.fromkeys(FULL2.edges, 1e308)),
        NonConvergence, OVERFLOW),
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
    "WeightSystem, roof": (lambda: WeightSystem(0, 1, {(1, 1): 0.0}, {(1, 1): (0,)}),
                           InvalidArgument, ROOF.format(0.0, (1, 1))),
    **{f"{caller}, roof edited to {r}": (lambda call=call, r=r: call(edited(r)),
                                         InvalidArgument, ROOF.format(r, (2, 2)))
       for caller, call in ROOF_READS.items() for r in (0.0, -1.0, math.nan)},
    "scan, class lengths": (
        lambda: scan_cycles(FULL2, W.roof, {**W.classes, (1, 2): (1, 0)}, 3),
        DimensionMismatch, "value on edge (1, 2) has shape (2,), not (1,)"),
    "FiniteQuotient.from_lattice, reduce": (
        lambda: FiniteQuotient.from_lattice([[2, 0], [0, 2]]).reduce((1,)),
        DimensionMismatch, "class vector has length 1, class dimension is 2"),
    "perron, shape": (lambda: perron(np.ones((2, 3))), InvalidArgument,
                      "expected a square matrix, got shape (2, 3)"),
    "perron, sign": (lambda: perron([[1, -1], [1, 1]]), InvalidArgument,
                     "matrix must be nonnegative"),
    "WeightSystem, coverage": (lambda: WeightSystem(0, 1, {(1, 2): 1.0}, {(2, 1): (0,)}),
                               InvalidArgument, "roof and classes must cover the same edges"),
    "weights_from_chords, not an edge": (
        lambda: weights_from_chords(TWO_CYCLE, ChordAssignment(1, ((1, 1),), {})),
        InvalidTree, "tree edge (1,1) is not an edge of the graph"),
    "weights_from_chords, duplicate": (
        lambda: weights_from_chords(PATH3, ChordAssignment(1, ((1, 2), (2, 1)), {})),
        InvalidTree, "tree edges (2,1) duplicate the undirected edge (1, 2)"),
    "chebotarev_distribution, empty": (
        lambda: chebotarev_distribution(TWO_CYCLE, full2_weights(skip=[(1, 1), (2, 2)]), (),
                                        FiniteQuotient.from_modulus(2, 1), 1),
        EmptySelection, "no prime cycles within the probed period"),
    **{f"{caller}, period bound {n}": (lambda call=call, n=n: call(n), InvalidArgument,
                                       NOT_INT.format(n))
       for caller, call, n in (
           ("scan", lambda n: scan_cycles(FULL2, W.roof, W.classes, n), 2.5),
           ("enumerate_prime_cycles", lambda n: enumerate_prime_cycles(FULL2, n), 2.5),
           ("direction_hull", lambda n: direction_hull(FULL2, W, n), 2.5),
           ("generation_check", lambda n: generation_check(FULL2, W, n), 2.5),
           ("trace_prime_counts_table", lambda n: trace_prime_counts_table(FULL2, W, n), 2.5),
           ("trace_prime_count", lambda n: trace_prime_count(FULL2, W, n, (0,)), 5.0),
           ("chebotarev_distribution", lambda n: chebotarev_distribution(
               FULL2, W, (), FiniteQuotient.from_modulus(2, 1), n), 1.5))},
    "entropy_hessian, not finite": (
        lambda: entropy_hessian(DirectionData((0.5,), (0.0,), 0.5, 0.5, np.array([[np.nan]]))),
        SingularHessian, "entropy Hessian is not finite"),
    "entropy_hessian, not negative definite": (
        lambda: entropy_hessian(DirectionData((0.5,), (0.0,), 0.5, 0.5, np.array([[1.0]]))),
        SingularHessian, "entropy Hessian not negative definite (max eigenvalue 1)"),
}


@pytest.mark.parametrize("caller", INPUT_REFUSALS)
def test_input_refusal_message(caller):
    call, error, message = INPUT_REFUSALS[caller]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
