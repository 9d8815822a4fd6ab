"""Model file parsing, serialization round trips, and builtin models."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitflow import (
    ChordAssignment,
    ModelSpec,
    ModelSyntaxError,
    UnknownModel,
    ValidationError,
    WeightSystem,
    builtin_model,
    enumerate_prime_cycles,
    generation_check,
    lattice_length_heuristic,
    load_model,
    parse_model,
    serialize_model,
    weights_from_chords,
)

from orbitflow.models import BUILTIN_NAMES

from conftest import random_strong_graph, random_weights

SAMPLE = """\
[model]
name = full2
b = 0
n_removed = 1
vertices = 2
[edge] from=1 to=1 roof=1.0 class=0
[edge] from=1 to=2 roof=1.0 class=0
[edge] from=2 to=1 roof=1.0 class=0
[edge] from=2 to=2 roof=1.0 class=1
[removed] cycle = 2
"""


class TestParse:
    def test_sample_file(self):
        m = parse_model(SAMPLE)
        assert m.name == "full2"
        assert m.graph.vertex_count == 2
        assert len(m.graph.edges) == 4
        assert m.weights.dimension == 1
        assert m.weights.classes[(2, 2)] == (1,)
        assert [c.vertices for c in m.removed] == [(2,)]

    def test_zero_roof_rejected(self):
        bad = SAMPLE.replace("from=1 to=1 roof=1.0", "from=1 to=1 roof=0.0")
        with pytest.raises(ValidationError, match="roof must be positive"):
            parse_model(bad)

    def test_nonprimitive_removed_rejected(self):
        bad = SAMPLE.replace("cycle = 2", "cycle = 1,2,1,2")
        with pytest.raises(ValidationError, match="repetition"):
            parse_model(bad)

    def test_syntax_error_carries_line_number(self):
        bad = SAMPLE + "???\n"
        with pytest.raises(ModelSyntaxError, match="line 11"):
            parse_model(bad)

    def test_data_before_section(self):
        with pytest.raises(ModelSyntaxError, match="line 1"):
            parse_model("name = x\n")

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + SAMPLE.replace(
            "[removed] cycle = 2", "[removed] cycle = 2  # the meridian orbit"
        )
        assert parse_model(text).name == "full2"

    def test_log_literal_roof(self):
        text = SAMPLE.replace("from=1 to=1 roof=1.0", "from=1 to=1 roof=log(2)")
        m = parse_model(text)
        assert m.weights.roof[(1, 1)] == math.log(2)
        assert m.roof_literals[(1, 1)] == "log(2)"

    def test_wrong_class_dimension(self):
        bad = SAMPLE.replace("from=2 to=2 roof=1.0 class=1",
                             "from=2 to=2 roof=1.0 class=1,0")
        with pytest.raises(ValidationError, match="length"):
            parse_model(bad)

    def test_invalid_graph_reported(self):
        bad = "\n".join(
            line for line in SAMPLE.splitlines() if "from=2 to=1" not in line
        )
        with pytest.raises(ValidationError, match="strongly connected|out-degree|in-degree"):
            parse_model(bad)

    def test_removed_count_mismatch_warns(self):
        text = SAMPLE.replace("[removed] cycle = 2\n", "")
        with pytest.warns(UserWarning, match="n_removed"):
            parse_model(text)

    def test_chords_block(self):
        text = """\
[model]
name = chordy
b = 0
n_removed = 1
vertices = 2
[edge] from=1 to=1 roof=1.0
[edge] from=1 to=2 roof=1.0
[edge] from=2 to=1 roof=1.0
[edge] from=2 to=2 roof=1.0
[chords] tree=1>2
chord = 1>1:0
chord = 2>2:1
chord = 2>1:0
[removed] cycle = 2
"""
        m = parse_model(text)
        assert m.chords is not None
        assert m.weights.classes[(2, 2)] == (1,)
        assert m.weights.classes[(1, 2)] == (0,)

    def test_class_with_chords_rejected(self):
        text = SAMPLE.replace(
            "[removed]", "[chords] tree=1>2\nchord = 1>1:0\nchord = 2>2:1\nchord = 2>1:0\n[removed]"
        )
        with pytest.raises(ValidationError, match="chords"):
            parse_model(text)

    def test_quotient_section(self):
        text = SAMPLE + "[quotient] name=mod3 lattice=3\n"
        m = parse_model(text)
        assert m.quotients == {"mod3": ((3,),)}
        assert m.quotient("mod3").order == 3


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["full2", "goldenmean", "bench3"])
    def test_parse_serialize_parse(self, name):
        m = builtin_model(name)
        text = serialize_model(m)
        again = parse_model(text)
        assert again == m
        assert serialize_model(again) == text

    def test_sample_roundtrip(self):
        m = parse_model(SAMPLE)
        assert parse_model(serialize_model(m)) == m

    def test_edge_order_preserved(self):
        shuffled = """\
[model]
name = shuffled
b = 1
n_removed = 0
vertices = 2
[edge] from=2 to=2 roof=1.0 class=1
[edge] from=1 to=2 roof=2.0 class=0
[edge] from=2 to=1 roof=1.5 class=0
[edge] from=1 to=1 roof=1.0 class=0
"""
        m = parse_model(shuffled)
        assert m.graph.edges == ((2, 2), (1, 2), (2, 1), (1, 1))
        assert parse_model(serialize_model(m)).graph.edges == m.graph.edges


class TestBuiltins:
    def test_full2_shape(self, full2):
        assert len(full2.graph.edges) == 4
        assert full2.weights.dimension == 1
        assert [c.vertices for c in full2.removed] == [(2,)]

    def test_goldenmean_shape(self, goldenmean):
        assert len(goldenmean.graph.edges) == 3
        assert goldenmean.b == 1 and goldenmean.n_removed == 0

    def test_bench3_generates(self, bench3):
        res = generation_check(bench3.graph, bench3.weights, 6)
        assert res.generates

    def test_bench3_no_lattice_flags(self, bench3):
        grid = [0.1 * i for i in range(1, 11)]
        assert lattice_length_heuristic(bench3.graph, bench3.weights, 6, grid) == []

    def test_bench3_roofs_are_prime_logs(self, bench3):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        for e, p in zip(bench3.graph.edges, primes):
            assert bench3.weights.roof[e] == math.log(p)

    def test_unknown_name(self):
        with pytest.raises(UnknownModel):
            builtin_model("mystery")


class TestLoadModel:
    def test_builtin_passthrough(self):
        assert load_model("full2").name == "full2"

    def test_file_path(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text(SAMPLE)
        assert load_model(str(p)).name == "full2"

    def test_missing_source(self):
        with pytest.raises(UnknownModel):
            load_model("no-such-model-or-file")


class TestRefusals:
    @pytest.mark.parametrize("roof", ["inf", "-inf", "nan", "1e400", "log(1e400)",
                                      "log(" + "9" * 400 + ")"])
    def test_non_finite_roof_rejected(self, roof):
        bad = SAMPLE.replace("from=1 to=2 roof=1.0", f"from=1 to=2 roof={roof}")
        with pytest.raises((ValidationError, ModelSyntaxError)):
            parse_model(bad)

    def test_infinite_roof_message(self):
        bad = SAMPLE.replace("from=1 to=2 roof=1.0", "from=1 to=2 roof=inf")
        with pytest.raises(ValidationError, match="roof must be positive and finite"):
            parse_model(bad)

    def test_overlong_edge_token_is_a_syntax_error(self):
        text = serialize_model(builtin_model("bench3"))
        bad = text.replace("tree=1>2,2>3", "tree=1>2," + "9" * 5000 + ">3")
        with pytest.raises(ModelSyntaxError, match="bad edge token"):
            parse_model(bad)

    def test_bad_roof_reported_with_graph_problems(self):
        bad = "\n".join(
            line.replace("roof=1.0", "roof=inf") if "from=1 to=1" in line else line
            for line in SAMPLE.splitlines() if "from=2 to=1" not in line
        )
        with pytest.raises(ValidationError) as info:
            parse_model(bad)
        message = str(info.value)
        assert "roof must be positive and finite, got inf" in message
        assert "not strongly connected" in message and "\n" not in message

    def test_many_vertices_bounded_message(self):
        text = SAMPLE.replace("vertices = 2", "vertices = 200000")
        with pytest.raises(ValidationError, match="out-degree 0") as info:
            parse_model(text)
        assert len(str(info.value)) < 500


CHORDS_SAMPLE = SAMPLE.replace(" class=0", "").replace(" class=1", "") + """\
[chords] tree=1>2
chord = 1>1:0
chord = 2>2:1
chord = 2>1:0
"""

# (text, error, exact message) for each refusal of the parser
TEXT_REFUSALS = {
    "unknown section": (SAMPLE + "[nope]\n", ModelSyntaxError,
                        "line 11: unknown section [nope]"),
    "non-integer endpoint": (SAMPLE.replace("from=1 to=1", "from=x to=1"), ModelSyntaxError,
                             "line 6: edge endpoints must be integers"),
    "log of zero": (SAMPLE.replace("to=1 roof=1.0 class=0\n[edge] from=1 to=2",
                                   "to=1 roof=log(0) class=0\n[edge] from=1 to=2"),
                    ModelSyntaxError, "line 6: log() of non-positive value"),
    "chord without colon": (CHORDS_SAMPLE.replace("chord = 2>2:1", "chord = 2>2"),
                            ModelSyntaxError, "line 13: chord needs edge:vector"),
    "chords without tree": (CHORDS_SAMPLE.replace("[chords] tree=1>2", "[chords]"),
                            ValidationError, "[chords] section without a tree"),
    "edge without class": (SAMPLE.replace("to=1 roof=1.0 class=0\n[edge] from=1 to=2",
                                          "to=1 roof=1.0\n[edge] from=1 to=2"),
                           ValidationError, "edge (1, 1): no class value and no [chords] section"),
    "no edges": ("".join(line for line in SAMPLE.splitlines(True) if not line.startswith("[edge]")),
                 ValidationError,
                 "model has no edges; 2 of 2 vertices have out-degree 0, the first is vertex 1; "
                 "2 of 2 vertices have in-degree 0, the first is vertex 1"),
    "duplicate quotient": (SAMPLE + "[quotient] name=q lattice=2\n[quotient] name=q lattice=3\n",
                           ValidationError, "duplicate quotient name 'q'"),
    "quotient shape": (SAMPLE + "[quotient] name=q lattice=2,0\n", ValidationError,
                       "quotient 'q': lattice must be 1x1"),
    "negative b": (SAMPLE.replace("b = 0\nn_removed = 1", "b = -1\nn_removed = 2"), ValidationError,
                   "need b >= 0, n_removed >= 0, b + n_removed >= 1 (got -1, 2)"),
    "negative n_removed": (SAMPLE.replace("b = 0\nn_removed = 1", "b = 2\nn_removed = -1"),
                           ValidationError,
                           "need b >= 0, n_removed >= 0, b + n_removed >= 1 (got 2, -1)"),
    # with the rank refused, no class length is checked against it
    "rank zero": (SAMPLE.replace("b = 0\nn_removed = 1", "b = 0\nn_removed = 0"), ValidationError,
                  "need b >= 0, n_removed >= 0, b + n_removed >= 1 (got 0, 0)"),
    "negative rank": (SAMPLE.replace("b = 0\nn_removed = 1", "b = 0\nn_removed = -1")
                      + "[quotient] name=q lattice=2\n", ValidationError,
                      "need b >= 0, n_removed >= 0, b + n_removed >= 1 (got 0, -1)"),
}


@pytest.mark.parametrize("case", TEXT_REFUSALS)
def test_text_refusal_message(case):
    text, error, message = TEXT_REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_model(text)

def _spanning_tree(g):
    """Non-loop edges joining vertex 1's component to the rest, one at a
    time, until every vertex is reached."""
    tree, reached = [], {1}
    while len(reached) < g.vertex_count:
        a, b = next(e for e in g.edges if (e[0] in reached) != (e[1] in reached))
        tree.append((a, b))
        reached |= {a, b}
    return tuple(tree)


def random_model(seed, k, d, meridians, use_chords, n_quotients):
    """A model from random_strong_graph/random_weights with some log(n)
    roofs, removed cycles as meridians, and random quotient lattices."""
    rng = np.random.default_rng(seed)
    g = random_strong_graph(rng, k)
    base = random_weights(rng, g, d)
    logs = {e: int(rng.integers(2, 60)) for e in g.edges if rng.random() < 0.4}
    roof = {**base.roof, **{e: math.log(n) for e, n in logs.items()}}
    chords, classes = None, base.classes
    if use_chords:
        tree = _spanning_tree(g)
        chords = ChordAssignment(d, tree, {e: base.classes[e] for e in g.edges if e not in tree})
        classes = weights_from_chords(g, chords)
    cycles = enumerate_prime_cycles(g, 3)
    picks = rng.choice(len(cycles), size=min(meridians, len(cycles), d), replace=False)
    removed = tuple(cycles[int(i)] for i in picks)
    quotients = {
        f"q{i}": tuple(tuple(int(x) for x in row) for row in rng.integers(-4, 5, size=(d, d)))
        for i in range(n_quotients)
    }
    return ModelSpec(
        name=f"rand{seed}",
        graph=g,
        weights=WeightSystem(b=d - len(removed), meridians=len(removed), roof=roof,
                             classes=classes),
        removed=removed,
        chords=chords,
        roof_literals={e: f"log({n})" for e, n in logs.items()},
        quotients=quotients,
    )


MODEL_ARGS = dict(
    seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), d=st.integers(1, 3),
    meridians=st.integers(0, 3), use_chords=st.booleans(), n_quotients=st.integers(0, 2),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(**MODEL_ARGS)
def test_random_models_round_trip(seed, k, d, meridians, use_chords, n_quotients):
    m = random_model(seed, k, d, meridians, use_chords, n_quotients)
    text = serialize_model(m)
    assert parse_model(text) == m
    assert serialize_model(parse_model(text)) == text


# replacement tokens: numbers at and past the limits, non-finite reals,
# malformed literals, vectors, edge tokens, section headers and keys
FUZZ_TOKENS = (
    "", "0", "1", "2", "3", "-1", "01", "1000000000000", "1.5", "1e400", "-0.0",
    "inf", "nan", "-inf", "log(0)", "log(1)", "log(2.5)", "log(x)", "log(", "1,0",
    "0,1,2", "2,0;0,3", "1;2", ";", "1>2", "2>1", "3>3", "1>1:1", "1>2:0,0", ">",
    ":", "=", "#", "[edge]", "[chords]", "[removed]", "[quotient]", "[model]",
    "[nope]", "name=q", "cycle", "tree", "chord", "lattice", "roof", "class",
    "from", "to", "vertices", "b", "n_removed", "x", "9" * 5000,
)
FUZZ_OPS = ("replace", "replace", "replace", "delete", "duplicate", "swap", "insert")


def mutate(text, edits):
    """Apply (op, line, atom, token) edits to the lines of text; a line is
    split into atoms at whitespace and at the format's delimiters."""
    lines = text.splitlines()
    for op, i, j, token in edits:
        i %= len(lines) + 1
        if op == "insert" or not lines:
            lines.insert(i, token)
            continue
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j % len(lines)] = lines[j % len(lines)], lines[i]
        else:
            atoms = re.split(r"(\s+|[=,;>:])", lines[i])
            atoms[j % len(atoms)] = token
            lines[i] = "".join(atoms)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(base=st.one_of(st.sampled_from(BUILTIN_NAMES), st.fixed_dictionaries(MODEL_ARGS)),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_OPS), st.integers(0, 99),
                                st.integers(0, 99), st.sampled_from(FUZZ_TOKENS)),
                      min_size=1, max_size=4))
def test_fuzzed_text_parses_or_is_refused(base, edits):
    m = builtin_model(base) if isinstance(base, str) else random_model(**base)
    text = mutate(serialize_model(m), edits)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            again = parse_model(text)
        except (ModelSyntaxError, ValidationError):
            return
        assert parse_model(serialize_model(again)) == again
