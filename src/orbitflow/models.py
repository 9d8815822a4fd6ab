"""Model files: a line-oriented format bundling a graph, edge weights,
removed orbits, and optional finite quotients.

Sections start with a ``[header]`` that may carry inline ``key=value``
pairs; later ``key = value`` lines extend the current section.  Vectors
are comma-separated integers, reals are decimals or ``log(n)`` literals
(kept verbatim so incommensurable roofs stay documented), ``#`` starts a
comment.  Example, with a spanning tree and chord values standing in for
per-edge ``class=`` vectors::

    [model]
    name = loop2
    b = 0
    n_removed = 1
    vertices = 2
    [edge] from=1 to=1 roof=log(2)
    [edge] from=1 to=2 roof=1.0
    [edge] from=2 to=1 roof=0.5
    [chords] tree=1>2
    chord = 1>1:1
    chord = 2>1:0
    [removed] cycle = 1
    [quotient] name=mod2 lattice=2

The builtin models (``_BUILTINS`` below) are texts in this format, read
by the same parser as any file.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

from .errors import ModelSyntaxError, UnknownModel, ValidationError, OrbitflowError
from .graphs import DirectedGraph, Edge, PrimeCycle, canonical_form, validate_graph
from .weights import ChordAssignment, WeightSystem, weights_from_chords

_PAIR = re.compile(r"(\w+)\s*=\s*(\S+)")
_HEADER = re.compile(r"\[(\w+)\]\s*(.*)$")
_EDGE_TOKEN = re.compile(r"^(\d+)>(\d+)$")
_LOG_LITERAL = re.compile(r"^log\((\d+(?:\.\d+)?)\)$")


@dataclass(frozen=True)
class ModelSpec:
    """Serializable bundle: graph, weights, removed orbits, quotients."""

    name: str
    graph: DirectedGraph
    weights: WeightSystem
    removed: tuple[PrimeCycle, ...]
    chords: ChordAssignment | None = None
    roof_literals: dict[Edge, str] = field(default_factory=dict)
    quotients: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)

    @property
    def b(self) -> int:
        return self.weights.b

    @property
    def n_removed(self) -> int:
        return self.weights.meridians

    def quotient(self, name: str) -> FiniteQuotient:
        if name not in self.quotients:
            raise UnknownModel(f"model has no quotient named {name!r}")
        from .counting import FiniteQuotient
        return FiniteQuotient.from_lattice(self.quotients[name])


def _parse_real(token: str, line_no: int):
    """Returns (value, literal-or-None)."""
    m = _LOG_LITERAL.match(token)
    if m:
        arg = float(m.group(1))
        if arg <= 0:
            raise ModelSyntaxError(f"line {line_no}: log() of non-positive value")
        return math.log(arg), token
    try:
        return float(token), None
    except ValueError:
        raise ModelSyntaxError(f"line {line_no}: bad real {token!r}") from None


def _parse_int_vector(token: str, line_no: int) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in token.split(","))
    except ValueError:
        raise ModelSyntaxError(f"line {line_no}: bad integer vector {token!r}") from None


def _parse_edge_token(token: str, line_no: int) -> Edge:
    m = _EDGE_TOKEN.match(token)
    try:
        if m:
            return int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than int() converts
        pass
    raise ModelSyntaxError(f"line {line_no}: bad edge token {token!r}")


def _tokenize(text: str):
    """Yield (section, key, value, line_no) in file order."""
    section = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER.match(line)
        if m:
            section = m.group(1)
            yield section, None, None, line_no
            rest = m.group(2)
        else:
            if section is None:
                raise ModelSyntaxError(f"line {line_no}: data before any [section]")
            rest = line
        remainder = _PAIR.sub("", rest).strip()
        if remainder:
            raise ModelSyntaxError(f"line {line_no}: cannot parse {remainder!r}")
        for key, value in _PAIR.findall(rest):
            yield section, key, value, line_no


def parse_model(text: str) -> ModelSpec:
    """Parse a model file; syntax problems raise ModelSyntaxError with a
    line number, structural problems a ValidationError listing all
    violations."""
    header: dict[str, str] = {}
    edges: list[dict] = []
    chords_raw: dict = {"tree": None, "chords": [], "line": None}
    removed_raw: list[tuple[tuple[int, ...], int]] = []
    quotients_raw: list[dict] = []
    current_record = None

    for section, key, value, line_no in _tokenize(text):
        if key is None:  # new section header
            if section in ("edge", "quotient"):
                current_record = {"_line": line_no}
                (edges if section == "edge" else quotients_raw).append(current_record)
            elif section == "chords":
                chords_raw["line"] = line_no
                current_record = None
            elif section in ("model", "removed"):
                current_record = None
            else:
                raise ModelSyntaxError(f"line {line_no}: unknown section [{section}]")
            continue
        if section == "model":
            if key in header:
                raise ModelSyntaxError(f"line {line_no}: repeated model key {key!r}")
            header[key] = value
        elif section in ("edge", "quotient"):
            if current_record is None or key in current_record:
                raise ModelSyntaxError(f"line {line_no}: stray {section} key {key!r}")
            current_record[key] = (value, line_no)
        elif section == "chords":
            if key == "tree":
                if chords_raw["tree"] is not None:
                    raise ModelSyntaxError(f"line {line_no}: repeated tree")
                chords_raw["tree"] = (value, line_no)
            elif key == "chord":
                chords_raw["chords"].append((value, line_no))
            else:
                raise ModelSyntaxError(f"line {line_no}: unknown chords key {key!r}")
        elif section == "removed":
            if key != "cycle":
                raise ModelSyntaxError(f"line {line_no}: unknown removed key {key!r}")
            removed_raw.append((_parse_int_vector(value, line_no), line_no))

    problems: list[str] = []

    def need(key, conv=str):
        if key not in header:
            problems.append(f"missing model key {key!r}")
            return None
        try:
            return conv(header[key])
        except ValueError:
            problems.append(f"bad model value for {key!r}: {header[key]!r}")
            return None

    name = need("name")
    b = need("b", int)
    n_removed = need("n_removed", int)
    vertices = need("vertices", int)
    if problems:
        raise ValidationError("; ".join(problems))
    dim = b + n_removed if b >= 0 and n_removed >= 0 and b + n_removed >= 1 else None
    if dim is None:  # refused: no class or lattice length is checked against it
        problems.append(f"need b >= 0, n_removed >= 0, b + n_removed >= 1 (got {b}, {n_removed})")

    has_chords = chords_raw["line"] is not None
    edge_list: list[Edge] = []
    roof: dict[Edge, float] = {}
    roof_literals: dict[Edge, str] = {}
    classes: dict[Edge, tuple[int, ...]] = {}
    for rec in edges:
        line_no = rec["_line"]
        missing = [k for k in ("from", "to", "roof") if k not in rec]
        if missing:
            problems.append(f"edge at line {line_no} missing {missing}")
            continue
        try:
            e = (int(rec["from"][0]), int(rec["to"][0]))
        except ValueError:
            raise ModelSyntaxError(
                f"line {line_no}: edge endpoints must be integers"
            ) from None
        r, literal = _parse_real(rec["roof"][0], rec["roof"][1])
        edge_list.append(e)
        if not 0.0 < r < math.inf:
            problems.append(f"edge {e}: roof must be positive and finite, got {rec['roof'][0]}")
        roof[e] = r
        if literal:
            roof_literals[e] = literal
        if "class" in rec:
            if has_chords:
                problems.append(f"edge {e}: class given although a [chords] section exists")
            vec = _parse_int_vector(rec["class"][0], rec["class"][1])
            if dim is not None and len(vec) != dim:
                problems.append(f"edge {e}: class has length {len(vec)}, expected {dim}")
            classes[e] = vec
        elif not has_chords:
            problems.append(f"edge {e}: no class value and no [chords] section")
    if not edge_list:
        problems.append("model has no edges")

    graph = DirectedGraph(vertices or 0, tuple(edge_list))
    problems.extend(validate_graph(graph))

    chords = None
    if has_chords and not problems:
        if chords_raw["tree"] is None:
            problems.append("[chords] section without a tree")
        else:
            tree = tuple(
                _parse_edge_token(tok, chords_raw["tree"][1])
                for tok in chords_raw["tree"][0].split(",")
            )
            chord_values = {}
            for value, line_no in chords_raw["chords"]:
                if ":" not in value:
                    raise ModelSyntaxError(f"line {line_no}: chord needs edge:vector")
                edge_tok, vec_tok = value.split(":", 1)
                e = _parse_edge_token(edge_tok, line_no)
                chord_values[e] = _parse_int_vector(vec_tok, line_no)
            try:
                chords = ChordAssignment(dim, tree, chord_values)
                classes = weights_from_chords(graph, chords)
            except OrbitflowError as exc:
                problems.append(str(exc))

    weights = None
    if not problems:
        try:
            weights = WeightSystem(b=b, meridians=n_removed, roof=roof, classes=classes)
        except (OrbitflowError, ValueError) as exc:
            problems.append(str(exc))

    removed: list[PrimeCycle] = []
    if not problems:
        for seq, line_no in removed_raw:
            try:
                removed.append(canonical_form(graph, seq))
            except OrbitflowError as exc:
                problems.append(f"removed cycle at line {line_no}: {exc}")

    quotients: dict[str, tuple[tuple[int, ...], ...]] = {}
    for rec in quotients_raw:
        line_no = rec["_line"]
        if "name" not in rec or "lattice" not in rec:
            problems.append(f"quotient at line {line_no} needs name and lattice")
            continue
        qname = rec["name"][0]
        rows = tuple(
            _parse_int_vector(row, rec["lattice"][1])
            for row in rec["lattice"][0].split(";")
        )
        if qname in quotients:
            problems.append(f"duplicate quotient name {qname!r}")
        if dim is not None and (any(len(row) != dim for row in rows) or len(rows) != dim):
            problems.append(f"quotient {qname!r}: lattice must be {dim}x{dim}")
        quotients[qname] = rows

    if problems:
        raise ValidationError("; ".join(problems))

    if len(removed) != n_removed:
        warnings.warn(
            f"model {name!r} declares n_removed = {n_removed} but lists "
            f"{len(removed)} removed cycles",
            stacklevel=2,
        )
    return ModelSpec(
        name=name,
        graph=graph,
        weights=weights,
        removed=tuple(removed),
        chords=chords,
        roof_literals=roof_literals,
        quotients=quotients,
    )


def _format_real(value: float, literal: str | None) -> str:
    return literal if literal else repr(float(value))


def _format_vec(vec) -> str:
    return ",".join(str(int(x)) for x in vec)


def serialize_model(m: ModelSpec) -> str:
    """Canonical text form; parse_model inverts it structurally."""
    lines = [
        "[model]",
        f"name = {m.name}",
        f"b = {m.b}",
        f"n_removed = {m.n_removed}",
        f"vertices = {m.graph.vertex_count}",
    ]
    for e in m.graph.edges:
        roof = _format_real(m.weights.roof[e], m.roof_literals.get(e))
        entry = f"[edge] from={e[0]} to={e[1]} roof={roof}"
        if m.chords is None:
            entry += f" class={_format_vec(m.weights.classes[e])}"
        lines.append(entry)
    if m.chords is not None:
        tree = ",".join(f"{a}>{b}" for (a, b) in m.chords.tree_edges)
        lines.append(f"[chords] tree={tree}")
        for e in sorted(m.chords.chord_values):
            vec = _format_vec(m.chords.chord_values[e])
            lines.append(f"chord = {e[0]}>{e[1]}:{vec}")
    for c in m.removed:
        lines.append(f"[removed] cycle = {_format_vec(c.vertices)}")
    for qname in sorted(m.quotients):
        rows = ";".join(_format_vec(row) for row in m.quotients[qname])
        lines.append(f"[quotient] name={qname} lattice={rows}")
    return "\n".join(lines) + "\n"


_BUILTINS = {
    "full2": """\
[model]
name = full2
b = 0
n_removed = 1
vertices = 2
[edge] from=1 to=1 roof=1.0 class=0
[edge] from=1 to=2 roof=1.0 class=1
[edge] from=2 to=1 roof=1.0 class=0
[edge] from=2 to=2 roof=1.0 class=1
[removed] cycle = 2
[quotient] name=mod2 lattice=2
""",
    "goldenmean": """\
[model]
name = goldenmean
b = 1
n_removed = 0
vertices = 2
[edge] from=1 to=1 roof=1.0 class=0
[edge] from=1 to=2 roof=1.0 class=1
[edge] from=2 to=1 roof=1.0 class=0
""",
    # complete 3-vertex graph; roofs are logs of the first nine primes
    # in lexicographic edge order, so cycle lengths are logs of
    # distinct integers and share no common scale.
    # fixed chord assignment: the loops wind around the removed orbits
    # (loop at 1 -> first meridian, loop at 2 -> second, loop at 3 ->
    # both); every other chord is null-homologous
    "bench3": """\
[model]
name = bench3
b = 0
n_removed = 2
vertices = 3
[edge] from=1 to=1 roof=log(2)
[edge] from=1 to=2 roof=log(3)
[edge] from=1 to=3 roof=log(5)
[edge] from=2 to=1 roof=log(7)
[edge] from=2 to=2 roof=log(11)
[edge] from=2 to=3 roof=log(13)
[edge] from=3 to=1 roof=log(17)
[edge] from=3 to=2 roof=log(19)
[edge] from=3 to=3 roof=log(23)
[chords] tree=1>2,2>3
chord = 1>1:1,0
chord = 1>3:0,0
chord = 2>1:0,0
chord = 2>2:0,1
chord = 3>1:0,0
chord = 3>2:0,0
chord = 3>3:1,1
[removed] cycle = 1
[removed] cycle = 2
[quotient] name=mod2x3 lattice=2,0;0,3
""",
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_model(name: str) -> ModelSpec:
    """Builtin desk-scale models: full2, goldenmean, bench3, parsed from
    the model texts above."""
    if name not in _BUILTINS:
        raise UnknownModel(f"no builtin model named {name!r}")
    return parse_model(_BUILTINS[name])


def load_model(source: str) -> ModelSpec:
    """Builtin name, or path to a model file."""
    if source in BUILTIN_NAMES:
        return builtin_model(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return parse_model(fh.read())
    except FileNotFoundError:
        raise UnknownModel(
            f"{source!r} is neither a builtin model nor a readable file"
        ) from None
