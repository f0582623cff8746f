"""The shape of every input document, declared once, and the one walker that checks it.

``FIXTURE`` is the fixture format; ``SYSTEM`` and ``CERTIFICATE`` are the JSON
files of ``cubiclct certify`` and ``replay``.  A kind is a converter (a
function that returns its value converted, or raises ``TypeError`` or
``ValueError``), ``ListOf``, ``Pair``, ``IdMap``, ``Record`` or ``OneOf``.  A
record key that ends in ``?`` may be left out; ``needs`` names the keys that a
given key needs beside it.  ``OneOf`` reads a mapping as the first of its
records whose first key it has, and any other value by its converter.
``walk`` returns a document with its lists as tuples and its scalars
converted, or raises a ``ParseError`` at the path of the first value that does
not fit, an undeclared key included.  Whether an id names something declared
is left to the caller.
"""

from __future__ import annotations

from collections import namedtuple

from cubiclct.lattice import AdeType
from cubiclct.qexact import parse_rat


class ParseError(ValueError):
    """Input document malformed; message carries field diagnostics."""


def _exactly(cls: type, expected: str):
    """The kind of a value read as exactly a ``cls``: a bool is never an int,
    and a string such as ``"false"`` or ``"1"`` is never converted."""
    def kind(value):
        if type(value) is cls:
            return value
        if cls is int and isinstance(value, str):
            int(value)   # a string that is no numeral keeps int()'s own message
        raise TypeError(f"expected {expected}, got {value!r}")
    return kind


def enum(*values: str):
    """The kind of a string that is one of ``values``."""
    def kind(value):
        if value in values:
            return value
        raise ValueError(f"expected {', '.join(values[:-1])} or {values[-1]}, got {value!r}")
    return kind


string, integer, boolean = (_exactly(str, "a string"), _exactly(int, "an integer"),
                            _exactly(bool, "true or false"))
rational, ADE = parse_rat, AdeType.parse


ListOf = namedtuple("ListOf", "item length", defaults=(None,))   # read as a tuple
Pair = namedtuple("Pair", "first second")   # a list of exactly two entries
IdMap = namedtuple("IdMap", "value")        # a mapping from ids to one kind


class Record:
    def __init__(self, fields: dict, needs: dict[str, tuple[str, ...]] | None = None):
        self.fields = {key.rstrip("?"): kind for key, kind in fields.items()}
        self.required = tuple(key for key in fields if not key.endswith("?"))
        self.needs = tuple((needs or {}).items())


class OneOf:
    def __init__(self, *alternatives):
        self.records = tuple(a for a in alternatives if isinstance(a, Record))
        self.scalar = next((a for a in alternatives if not isinstance(a, Record)), None)


def _fail(path: str, message: str):
    raise ParseError(f"{path}: {message}" if path else message)


def _entries(value, kind: type, path: str, length: int | None = None):
    """``value`` when it is a ``kind`` (list or dict) of ``length`` entries if given."""
    if not isinstance(value, kind):
        _fail(path, f"expected a {'list' if kind is list else 'mapping'}, got {value!r}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return value


def walk(kind, value, path: str = ""):
    """``value`` checked against ``kind``, with lists as tuples and every scalar
    converted; a ParseError at the first value that does not fit."""
    t = type(kind)
    if t is Record:
        _entries(value, dict, path)
        for key in kind.required:
            if key not in value:
                _fail(path, f"missing key {key!r}")
        for key, needed in kind.needs:
            if key in value and any(k not in value for k in needed):
                _fail(path, f"{key} needs {' and '.join(needed)}")
        out = {}
        for key, item in value.items():
            if key not in kind.fields:
                _fail(path, f"unknown key {key!r}")
            out[key] = walk(kind.fields[key], item, f"{path}.{key}" if path else key)
        return out
    if t is ListOf:
        return tuple(walk(kind.item, item, f"{path}[{i}]")
                     for i, item in enumerate(_entries(value, list, path, kind.length)))
    if t is Pair:
        first, second = _entries(value, list, path, 2)
        return walk(kind.first, first, f"{path}[0]"), walk(kind.second, second, f"{path}[1]")
    if t is IdMap:
        return {key: walk(kind.value, item, f"{path}.{key}")
                for key, item in _entries(value, dict, path).items()}
    if t is OneOf:
        if isinstance(value, dict):
            for record in kind.records:
                if record.required[0] in value:
                    return walk(record, value, path)
            _fail(path, "missing key " + " or ".join(repr(r.required[0]) for r in kind.records))
        if kind.scalar is None:
            _fail(path, f"expected a mapping, got {value!r}")
        kind = kind.scalar
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


#: ``[multiplicity, curve id]`` terms of a divisor.
TERMS = ListOf(Pair(rational, string))
#: ``[coefficient, [x, y, z, w, t exponents]]`` terms of a polynomial.
POLY = ListOf(Pair(rational, ListOf(integer, 5)))
#: Script rows: inequality texts, or texts with a note and a redundancy flag.
ROWS = ListOf(OneOf(string, Record({"row": string, "note?": string, "redundant?": boolean})))
BRANCHES = ListOf(Record({"name": string, "rows?": ROWS}))

FIXTURE = Record({
    "name?": string,
    "profile": ListOf(ADE),
    "points?": IdMap(Record({"type": ADE})),
    "curves?": ListOf(Record({
        "id": string, "kind": enum("line", "conic", "cubic"),
        "incidence?": IdMap(ListOf(integer)),   # point id -> entries in canonical node order
        "pairwise?": IdMap(rational)})),        # curve id -> strict-transform number
    "equivalences?": ListOf(TERMS),
    "witness?": Record({
        "divisor": TERMS,
        "tower?": ListOf(Record({
            "name": string, "point": string,
            "through": ListOf(OneOf(Record({"curve": string, "mult?": integer}),
                                    Record({"exceptional": string})))}))}),
    "script?": Record({
        "variables": ListOf(string),
        "base_rows?": ROWS,
        # one of ``branches`` and ``generate: <point>``, which the loader checks
        "blocks?": ListOf(Record({"name?": string, "rows?": ROWS, "alternatives?": BRANCHES,
                                  "branches?": BRANCHES, "generate?": string})),
        "assumptions?": ListOf(Record({"tag": string, "note?": string,
                                       "exclusion_rows?": ROWS}))}),
    "group?": Record({
        "name": string,
        "declared_order": integer,
        "generators": ListOf(Record({"name": string, "lines": IdMap(string)})),
        "invariant_divisor": TERMS,
        "assumptions?": ListOf(Record({"tag": string, "note?": string}))}),
    "fiberwise?": Record({
        "source_poly?": POLY, "target_poly?": POLY,
        "map?": Record({"x?": integer, "y?": integer, "z?": integer, "w?": integer}),
        "expected_k?": integer,
        "lct_pair": ListOf(rational, 2),
        "log_terminal": ListOf(boolean, 2),
        "expected_verdict": enum("Biregular", "Inconclusive"),
        "fiber_profiles": ListOf(string, 2),
    }, needs={"source_poly": ("target_poly", "map"), "target_poly": ("source_poly", "map"),
              "map": ("source_poly", "target_poly")}),
}, needs={"script": ("witness",)})

RELATION = enum(">=", ">")
SYSTEM = Record({
    "variables": ListOf(string),
    "rows": ListOf(Record({"coeffs": ListOf(rational), "relation": RELATION,
                           "constant": rational, "provenance?": string}))})
CERTIFICATE = Record({
    "derived": Record({"coeffs": ListOf(rational), "relation": RELATION, "constant": rational}),
    "multipliers": ListOf(rational)})
