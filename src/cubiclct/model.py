"""Declarative case fixtures: geometry, witnesses and proof scripts.

All case-specific geometry (line counts, incidences, linear equivalences,
conic tests) lives in reviewable YAML files with per-field citations in
comments; this module only parses, cross-references and validates them.
A proof script is base rows plus blocks.  A block lists its branches, or
names an A_n point with ``generate: <point>``; the loader expands that into
the point's adjunction case tree (``generate_case_tree``) once.
The transcription is the risk, so validation is deliberately aggressive:
besides structural checks it runs an exact intersection-number audit
(``-K . X`` recomputed through every declared equivalence) that catches
mistyped incidence vectors.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction as Rat
from typing import NamedTuple

import yaml

from cubiclct.lattice import (AdeType, BlowupTower, TowerStep, exceptional_nef_rows,
                              pullback_coefficients)
from cubiclct.linsys import Row, parse_row
from cubiclct.qexact import format_rat, parse_rat


class ParseError(ValueError):
    """Fixture document malformed; message carries field diagnostics."""


class DanglingReference(ParseError):
    """A fixture field references an id that was never declared."""


# Profiles of singular cubic surfaces with only ADE points, per the standard
# classification of cubic surfaces (fixture data; not independently verified).
ADMISSIBLE_PROFILES = [
    "A1", "A1+A1", "A1+A1+A1", "A1+A1+A1+A1",
    "A2", "A2+A1", "A2+A1+A1", "A2+A2", "A2+A2+A1", "A2+A2+A2",
    "A3", "A3+A1", "A3+A1+A1",
    "A4", "A4+A1",
    "A5", "A5+A1",
    "D4", "D5", "E6",
]


def profile_key(labels: list[str]) -> str:
    """Canonical profile label, e.g. ``A5+A1`` (ranks descending)."""
    parsed = [AdeType.parse(x) for x in labels]
    parsed.sort(key=lambda t: (-t.rank, t.family))
    return "+".join(t.label for t in parsed)


# A dataclass, not a NamedTuple: its ``count`` would shadow ``tuple.count``.
@dataclass(frozen=True)
class SingularityProfile:
    entries: tuple[str, ...]  # ADE labels, canonical order

    @staticmethod
    def of(labels: list[str]) -> "SingularityProfile":
        key = profile_key(labels)
        return SingularityProfile(tuple(key.split("+")))

    @property
    def key(self) -> str:
        return "+".join(self.entries)

    def count(self, label: str) -> int:
        return sum(1 for x in self.entries if x == label)

    def __str__(self) -> str:
        return self.key


class NamedCurve(NamedTuple):
    id: str
    kind: str                       # line | conic | cubic
    degree: int
    incidence: tuple[tuple[str, tuple[int, ...]], ...]  # (point id, vector)
    pairwise: tuple[tuple[str, Rat], ...] = ()          # strict-transform numbers

    def incidence_at(self, point: str) -> tuple[int, ...] | None:
        for pid, vec in self.incidence:
            if pid == point:
                return vec
        return None

    def strict_pair(self, other: str) -> Rat | None:
        for cid, val in self.pairwise:
            if cid == other:
                return val
        return None


class BoundaryDivisor(NamedTuple):
    terms: tuple[tuple[Rat, str], ...]

    def degree(self, curves: dict[str, NamedCurve]) -> Rat:
        return sum((m * curves[c].degree for m, c in self.terms), Rat(0))

    def multiplicity(self, curve: str) -> Rat:
        return sum((m for m, c in self.terms if c == curve), Rat(0))


class SurfaceModel(NamedTuple):
    profile: SingularityProfile
    points: tuple[tuple[str, AdeType], ...]
    curves: tuple[NamedCurve, ...]
    equivalences: tuple[BoundaryDivisor, ...]

    def ade(self, point: str) -> AdeType:
        for pid, ade in self.points:
            if pid == point:
                return ade
        raise KeyError(point)

    def curve(self, cid: str) -> NamedCurve:
        for c in self.curves:
            if c.id == cid:
                return c
        raise KeyError(cid)

    @property
    def curve_map(self) -> dict[str, NamedCurve]:
        return {c.id: c for c in self.curves}


class Witness(NamedTuple):
    boundary: BoundaryDivisor
    tower: BlowupTower | None = None
    tower_points: tuple[tuple[str, str], ...] = ()  # step name -> point id
    tangencies: tuple[str, ...] = ()


class ScriptRow(NamedTuple):
    text: str
    row: Row
    note: str = ""
    redundant: bool = False


class Branch(NamedTuple):
    """Named script rows: a block's alternative or branch, or a whole leaf."""

    name: str
    rows: tuple[ScriptRow, ...]


class Block(NamedTuple):
    name: str                       # "" for an unnamed block
    rows: tuple[ScriptRow, ...]
    alternatives: tuple[Branch, ...]
    branches: tuple[Branch, ...]
    generate: str | None            # the A_n point whose case tree gave ``branches``


class Assumption(NamedTuple):
    tag: str
    note: str
    exclusion_rows: tuple[ScriptRow, ...] = ()


class ProofScript(NamedTuple):
    tau_floor: Rat
    variables: tuple[str, ...]
    base_rows: tuple[ScriptRow, ...]
    blocks: tuple[Block, ...]
    assumptions: tuple[Assumption, ...] = ()


class GroupGenerator(NamedTuple):
    name: str
    lines: tuple[tuple[str, str], ...]


class GroupData(NamedTuple):
    name: str
    declared_order: int
    generators: tuple[GroupGenerator, ...]
    invariant_divisor: tuple[tuple[Rat, str], ...]
    assumptions: tuple[Assumption, ...] = ()


class FiberwiseData(NamedTuple):
    source_poly: tuple[tuple[Rat, tuple[int, ...]], ...] | None
    target_poly: tuple[tuple[Rat, tuple[int, ...]], ...] | None
    map_powers: tuple[tuple[str, int], ...] | None
    expected_k: int | None
    lct_pair: tuple[Rat, Rat]
    log_terminal: tuple[bool, bool]
    expected_verdict: str
    fiber_profiles: tuple[str, str]  # profile key or "smooth-eckardt"/"smooth-general"


class CaseFixture(NamedTuple):
    name: str
    model: SurfaceModel
    expected_omega: Rat | None
    witness: Witness | None
    script: ProofScript | None
    group: GroupData | None = None
    fiberwise: FiberwiseData | None = None


# --- loading -----------------------------------------------------------------


def _req(mapping: dict, key: str, ctx: str):
    if key not in _shaped(mapping, dict, ctx):
        raise ParseError(f"{ctx}: missing key {key!r}")
    return mapping[key]


def _shaped(value, kind: type, where: str, length: int | None = None):
    """``value`` when it is a ``kind`` (dict or list) of ``length`` entries if one
    is given, else a located ParseError."""
    if not isinstance(value, kind):
        expected = "mapping" if kind is dict else "list"
        raise ParseError(f"{where}: expected a {expected}, got {value!r}")
    if length is not None and len(value) != length:
        raise ParseError(f"{where}: expected {length} entries, got {len(value)}")
    return value


def _known(spec: dict, keys: tuple[str, ...], where: str) -> dict:
    """``spec`` when it is a mapping that uses no key besides ``keys``."""
    unknown = [k for k in _shaped(spec, dict, where) if k not in keys]
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}")
    return spec


def _scalar(convert, value, where: str):
    """``convert(value)``, with a bad value raised as a located ParseError."""
    try:
        return convert(value)
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_script_rows(items, variables, ctx) -> tuple[ScriptRow, ...]:
    rows = []
    for i, item in enumerate(_shaped(items or [], list, ctx)):
        where = f"{ctx}[{i}]"
        if isinstance(item, str):
            text, note, redundant = item, "", False
        elif isinstance(item, dict):
            text = _req(item, "row", where)
            note = _string(item.get("note", ""), f"{where}.note")
            redundant = _scalar(_boolean, item.get("redundant", False), f"{where}.redundant")
        else:
            raise ParseError(f"{where}: row must be string or mapping")
        row = _scalar(lambda t: parse_row(t, variables, provenance=note or t), text, where)
        rows.append(ScriptRow(text, row, note, redundant))
    return tuple(rows)


def _parse_alternatives(items, variables, ctx) -> tuple[Branch, ...]:
    alts = []
    for i, item in enumerate(_shaped(items or [], list, ctx)):
        where = f"{ctx}[{i}]"
        name = _string(_req(item, "name", where), f"{where}.name")
        alts.append(Branch(name, _parse_script_rows(item.get("rows"), variables, where)))
    return tuple(alts)


def generate_case_tree(ade: AdeType, variables: tuple[str, ...]) -> tuple[Branch, ...]:
    """Adjunction case split for one A_n chain: one branch per interior
    segment (``Cartan_j . a > tau``) and one per double point
    (``Cartan_j . a > tau - a_{j+1}`` and ``Cartan_{j+1} . a > tau - a_j``),
    in chain order: E1 interior, E1^E2, E2 interior, ...

    ``variables`` must hold ``tau`` and ``a1`` .. ``an``; a ParseError if not,
    or if ``ade`` is not an A_n chain.
    """
    if ade.family != "A":
        raise ParseError(f"case generation needs an A_n point, got {ade.label}")
    n = ade.rank
    missing = [v for v in [f"a{j}" for j in range(1, n + 1)] + ["tau"] if v not in variables]
    if missing:
        raise ParseError(f"script variables lack {', '.join(missing)}")

    def row(j: int, through: int | None, name: str) -> ScriptRow:
        """``Cartan_j . a > tau``, less the term of neighbour ``through`` on both sides."""
        form = {f"a{j}": Rat(2), "tau": Rat(-1)}
        form.update((f"a{k}", Rat(-1)) for k in (j - 1, j + 1) if 1 <= k <= n and k != through)
        text = f"cartan({j}).a > tau" + (f" - a{through}" if through else "")
        coeffs = tuple(form.get(v, Rat(0)) for v in variables)
        return ScriptRow(text, Row(coeffs, Rat(0), ">", name), note=name)

    branches = []
    for j in range(1, n + 1):
        branches.append(Branch(f"Q in E{j} interior",
                               (row(j, None, f"adjunction on E{j}, no neighbor through Q"),)))
        if j < n:
            meet = f"E{j}^E{j+1}"
            branches.append(Branch(f"Q = E{j} meet E{j+1}",
                                   (row(j, j + 1, f"adjunction on E{j} at {meet}"),
                                    row(j + 1, j, f"adjunction on E{j+1} at {meet}"))))
    return tuple(branches)


def _parse_block(spec, variables, points: dict[str, AdeType], ctx) -> Block:
    """One script block; ``generate: <point>`` expands to that point's case tree."""
    _known(spec, ("name", "rows", "alternatives", "branches", "generate"), ctx)
    point = spec.get("generate")
    if point is None:
        branches = tuple(
            Branch(_string(_req(br, "name", f"{ctx}.branches[{j}]"),
                           f"{ctx}.branches[{j}].name"),
                   _parse_script_rows(br.get("rows"), variables, f"{ctx}.branches[{j}]"))
            for j, br in enumerate(_shaped(_req(spec, "branches", ctx), list,
                                           f"{ctx}.branches")))
    elif "branches" in spec:
        raise ParseError(f"{ctx}: a block gives branches or generate, not both")
    elif point not in list(points):   # a list: an unhashable value is only unknown
        raise DanglingReference(f"{ctx}.generate: unknown point {point!r}")
    else:
        branches = _scalar(lambda ade: generate_case_tree(ade, variables), points[point],
                           f"{ctx}.generate")
    return Block(_string(spec.get("name", ""), f"{ctx}.name"),
                 _parse_script_rows(spec.get("rows"), variables, f"{ctx}.rows"),
                 _parse_alternatives(spec.get("alternatives"), variables, f"{ctx}.alternatives"),
                 branches, point)


def _parse_assumptions(items, variables, ctx) -> tuple[Assumption, ...]:
    out = []
    for i, item in enumerate(_shaped(items or [], list, ctx)):
        where = f"{ctx}[{i}]"
        out.append(Assumption(
            _string(_req(item, "tag", where), f"{where}.tag"),
            _string(item.get("note", ""), f"{where}.note"),
            _parse_script_rows(item.get("exclusion_rows"), variables, where)))
    return tuple(out)


def _string(value, where: str) -> str:
    """``value`` when YAML read it as a string, else a located ParseError."""
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def _strings(value, where: str, length: int | None = None) -> tuple[str, ...]:
    """A YAML list of strings, shaped as by ``_shaped``; a bare string is never split."""
    for i, item in enumerate(_shaped(value, list, where, length)):
        _string(item, f"{where}[{i}]")
    return tuple(value)


def _integer(value) -> int:
    """``value`` when YAML read it as an int; a float or bool is never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        int(value)   # a string that is no numeral keeps int()'s own message
    raise TypeError(f"expected an integer, got {value!r}")


def _boolean(value) -> bool:
    """``value`` when YAML read it as a bool; a string such as ``"false"`` is never true."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def _parse_poly(items, ctx):
    """A YAML list of ``[coef, [x, y, z, w, t exponents]]`` terms, or None."""
    if items is None:
        return None
    out = []
    for i, term in enumerate(_shaped(items, list, ctx)):
        where = f"{ctx}[{i}]"
        coef, exps = _shaped(term, list, where, 2)
        _shaped(exps, list, f"{where} exponents (x,y,z,w,t)", 5)
        out.append((_scalar(parse_rat, coef, where),
                    tuple(_scalar(_integer, e, where) for e in exps)))
    return tuple(out)


#: libyaml's parser when PyYAML was built with it, else the pure-Python one.
#: Only the parser differs; the resolver and ``_UniqueKeyConstructor``, and
#: so every loaded document, are the same under both.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_STR, _MERGE = "tag:yaml.org,2002:str", "tag:yaml.org,2002:merge"


class _UniqueKeyConstructor(yaml.constructor.SafeConstructor):
    """PyYAML's safe constructor, except that a key repeated in one mapping is
    an error at the repeat, not a silent overwrite. A key that a ``<<`` merge
    brings in may still be overridden by one written in the mapping. A value
    that its tag's constructor rejects (``!!timestamp a3``, ``!!bool maybe``)
    is a ``ConstructorError`` at that value, not the constructor's own
    exception."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            value = f" {node.value!r}" if isinstance(node, yaml.ScalarNode) else ""
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot construct {node.tag}{value}: {exc}",
                node.start_mark) from exc

    def construct_mapping(self, node, deep=False):
        if not isinstance(node, yaml.MappingNode):
            return super().construct_mapping(node, deep)
        written = sum(key_node.tag != _MERGE for key_node, _ in node.value)
        self.flatten_mapping(node)   # merged pairs first, then the written ones
        first_written = len(node.value) - written
        mapping, seen = {}, set()
        for i, (key_node, value_node) in enumerate(node.value):
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "found unhashable key", key_node.start_mark)
            if i >= first_written:
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            mapping[key] = self.construct_object(value_node, deep=deep)
        return mapping


def peek_profile(text: str) -> str | None:
    """``profile_key`` of the document's top-level ``profile`` list, or ``None``.

    Reads parser events only up to the end of that list. ``None`` means the
    list cannot be read plainly: there is no such key, broken YAML comes
    before it, its value is not a list of scalars (an alias, say), or
    ``profile_key`` rejects a label. Whenever this is not ``None``, a document
    that loads declares this profile: ``load_fixture`` refuses a repeated
    key, a ``<<`` merge never overrides a written one, and a label with a
    tag other than ``str`` fails to load.
    """
    loader = YAML_LOADER(text)
    try:
        for _ in range(3):   # stream start, document start, the top-level node
            event = loader.get_event()
        if not isinstance(event, yaml.MappingStartEvent):
            return None
        while isinstance(key := loader.get_event(), yaml.ScalarEvent):
            value = loader.get_event()
            # a plain or quoted ``profile`` resolves to str; only an explicit tag differs
            if key.value == "profile" and key.tag in (None, "!", _STR):
                if not isinstance(value, yaml.SequenceStartEvent):
                    return None
                labels = []
                while isinstance(event := loader.get_event(), yaml.ScalarEvent):
                    labels.append(event.value)
                if not isinstance(event, yaml.SequenceEndEvent):
                    return None
                return profile_key(labels)
            depth = isinstance(value, yaml.CollectionStartEvent)   # skip any other value
            while depth:
                event = loader.get_event()
                depth += (isinstance(event, yaml.CollectionStartEvent)
                          - isinstance(event, yaml.CollectionEndEvent))
        return None   # the mapping ended, or a key is an alias or a collection
    except (yaml.YAMLError, ValueError):   # broken YAML, or a label profile_key rejects
        return None
    finally:
        loader.dispose()


def load_fixture(text: str, name: str = "<fixture>") -> CaseFixture:
    """Parse one fixture document; all rationals exact, all ids resolved.

    Every ``ParseError`` (``DanglingReference`` included) names the fixture;
    malformed YAML, a repeated key included, also gives its line and column.
    """
    loader = YAML_LOADER(text)
    try:
        node = loader.get_single_node()
        doc = None if node is None else _UniqueKeyConstructor().construct_document(node)
    except yaml.YAMLError as exc:
        raise ParseError(f"{name}: invalid YAML: {exc}") from exc
    finally:
        loader.dispose()
    if not isinstance(doc, dict):
        raise ParseError(f"{name}: fixture document is empty or not a mapping")
    try:
        return _build_fixture(doc, name)
    except ParseError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _build_fixture(doc: dict, name: str) -> CaseFixture:
    profile = _scalar(SingularityProfile.of, _req(doc, "profile", "document"), "profile")

    points = []
    for pid, spec in _shaped(doc.get("points") or {}, dict, "points").items():
        ade = _scalar(AdeType.parse, _req(spec, "type", f"points.{pid}"), f"points.{pid}.type")
        orientation = spec.get("orientation", "standard")
        if orientation not in ("standard", "reversed"):
            raise ParseError(f"points.{pid}: bad orientation {orientation!r}")
        if orientation == "reversed" and ade.family != "A":
            raise ParseError(f"points.{pid}: only A_n chains can be reversed")
        points.append((pid, ade, orientation))

    point_ids = [p[0] for p in points]
    orientations = {pid: o for pid, _, o in points}

    curves = []
    for i, spec in enumerate(_shaped(doc.get("curves") or [], list, "curves")):
        ctx = f"curves[{i}]"
        cid = _string(_req(spec, "id", ctx), f"{ctx}.id")
        kind = _req(spec, "kind", ctx)
        if kind not in ("line", "conic", "cubic"):
            raise ParseError(f"{ctx}: bad kind {kind!r}")
        degree = _scalar(_integer,
                         spec.get("degree", {"line": 1, "conic": 2, "cubic": 3}[kind]),
                         f"{ctx} ({cid}).degree")
        inc = []
        where = f"{ctx} ({cid}).incidence"
        for pid, vec in _shaped(spec.get("incidence") or {}, dict, where).items():
            if pid not in point_ids:
                raise DanglingReference(f"{ctx}: unknown point {pid!r}")
            at = f"{where}.{pid}"
            vec = [_scalar(_integer, v, at) for v in _shaped(vec, list, at)]
            if orientations[pid] == "reversed":
                vec = vec[::-1]   # normalize to canonical chain order
            inc.append((pid, tuple(vec)))
        where = f"{ctx} ({cid}).pairwise"
        pairwise = tuple((other, _scalar(parse_rat, val, f"{where}.{other}"))
                         for other, val in _shaped(spec.get("pairwise") or {}, dict,
                                                   where).items())
        curves.append(NamedCurve(cid, kind, degree, tuple(inc), pairwise))

    curve_ids = {c.id for c in curves}
    for c in curves:
        for other, _ in c.pairwise:
            if other not in curve_ids:
                raise DanglingReference(f"curves[{c.id}].pairwise: unknown curve {other!r}")

    def parse_terms(items, ctx) -> tuple[tuple[Rat, str], ...]:
        terms = []
        for j, pair in enumerate(_shaped(items, list, ctx)):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{ctx}[{j}]: expected a [multiplicity, curve] pair, "
                                 f"got {pair!r}")
            mult, cid = pair
            if _string(cid, f"{ctx}[{j}]") not in curve_ids:
                raise DanglingReference(f"{ctx}[{j}]: unknown curve {cid!r}")
            terms.append((_scalar(parse_rat, mult, f"{ctx}[{j}]"), cid))
        return tuple(terms)

    equivalences = tuple(
        BoundaryDivisor(parse_terms(eq, f"equivalences[{i}]"))
        for i, eq in enumerate(_shaped(doc.get("equivalences") or [], list, "equivalences")))

    witness = None
    if "witness" in doc and doc["witness"] is not None:
        wspec = doc["witness"]
        boundary = BoundaryDivisor(parse_terms(_req(wspec, "divisor", "witness"), "witness.divisor"))
        tower = None
        tower_points: list[tuple[str, str]] = []
        tower_specs = _shaped(wspec.get("tower") or [], list, "witness.tower")
        if tower_specs:
            steps = []
            for j, sspec in enumerate(tower_specs):
                ctx = f"witness.tower[{j}]"
                sname = _string(_req(sspec, "name", ctx), f"{ctx}.name")
                spoint = _req(sspec, "point", ctx)
                if spoint not in point_ids:
                    raise DanglingReference(f"{ctx}: unknown point {spoint!r}")
                strict, excs = [], []
                for k, item in enumerate(_shaped(_req(sspec, "through", ctx), list,
                                                 f"{ctx}.through")):
                    if "curve" in _shaped(item, dict, f"{ctx}.through[{k}]"):
                        curve = _string(item["curve"], f"{ctx}.through[{k}].curve")
                        if curve not in curve_ids:
                            raise DanglingReference(f"{ctx}: unknown curve {curve!r}")
                        strict.append((curve,
                                       _scalar(_integer, item.get("mult", 1), f"{ctx}.mult")))
                    elif "exceptional" in item:
                        excs.append(_string(item["exceptional"],
                                            f"{ctx}.through[{k}].exceptional"))
                    else:
                        raise ParseError(f"{ctx}: through-entry needs curve or exceptional")
                steps.append(TowerStep(sname, tuple(strict), tuple(excs)))
                tower_points.append((sname, spoint))
            tower = BlowupTower(tuple(steps))
        witness = Witness(boundary, tower, tuple(tower_points),
                          _strings(wspec.get("tangencies") or [], "witness.tangencies"))

    script = None
    if "script" in doc and doc["script"] is not None:
        sspec = _known(doc["script"], ("tau_floor", "variables", "base_rows", "blocks",
                                       "assumptions"), "script")
        variables = _strings(_req(sspec, "variables", "script"), "script.variables")
        if len(set(variables)) != len(variables):
            raise ParseError(f"script.variables: repeated name in {list(variables)}")
        tau_floor = _scalar(parse_rat, _req(sspec, "tau_floor", "script"), "script.tau_floor")
        base_rows = _parse_script_rows(sspec.get("base_rows"), variables, "script.base_rows")
        ades = {pid: ade for pid, ade, _ in points}
        blocks = tuple(_parse_block(bspec, variables, ades, f"script.blocks[{i}]")
                       for i, bspec in enumerate(_shaped(sspec.get("blocks") or [], list,
                                                         "script.blocks")))
        if not blocks:   # a script without leaves would verify vacuously
            raise ParseError("script: needs at least one block")
        script = ProofScript(tau_floor, variables, base_rows, blocks,
                             _parse_assumptions(sspec.get("assumptions"), variables,
                                                "script.assumptions"))

    group = None
    if "group" in doc and doc["group"] is not None:
        gspec = _known(doc["group"], ("name", "declared_order", "generators",
                                      "invariant_divisor", "assumptions"), "group")
        gens = []
        for i, gen in enumerate(_shaped(_req(gspec, "generators", "group"), list,
                                        "group.generators")):
            ctx = f"group.generators[{i}]"
            _known(gen, ("name", "lines"), ctx)
            lines = tuple(_shaped(_req(gen, "lines", ctx), dict, f"{ctx}.lines").items())
            for k, v in lines:
                if k not in curve_ids or _string(v, f"{ctx}.lines.{k}") not in curve_ids:
                    raise DanglingReference(f"{ctx}: unknown line {k!r} or {v!r}")
            gens.append(GroupGenerator(_string(_req(gen, "name", ctx), f"{ctx}.name"), lines))
        group = GroupData(
            _string(_req(gspec, "name", "group"), "group.name"),
            _scalar(_integer, _req(gspec, "declared_order", "group"), "group.declared_order"),
            tuple(gens),
            parse_terms(_req(gspec, "invariant_divisor", "group"), "group.invariant_divisor"),
            _parse_assumptions(gspec.get("assumptions"), (), "group.assumptions"))

    fiberwise = None
    if "fiberwise" in doc and doc["fiberwise"] is not None:
        fspec = doc["fiberwise"]
        lct_pair = tuple(_scalar(parse_rat, v, f"fiberwise.lct_pair[{i}]") for i, v in
                         enumerate(_shaped(_req(fspec, "lct_pair", "fiberwise"), list,
                                           "fiberwise.lct_pair", 2)))
        verdict = _req(fspec, "expected_verdict", "fiberwise")
        if verdict not in ("Biregular", "Inconclusive"):
            raise ParseError("fiberwise.expected_verdict: expected Biregular or "
                             f"Inconclusive, got {verdict!r}")
        given = [k for k in ("source_poly", "target_poly", "map") if fspec.get(k) is not None]
        if len(given) in (1, 2):
            raise ParseError("fiberwise: source_poly, target_poly and map go together; "
                             f"only {', '.join(given)} given")
        mp, k = fspec.get("map"), fspec.get("expected_k")
        fiberwise = FiberwiseData(
            _parse_poly(fspec.get("source_poly"), "fiberwise.source_poly"),
            _parse_poly(fspec.get("target_poly"), "fiberwise.target_poly"),
            tuple((v, _scalar(_integer, e, f"fiberwise.map.{v}"))
                  for v, e in _shaped(mp, dict, "fiberwise.map").items())
            if mp is not None else None,
            None if k is None else _scalar(_integer, k, "fiberwise.expected_k"),
            lct_pair,
            tuple(_scalar(_boolean, b, f"fiberwise.log_terminal[{i}]") for i, b in
                  enumerate(_shaped(_req(fspec, "log_terminal", "fiberwise"), list,
                                    "fiberwise.log_terminal", 2))),
            verdict,
            _strings(_req(fspec, "fiber_profiles", "fiberwise"), "fiberwise.fiber_profiles", 2))

    model = SurfaceModel(profile, tuple((pid, ade) for pid, ade, _ in points),
                         tuple(curves), equivalences)
    expected = (_scalar(parse_rat, doc["expected_omega"], "expected_omega")
                if "expected_omega" in doc else None)
    return CaseFixture(_string(doc.get("name", name), "name"), model, expected, witness, script,
                       group, fiberwise)


# --- validation ---------------------------------------------------------------


def _pullback_cache(model: SurfaceModel):
    # Malformed incidence vectors are left out: validate_fixture reports them,
    # and the intersection audit skips them instead of failing on them.
    cache: dict[tuple[str, str], tuple[Rat, ...]] = {}
    for pid, ade in model.points:
        for c in model.curves:
            vec = c.incidence_at(pid)
            if vec is not None and len(vec) == ade.rank and all(v >= 0 for v in vec):
                cache[(c.id, pid)] = pullback_coefficients(ade, list(vec))
    return cache


def intersection_number(model: SurfaceModel, a: NamedCurve, b: NamedCurve,
                        cache=None) -> Rat:
    """Exact ``a . b`` on the singular surface from resolution bookkeeping.

    ``a . b = (strict a . strict b) + sum over points of inc_a . C^-1 . inc_b``;
    strict self-intersections are -1 for lines and 0 for conics (adjunction
    on the smooth resolution: both are smooth rational curves with
    ``-K . curve`` equal to the degree).
    """
    if cache is None:
        cache = _pullback_cache(model)
    if a.id == b.id:
        strict = Rat(-1) if a.kind == "line" else Rat(0)
    else:
        strict = a.strict_pair(b.id)
        if strict is None:
            strict = b.strict_pair(a.id)
        if strict is None:
            strict = Rat(0)
    total = strict
    for pid, _ in model.points:
        key = (a.id, pid)
        if key not in cache or (b.id, pid) not in cache:
            continue
        inc_b = b.incidence_at(pid)
        coeffs = cache[key]
        total += sum((coeffs[i] * inc_b[i] for i in range(len(inc_b))), Rat(0))
    return total


def validate_fixture(fixture: CaseFixture) -> list[str]:
    """Run all model invariants; returns an empty list iff the fixture is valid."""
    findings: list[str] = []
    model = fixture.model

    if model.profile.key not in ADMISSIBLE_PROFILES:
        findings.append(f"profile {model.profile} not in the admissible list")

    curve_map = model.curve_map
    for c in model.curves:
        expected_degree = {"line": 1, "conic": 2, "cubic": 3}[c.kind]
        if c.degree != expected_degree:
            findings.append(f"curve {c.id}: degree {c.degree} does not match kind {c.kind}")
        for pid, vec in c.incidence:
            if len(vec) != model.ade(pid).rank:
                findings.append(f"curve {c.id}: incidence at {pid} has wrong length")
            if any(v < 0 for v in vec):
                findings.append(f"curve {c.id}: negative incidence at {pid}")

    for i, eq in enumerate(model.equivalences):
        deg = eq.degree(curve_map)
        if deg != 3:
            findings.append(f"equivalences[{i}]: degree mismatch (total degree {deg})")
        if any(m < 0 for m, _ in eq.terms):
            findings.append(f"equivalences[{i}]: negative multiplicity")

    # Intersection audit: -K . X recomputed through each declared equivalence.
    cache = _pullback_cache(model)
    for i, eq in enumerate(model.equivalences):
        members = {cid for _, cid in eq.terms}
        if any(curve_map[cid].kind == "cubic" for cid in members):
            continue   # no adjunction bookkeeping for irreducible cubic sections
        for cid in sorted(members):
            x = curve_map[cid]
            total = sum((m * intersection_number(model, curve_map[c], x, cache)
                         for m, c in eq.terms), Rat(0))
            if total != x.degree:
                findings.append(
                    f"equivalences[{i}]: -K.{cid} = {format_rat(total)} from declared "
                    f"incidences, expected {x.degree}")

    if fixture.witness is not None:
        wb = fixture.witness.boundary
        if any(m < 0 for m, _ in wb.terms):
            findings.append("witness: negative multiplicity")
        if wb.degree(curve_map) != 3:
            findings.append("witness: boundary degree is not 3")
        if model.equivalences and not any(
                sorted(wb.terms) == sorted(eq.terms) for eq in model.equivalences):
            findings.append("witness: boundary does not match any declared equivalence")

    script = fixture.script
    if script is not None and fixture.expected_omega is not None:
        if script.tau_floor * fixture.expected_omega != 1:
            findings.append(
                f"script: tau_floor {format_rat(script.tau_floor)} is not the "
                f"reciprocal of expected_omega {format_rat(fixture.expected_omega)}")
    if script is not None:
        base = {(r.row.coeffs, r.row.constant, r.row.relation) for r in script.base_rows}
        for point in dict.fromkeys(b.generate for b in script.blocks if b.generate):
            for j, form in enumerate(exceptional_nef_rows(model.ade(point))):
                coeffs = tuple(form.get(v, Rat(0)) for v in script.variables)
                if (coeffs, Rat(0), ">=") not in base:
                    findings.append(f"script: nef row for node {j+1} at {point} "
                                    "missing or mistyped")

    return findings
