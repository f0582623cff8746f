"""Declarative case fixtures: geometry, witnesses and proof scripts.

All case-specific geometry (line counts, incidences, linear equivalences,
conic tests) lives in reviewable YAML files with per-field citations in
comments; this module only parses, cross-references and validates them.
A proof script is base rows plus blocks.  A block lists its branches, or
names an A_n point with ``generate: <point>``; the loader expands that into
the point's adjunction case tree (``generate_case_tree``) once.
A document is composed by ``YAML_LOADER`` into a node tree, which
``_NodeReader`` reads into plain values (``str``, ``int`` and ``bool``
scalars, lists and dicts itself, every other tag through PyYAML's safe
constructor); ``schema.walk`` checks them against ``FIXTURE``.
The transcription is the risk, so validation is deliberately aggressive:
besides structural checks it runs an exact intersection-number audit
(``-K . X`` recomputed through every declared equivalence, in integers over
each point's inverse-Cartan denominator) that catches mistyped incidence
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from typing import NamedTuple

import yaml

from cubiclct.lattice import AdeType, TowerStep, exceptional_nef_rows, inverse_cartan
from cubiclct.linsys import Row, parse_row
from cubiclct.qexact import format_rat
from cubiclct.schema import FIXTURE, ParseError, walk


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
    incidence: tuple[tuple[str, tuple[int, ...]], ...]  # (point id, vector)
    pairwise: tuple[tuple[str, Rat], ...] = ()          # strict-transform numbers

    @property
    def degree(self) -> int:
        return {"line": 1, "conic": 2, "cubic": 3}[self.kind]

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

    @property
    def curve_map(self) -> dict[str, NamedCurve]:
        return {c.id: c for c in self.curves}


class Witness(NamedTuple):
    boundary: BoundaryDivisor
    tower: tuple[TowerStep, ...] = ()   # () for no tower


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


#: libyaml's parser when PyYAML was built with it, else the pure-Python one.
#: Only the parser differs; the resolver and ``_NodeReader``, and
#: so every loaded document, are the same under both.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_STR, _INT, _BOOL, _SEQ, _MAP, _MERGE = (
    f"tag:yaml.org,2002:{t}" for t in ("str", "int", "bool", "seq", "map", "merge"))


class _NodeReader(yaml.constructor.SafeConstructor):
    """PyYAML's safe constructor with its own reader for ``str``, ``int`` and
    ``bool`` scalars, lists and dicts; any other tag (``null``, ``float``,
    ``!!set`` ...) goes to the safe constructor, whose children come back here.
    A list or dict is registered before it is filled, so an alias, a recursive
    one included, gives the same object.  A key repeated in one mapping is an
    error at the repeat; a key that a ``<<`` merge brings in may still be
    overridden by one written in the mapping.  A value that its tag's
    constructor rejects (``!!timestamp a3``, ``!!bool maybe``) is a
    ``ConstructorError`` at that value, not the constructor's own exception."""

    def construct_object(self, node, deep=False):
        tag, kind = node.tag, type(node)
        if kind is yaml.ScalarNode and tag == _STR:
            return node.value
        made = self.constructed_objects
        if node in made:
            return made[node]
        if kind is yaml.SequenceNode and tag == _SEQ:
            made[node] = data = []
            data.extend(map(self.construct_object, node.value))
            return data
        if kind is yaml.MappingNode and tag == _MAP:
            made[node] = data = {}
            data.update(self.construct_mapping(node))
            return data
        try:
            if kind is yaml.ScalarNode and tag == _INT:
                return self.construct_yaml_int(node)
            if kind is yaml.ScalarNode and tag == _BOOL:
                return self.construct_yaml_bool(node)
            return super().construct_object(node, deep=True)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            value = f" {node.value!r}" if kind is yaml.ScalarNode else ""
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot construct {tag}{value}: {exc}", node.start_mark) from exc

    def construct_mapping(self, node, deep=False):
        if not isinstance(node, yaml.MappingNode):
            return super().construct_mapping(node, deep)
        written = sum(key_node.tag != _MERGE for key_node, _ in node.value)
        self.flatten_mapping(node)   # merged pairs first, then the written ones
        first_written = len(node.value) - written
        mapping, seen = {}, set()
        for i, (key_node, value_node) in enumerate(node.value):
            key = self.construct_object(key_node)
            try:
                hash(key)
            except TypeError:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    "found unhashable key", key_node.start_mark) from None
            if i >= first_written:
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            mapping[key] = self.construct_object(value_node)
        return mapping


def load_fixture(text: str, name: str = "<fixture>") -> CaseFixture:
    """Parse one fixture document; all rationals exact, all ids resolved.

    Every ``ParseError`` names the fixture; malformed YAML, a repeated key
    included, also gives its line and column.
    """
    loader = YAML_LOADER(text)
    try:
        node = loader.get_single_node()
        doc = None if node is None else _NodeReader().construct_document(node)
    except yaml.YAMLError as exc:
        raise ParseError(f"{name}: invalid YAML: {exc}") from exc
    finally:
        loader.dispose()
    try:
        return _build_fixture(walk(FIXTURE, doc), name)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from exc


def _scalar(convert, value, where: str):
    """``convert(value)``, with a bad value raised as a located ParseError."""
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _script_rows(items, variables, ctx) -> tuple[ScriptRow, ...]:
    rows = []
    for i, item in enumerate(items):
        item = {"row": item} if isinstance(item, str) else item
        text, note = item["row"], item.get("note", "")
        row = _scalar(lambda t: parse_row(t, variables, provenance=note or t), text, f"{ctx}[{i}]")
        rows.append(ScriptRow(text, row, note, item.get("redundant", False)))
    return tuple(rows)


def _unique(names, ctx: str, what: str = "") -> None:
    """A located ParseError at the first name that ``names`` repeats: the
    ``what`` key of entry i of ``ctx``, or the entry itself if ``what`` is empty."""
    seen = set()
    for i, name in enumerate(names):
        if name in seen:
            where = f"{ctx}[{i}].{what}" if what else f"{ctx}[{i}]"
            raise ParseError(f"{where}: repeated {what or 'entry'} {name!r}")
        seen.add(name)


def _branches(items, variables, ctx) -> tuple[Branch, ...]:
    _unique((b["name"] for b in items), ctx, "name")
    return tuple(Branch(b["name"], _script_rows(b.get("rows", ()), variables, f"{ctx}[{i}].rows"))
                 for i, b in enumerate(items))


def _assumptions(items, variables, ctx) -> tuple[Assumption, ...]:
    return tuple(Assumption(a["tag"], a.get("note", ""),
                            _script_rows(a.get("exclusion_rows", ()), variables,
                                         f"{ctx}[{i}].exclusion_rows"))
                 for i, a in enumerate(items))


def _declared(ids, value, what: str, where: str):
    """``value`` when ``ids`` holds it, else a ParseError at ``where``."""
    if value not in ids:
        raise ParseError(f"{where}: unknown {what} {value!r}")
    return value


def _block(spec, variables, points: dict[str, AdeType], ctx) -> Block:
    """One script block; ``generate: <point>`` expands to that point's case tree."""
    point = spec.get("generate")
    if point is None:
        if "branches" not in spec:
            raise ParseError(f"{ctx}: missing key 'branches'")
        branches = _branches(spec["branches"], variables, f"{ctx}.branches")
    elif "branches" in spec:
        raise ParseError(f"{ctx}: a block gives branches or generate, not both")
    else:
        ade = points[_declared(points, point, "point", f"{ctx}.generate")]
        branches = _scalar(lambda a: generate_case_tree(a, variables), ade, f"{ctx}.generate")
    return Block(spec.get("name", ""),
                 _script_rows(spec.get("rows", ()), variables, f"{ctx}.rows"),
                 _branches(spec.get("alternatives", ()), variables, f"{ctx}.alternatives"),
                 branches, point)


def _build_fixture(doc: dict, name: str) -> CaseFixture:
    """The records of a document that ``walk`` has checked against ``FIXTURE``;
    what is left to check here is what refers to what."""
    points = {pid: spec["type"] for pid, spec in doc.get("points", {}).items()}
    curves = tuple(
        NamedCurve(spec["id"], spec["kind"],
                   tuple((_declared(points, pid, "point", f"curves[{i}].incidence.{pid}"), vec)
                         for pid, vec in spec.get("incidence", {}).items()),
                   tuple(spec.get("pairwise", {}).items()))
        for i, spec in enumerate(doc.get("curves", ())))
    _unique((c.id for c in curves), "curves", "id")
    curve_ids = {c.id for c in curves}
    for i, c in enumerate(curves):
        for other, _ in c.pairwise:
            _declared(curve_ids, other, "curve", f"curves[{i}].pairwise.{other}")

    def curve_terms(terms, ctx) -> tuple[tuple[Rat, str], ...]:
        """``terms``, each naming a declared curve, and no curve twice."""
        for j, (_, cid) in enumerate(terms):
            _declared(curve_ids, cid, "curve", f"{ctx}[{j}]")
        _unique((cid for _, cid in terms), ctx)
        return terms

    equivalences = tuple(BoundaryDivisor(curve_terms(eq, f"equivalences[{i}]"))
                         for i, eq in enumerate(doc.get("equivalences", ())))
    # one equivalence twice, its terms in any order, is a repeated entry
    terms = (sorted((c, format_rat(m)) for m, c in eq.terms) for eq in equivalences)
    _unique((" + ".join(f"{m}*{c}" for c, m in t) for t in terms), "equivalences")

    witness = None
    if "witness" in doc:
        wspec = doc["witness"]
        tower = wspec.get("tower", ())
        _unique((step["name"] for step in tower), "witness.tower", "name")
        nodes = {f"{pid}:{node}" for pid, ade in points.items() for node in ade.nodes}
        steps, earlier = [], set()
        for j, step in enumerate(tower):
            ctx = f"witness.tower[{j}]"
            pid = _declared(points, step["point"], "point", f"{ctx}.point")
            strict, exceptionals = [], []
            for k, t in enumerate(step["through"]):
                where = f"{ctx}.through[{k}]"
                if "curve" in t:
                    strict.append((_declared(curve_ids, t["curve"], "curve", f"{where}.curve"),
                                   t.get("mult", 1)))
                    continue
                # an earlier step, or a node: ``<point>:<node>``, or bare for the step's point
                e = t["exceptional"]
                node = e if ":" in e else f"{pid}:{e}"
                if e not in earlier and node not in nodes:
                    raise ParseError(f"{where}.exceptional: unknown divisor {e!r}")
                exceptionals.append(e if e in earlier else node)
            steps.append(TowerStep(step["name"], tuple(strict), tuple(exceptionals)))
            earlier.add(step["name"])
        witness = Witness(BoundaryDivisor(curve_terms(wspec["divisor"], "witness.divisor")),
                          tuple(steps))

    script = None
    if "script" in doc:
        sspec = doc["script"]
        variables = sspec["variables"]
        if len(set(variables)) != len(variables):
            raise ParseError(f"script.variables: repeated name in {list(variables)}")
        blocks = tuple(_block(bspec, variables, points, f"script.blocks[{i}]")
                       for i, bspec in enumerate(sspec.get("blocks", ())))
        if not blocks:   # a script without leaves would verify vacuously
            raise ParseError("script: needs at least one block")
        _unique((b.name for b in blocks), "script.blocks", "name")
        if "tau" not in variables:   # the closure row would read 0 >= tau_floor
            raise ParseError("script.variables: lack tau, the threshold reciprocal")
        script = ProofScript(
            sspec["tau_floor"], variables,
            _script_rows(sspec.get("base_rows", ()), variables, "script.base_rows"), blocks,
            _assumptions(sspec.get("assumptions", ()), variables, "script.assumptions"))

    group = None
    if "group" in doc:
        gspec = doc["group"]
        for i, gen in enumerate(gspec["generators"]):
            for k, v in gen["lines"].items():
                _declared(curve_ids, k, "line", f"group.generators[{i}].lines")
                _declared(curve_ids, v, "line", f"group.generators[{i}].lines.{k}")
        group = GroupData(gspec["name"], gspec["declared_order"],
                          tuple(GroupGenerator(gen["name"], tuple(gen["lines"].items()))
                                for gen in gspec["generators"]),
                          curve_terms(gspec["invariant_divisor"], "group.invariant_divisor"),
                          _assumptions(gspec.get("assumptions", ()), (), "group.assumptions"))

    fspec = doc.get("fiberwise")
    fiberwise = None if fspec is None else FiberwiseData(
        fspec.get("source_poly"), fspec.get("target_poly"),
        tuple(fspec["map"].items()) if "map" in fspec else None, fspec.get("expected_k"),
        fspec["lct_pair"], fspec["log_terminal"], fspec["expected_verdict"],
        fspec["fiber_profiles"])

    profile = SingularityProfile.of([ade.label for ade in doc["profile"]])
    model = SurfaceModel(profile, tuple(points.items()), curves, equivalences)
    return CaseFixture(doc.get("name", name), model, doc.get("expected_omega"), witness,
                       script, group, fiberwise)


# --- validation ---------------------------------------------------------------


def _compose(f: dict[str, str], g: dict[str, str]) -> dict[str, str]:
    return {x: f[g[x]] for x in g}


def generated_group(generators: list[dict[str, str]], domain: list[str]) -> list[dict[str, str]]:
    """Closure of the generators under composition (the image in Sym(domain))."""
    identity = {x: x for x in domain}
    seen = {tuple(sorted(identity.items()))}
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for g in generators:
            for h in frontier:
                gh = _compose(g, h)
                key = tuple(sorted(gh.items()))
                if key not in seen:
                    seen.add(key)
                    elements.append(gh)
                    nxt.append(gh)
        frontier = nxt
    return elements


def _pullback_cache(model: SurfaceModel):
    """(curve id, point id) -> ``(numerators, den)``: the curve's pullback at the
    point, ``Cartan^-1 . incidence``, as integers over the type's denominator."""
    # Malformed incidence vectors are left out: validate_fixture reports them,
    # and the intersection audit skips them instead of failing on them.
    cache: dict[tuple[str, str], tuple[tuple[int, ...], int]] = {}
    for pid, ade in model.points:
        rows, den = inverse_cartan(ade)
        for c in model.curves:
            vec = c.incidence_at(pid)
            if vec is not None and len(vec) == ade.rank and all(v >= 0 for v in vec):
                nums = tuple(sum(m * v for m, v in zip(row, vec)) for row in rows)
                cache[(c.id, pid)] = nums, den
    return cache


def intersection_number(model: SurfaceModel, a: NamedCurve, b: NamedCurve, cache) -> Rat:
    """Exact ``a . b`` on the singular surface from resolution bookkeeping.

    ``a . b = (strict a . strict b) + sum over points of inc_a . C^-1 . inc_b``;
    strict self-intersections are -1 for lines and 0 for conics (adjunction
    on the smooth resolution: both are smooth rational curves with
    ``-K . curve`` equal to the degree).  Each point's term is summed in
    integers over its type's denominator, from ``cache``, the model's
    ``_pullback_cache``.
    """
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
        held = cache.get((a.id, pid))
        if held is None or (b.id, pid) not in cache:
            continue
        nums, den = held
        total += Rat(sum(n * v for n, v in zip(nums, b.incidence_at(pid))), den)
    return total


def validate_fixture(fixture: CaseFixture) -> list[str]:
    """Run all model invariants; returns an empty list iff the fixture is valid."""
    findings: list[str] = []
    model = fixture.model

    if model.profile.key not in ADMISSIBLE_PROFILES:
        findings.append(f"profile {model.profile} not in the admissible list")
    # a fiberwise fixture names its profile but declares no points
    labels = [ade.label for _, ade in model.points]
    if fixture.fiberwise is None and sorted(labels) != sorted(model.profile.entries):
        findings.append(f"points {profile_key(labels) or '(none)'} do not realise "
                        f"profile {model.profile}")

    curve_map = model.curve_map
    for c in model.curves:
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

    # Only the equivalences are checked for degree, sign and -K above; every
    # other divisor a fixture states must be one of them.
    declared = {tuple(sorted(eq.terms)) for eq in model.equivalences}
    witness = fixture.witness
    if witness is not None and tuple(sorted(witness.boundary.terms)) not in declared:
        findings.append("witness: boundary does not match any declared equivalence")

    group = fixture.group
    if group is not None:
        lines = [c.id for c in model.curves if c.kind == "line"]
        perms = [(g.name, dict(g.lines)) for g in group.generators]
        bad = [name for name, p in perms if set(p) != set(lines) or set(p.values()) != set(lines)]
        if not lines:
            findings.append("group: no line to act on")
        findings.extend(f"group: generator {name} is not a permutation of the "
                        f"{len(lines)} lines" for name in bad)
        if tuple(sorted(group.invariant_divisor)) not in declared:
            # the bound 1 holds for an effective anticanonical divisor only
            findings.append("group: invariant divisor does not match any declared equivalence")
        if not any(m == 1 for m, _ in group.invariant_divisor):
            findings.append("group: invariant divisor has no component of multiplicity 1")
        if not bad:
            mult = dict.fromkeys(lines, Rat(0))   # only its line terms are compared
            for m, cid in group.invariant_divisor:
                if cid in mult:
                    mult[cid] += m
            findings.extend(f"group: invariant divisor moves under generator {name}"
                            for name, p in perms if {p[c]: m for c, m in mult.items()} != mult)
            order = len(generated_group([p for _, p in perms], lines))
            if group.declared_order % order:
                findings.append(f"group: image order {order} does not divide declared "
                                f"order {group.declared_order}")

    fiberwise = fixture.fiberwise
    if fiberwise is not None:
        findings.extend(f"fiberwise: map power of {v} is negative ({e})"
                        for v, e in fiberwise.map_powers or () if e < 0)
        findings.extend(f"fiberwise: lct_pair[{i}] = {format_rat(x)} is not positive"
                        for i, x in enumerate(fiberwise.lct_pair) if x <= 0)

    script = fixture.script
    if script is not None:   # the loader gives a script an expected_omega
        if script.tau_floor * fixture.expected_omega != 1:
            findings.append(
                f"script: tau_floor {format_rat(script.tau_floor)} is not the "
                f"reciprocal of expected_omega {format_rat(fixture.expected_omega)}")
        base = {(r.row.integer_ratios, r.row.relation) for r in script.base_rows}
        for point in dict.fromkeys(b.generate for b in script.blocks if b.generate):
            for j, form in enumerate(exceptional_nef_rows(model.ade(point))):
                # the form as ``Row.integer_ratios`` reads it: each int over 1, then 0/1
                ratios = tuple(x for v in script.variables for x in (form.get(v, 0), 1))
                if (ratios + (0, 1), ">=") not in base:
                    findings.append(f"script: nef row for node {j+1} at {point} "
                                    "missing or mistyped")

    return findings
