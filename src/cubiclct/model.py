"""Declarative case fixtures: geometry, witnesses and proof scripts.

All case-specific geometry (line counts, incidences, linear equivalences,
conic tests) lives in reviewable YAML files with per-field citations in
comments; this module only parses, cross-references and validates them.
The transcription is the risk, so validation is deliberately aggressive:
besides structural checks it runs an exact intersection-number audit
(``-K . X`` recomputed through every declared equivalence) that catches
mistyped incidence vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat

import yaml

from cubiclct.lattice import (AdeType, BlowupTower, ResolutionLattice, TowerStep,
                              exceptional_nef_rows, pullback_coefficients)
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


@dataclass(frozen=True)
class NamedCurve:
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


@dataclass(frozen=True)
class BoundaryDivisor:
    terms: tuple[tuple[Rat, str], ...]

    def degree(self, curves: dict[str, NamedCurve]) -> Rat:
        return sum((m * curves[c].degree for m, c in self.terms), Rat(0))

    def multiplicity(self, curve: str) -> Rat:
        return sum((m for m, c in self.terms if c == curve), Rat(0))


@dataclass(frozen=True)
class SurfaceModel:
    profile: SingularityProfile
    points: tuple[tuple[str, ResolutionLattice], ...]
    curves: tuple[NamedCurve, ...]
    equivalences: tuple[BoundaryDivisor, ...]
    anticanonical_degree: int = 3

    def lattice(self, point: str) -> ResolutionLattice:
        for pid, lat in self.points:
            if pid == point:
                return lat
        raise KeyError(point)

    def curve(self, cid: str) -> NamedCurve:
        for c in self.curves:
            if c.id == cid:
                return c
        raise KeyError(cid)

    @property
    def curve_map(self) -> dict[str, NamedCurve]:
        return {c.id: c for c in self.curves}


@dataclass(frozen=True)
class Witness:
    boundary: BoundaryDivisor
    tower: BlowupTower | None = None
    tower_points: tuple[tuple[str, str], ...] = ()  # step name -> point id
    tangencies: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScriptRow:
    text: str
    row: Row
    note: str = ""
    redundant: bool = False


@dataclass(frozen=True)
class Alternative:
    name: str
    rows: tuple[ScriptRow, ...]


@dataclass(frozen=True)
class Branch:
    name: str
    rows: tuple[ScriptRow, ...]


@dataclass(frozen=True)
class Block:
    name: str
    rows: tuple[ScriptRow, ...]
    alternatives: tuple[Alternative, ...]
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class Assumption:
    tag: str
    note: str
    exclusion_rows: tuple[ScriptRow, ...] = ()


@dataclass(frozen=True)
class ProofScript:
    mode: str                       # generated | transcribed
    tau_floor: Rat
    variables: tuple[str, ...]
    base_rows: tuple[ScriptRow, ...]
    point: str | None = None        # generated mode: which singular point
    alternatives: tuple[Alternative, ...] = ()   # generated mode OR-level
    blocks: tuple[Block, ...] = ()               # transcribed mode
    assumptions: tuple[Assumption, ...] = ()


@dataclass(frozen=True)
class GroupGenerator:
    name: str
    lines: tuple[tuple[str, str], ...]
    points: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class GroupData:
    name: str
    declared_order: int
    expected_image_order: int
    generators: tuple[GroupGenerator, ...]
    invariant_divisor: tuple[tuple[Rat, str], ...]
    extra_degrees: tuple[tuple[str, int], ...] = ()  # non line/conic components
    conic_residual_pairs: str = ""
    assumptions: tuple[Assumption, ...] = ()


@dataclass(frozen=True)
class FiberwiseData:
    source_poly: tuple[tuple[Rat, tuple[int, ...]], ...] | None
    target_poly: tuple[tuple[Rat, tuple[int, ...]], ...] | None
    map_powers: tuple[tuple[str, int], ...] | None
    expected_k: int | None
    lct_pair: tuple[Rat, Rat]
    log_terminal: tuple[bool, bool]
    expected_verdict: str
    fiber_profiles: tuple[str, str]  # profile key or "smooth-eckardt"/"smooth-general"


@dataclass(frozen=True)
class CaseFixture:
    name: str
    model: SurfaceModel
    expected_omega: Rat | None
    witness: Witness | None
    script: ProofScript | None
    group: GroupData | None = None
    fiberwise: FiberwiseData | None = None


# --- loading -----------------------------------------------------------------


def _req(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ParseError(f"{ctx}: missing key {key!r}")
    return mapping[key]


def _shaped(value, kind: type, where: str):
    """``value`` when it is a ``kind`` (dict or list), else a located ParseError."""
    if not isinstance(value, kind):
        expected = "mapping" if kind is dict else "list"
        raise ParseError(f"{where}: expected a {expected}, got {value!r}")
    return value


def _parse_script_rows(items, variables, ctx) -> tuple[ScriptRow, ...]:
    rows = []
    for i, item in enumerate(items or []):
        where = f"{ctx}[{i}]"
        if isinstance(item, str):
            text, note, redundant = item, "", False
        elif isinstance(item, dict):
            text = _req(item, "row", where)
            note = item.get("note", "")
            redundant = bool(item.get("redundant", False))
        else:
            raise ParseError(f"{where}: row must be string or mapping")
        try:
            row = parse_row(text, variables, provenance=note or text)
        except (ValueError, KeyError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        rows.append(ScriptRow(text, row, note, redundant))
    return tuple(rows)


def _parse_alternatives(items, variables, ctx) -> tuple[Alternative, ...]:
    alts = []
    for i, item in enumerate(items or []):
        where = f"{ctx}[{i}]"
        name = _req(item, "name", where)
        alts.append(Alternative(name, _parse_script_rows(item.get("rows"), variables, where)))
    return tuple(alts)


def _parse_assumptions(items, variables, ctx) -> tuple[Assumption, ...]:
    out = []
    for i, item in enumerate(items or []):
        where = f"{ctx}[{i}]"
        out.append(Assumption(
            _req(item, "tag", where),
            item.get("note", ""),
            _parse_script_rows(item.get("exclusion_rows"), variables, where)))
    return tuple(out)


def _parse_poly(items, ctx):
    if items is None:
        return None
    out = []
    for i, (coef, exps) in enumerate(items):
        if len(exps) != 5:
            raise ParseError(f"{ctx}[{i}]: exponent vector must have 5 entries (x,y,z,w,t)")
        out.append((parse_rat(coef), tuple(int(e) for e in exps)))
    return tuple(out)


#: libyaml's parser when PyYAML was built with it, else the pure-Python one.
#: Only the parser differs; the constructor and resolver, and so every
#: loaded document, are the same under both.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_fixture(text: str, name: str = "<fixture>") -> CaseFixture:
    """Parse one fixture document; all rationals exact, all ids resolved.

    Every ``ParseError`` (``DanglingReference`` included) names the fixture;
    malformed YAML also gives its line and column.
    """
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"{name}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{name}: fixture document is empty or not a mapping")
    try:
        return _build_fixture(doc, name)
    except ParseError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _build_fixture(doc: dict, name: str) -> CaseFixture:
    profile = SingularityProfile.of(_req(doc, "profile", "document"))

    points = []
    for pid, spec in _shaped(doc.get("points") or {}, dict, "points").items():
        ade = AdeType.parse(_req(spec, "type", f"points.{pid}"))
        orientation = spec.get("orientation", "standard")
        if orientation not in ("standard", "reversed"):
            raise ParseError(f"points.{pid}: bad orientation {orientation!r}")
        if orientation == "reversed" and ade.family != "A":
            raise ParseError(f"points.{pid}: only A_n chains can be reversed")
        points.append((pid, ResolutionLattice(ade), orientation))

    point_ids = [p[0] for p in points]
    orientations = {pid: o for pid, _, o in points}

    curves = []
    for i, spec in enumerate(doc.get("curves") or []):
        ctx = f"curves[{i}]"
        cid = _req(spec, "id", ctx)
        kind = _req(spec, "kind", ctx)
        if kind not in ("line", "conic", "cubic"):
            raise ParseError(f"{ctx}: bad kind {kind!r}")
        degree = int(spec.get("degree", {"line": 1, "conic": 2, "cubic": 3}[kind]))
        inc = []
        where = f"{ctx} ({cid}).incidence"
        for pid, vec in _shaped(spec.get("incidence") or {}, dict, where).items():
            if pid not in point_ids:
                raise DanglingReference(f"{ctx}: unknown point {pid!r}")
            vec = [int(v) for v in _shaped(vec, list, f"{where}.{pid}")]
            if orientations[pid] == "reversed":
                vec = vec[::-1]   # normalize to canonical chain order
            inc.append((pid, tuple(vec)))
        pairwise = tuple((other, parse_rat(val))
                         for other, val in _shaped(spec.get("pairwise") or {}, dict,
                                                   f"{ctx} ({cid}).pairwise").items())
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
            if cid not in curve_ids:
                raise DanglingReference(f"{ctx}[{j}]: unknown curve {cid!r}")
            terms.append((parse_rat(mult), cid))
        return tuple(terms)

    equivalences = tuple(
        BoundaryDivisor(parse_terms(eq, f"equivalences[{i}]"))
        for i, eq in enumerate(doc.get("equivalences") or []))

    witness = None
    if "witness" in doc and doc["witness"] is not None:
        wspec = doc["witness"]
        boundary = BoundaryDivisor(parse_terms(_req(wspec, "divisor", "witness"), "witness.divisor"))
        tower = None
        tower_points: list[tuple[str, str]] = []
        if wspec.get("tower"):
            steps = []
            for j, sspec in enumerate(wspec["tower"]):
                ctx = f"witness.tower[{j}]"
                sname = _req(sspec, "name", ctx)
                spoint = _req(sspec, "point", ctx)
                if spoint not in point_ids:
                    raise DanglingReference(f"{ctx}: unknown point {spoint!r}")
                strict, excs = [], []
                for item in _req(sspec, "through", ctx):
                    if "curve" in item:
                        if item["curve"] not in curve_ids:
                            raise DanglingReference(f"{ctx}: unknown curve {item['curve']!r}")
                        strict.append((item["curve"], int(item.get("mult", 1))))
                    elif "exceptional" in item:
                        excs.append(item["exceptional"])
                    else:
                        raise ParseError(f"{ctx}: through-entry needs curve or exceptional")
                steps.append(TowerStep(sname, tuple(strict), tuple(excs)))
                tower_points.append((sname, spoint))
            tower = BlowupTower(tuple(steps))
        witness = Witness(boundary, tower, tuple(tower_points),
                          tuple(wspec.get("tangencies") or ()))

    script = None
    if "script" in doc and doc["script"] is not None:
        sspec = doc["script"]
        mode = _req(sspec, "mode", "script")
        if mode not in ("generated", "transcribed"):
            raise ParseError(f"script.mode: bad mode {mode!r}")
        variables = tuple(_req(sspec, "variables", "script"))
        tau_floor = parse_rat(_req(sspec, "tau_floor", "script"))
        base_rows = _parse_script_rows(sspec.get("base_rows"), variables, "script.base_rows")
        point = sspec.get("point")
        if mode == "generated":
            if point is None:
                raise ParseError("script: generated mode needs a point")
            if point not in point_ids:
                raise DanglingReference(f"script.point: unknown point {point!r}")
        alternatives = _parse_alternatives(sspec.get("alternatives"), variables,
                                           "script.alternatives")
        blocks = []
        for i, bspec in enumerate(sspec.get("blocks") or []):
            ctx = f"script.blocks[{i}]"
            branches = tuple(
                Branch(_req(br, "name", f"{ctx}.branches[{j}]"),
                       _parse_script_rows(br.get("rows"), variables, f"{ctx}.branches[{j}]"))
                for j, br in enumerate(_req(bspec, "branches", ctx)))
            blocks.append(Block(
                bspec.get("name", f"block{i}"),
                _parse_script_rows(bspec.get("rows"), variables, ctx),
                _parse_alternatives(bspec.get("alternatives"), variables, ctx),
                branches))
        if mode == "transcribed" and not blocks:
            raise ParseError("script: transcribed mode needs blocks")
        script = ProofScript(mode, tau_floor, variables, base_rows, point,
                             alternatives, tuple(blocks),
                             _parse_assumptions(sspec.get("assumptions"), variables,
                                                "script.assumptions"))

    group = None
    if "group" in doc and doc["group"] is not None:
        gspec = doc["group"]
        gens = []
        for i, gen in enumerate(_req(gspec, "generators", "group")):
            ctx = f"group.generators[{i}]"
            lines = tuple(_shaped(_req(gen, "lines", ctx), dict, f"{ctx}.lines").items())
            pts = tuple(_shaped(gen.get("points") or {}, dict, f"{ctx}.points").items())
            for k, v in lines:
                if k not in curve_ids or v not in curve_ids:
                    raise DanglingReference(f"{ctx}: unknown line {k!r} or {v!r}")
            gens.append(GroupGenerator(_req(gen, "name", ctx), lines, pts))
        inv = parse_terms(_req(gspec, "invariant_divisor", "group"), "group.invariant_divisor")
        group = GroupData(
            _req(gspec, "name", "group"),
            int(_req(gspec, "declared_order", "group")),
            int(_req(gspec, "expected_image_order", "group")),
            tuple(gens), inv,
            tuple((k, int(v)) for k, v in _shaped(gspec.get("extra_degrees") or {}, dict,
                                                  "group.extra_degrees").items()),
            (gspec.get("elimination") or {}).get("conic_residual_pairs", ""),
            _parse_assumptions(gspec.get("assumptions"), (), "group.assumptions"))

    fiberwise = None
    if "fiberwise" in doc and doc["fiberwise"] is not None:
        fspec = doc["fiberwise"]
        lct_pair = tuple(parse_rat(v) for v in _req(fspec, "lct_pair", "fiberwise"))
        given = [k for k in ("source_poly", "target_poly", "map") if fspec.get(k) is not None]
        if len(given) in (1, 2):
            raise ParseError("fiberwise: source_poly, target_poly and map go together; "
                             f"only {', '.join(given)} given")
        mp = fspec.get("map")
        fiberwise = FiberwiseData(
            _parse_poly(fspec.get("source_poly"), "fiberwise.source_poly"),
            _parse_poly(fspec.get("target_poly"), "fiberwise.target_poly"),
            tuple(_shaped(mp, dict, "fiberwise.map").items())
            if mp is not None else None,
            fspec.get("expected_k"),
            lct_pair,
            tuple(bool(b) for b in _req(fspec, "log_terminal", "fiberwise")),
            _req(fspec, "expected_verdict", "fiberwise"),
            tuple(_req(fspec, "fiber_profiles", "fiberwise")))

    model = SurfaceModel(profile, tuple((pid, lat) for pid, lat, _ in points),
                         tuple(curves), equivalences)
    expected = parse_rat(doc["expected_omega"]) if "expected_omega" in doc else None
    return CaseFixture(doc.get("name", name), model, expected, witness, script,
                       group, fiberwise)


def serialize_fixture(fixture: CaseFixture) -> str:
    """Serialize back to the published YAML schema (round-trips exactly)."""
    doc: dict = {"name": fixture.name,
                 "profile": list(fixture.model.profile.entries)}
    if fixture.expected_omega is not None:
        doc["expected_omega"] = format_rat(fixture.expected_omega)
    doc["points"] = {pid: {"type": lat.ade.label, "orientation": "standard"}
                     for pid, lat in fixture.model.points}
    doc["curves"] = []
    for c in fixture.model.curves:
        spec: dict = {"id": c.id, "kind": c.kind, "degree": c.degree}
        if c.incidence:
            spec["incidence"] = {pid: list(vec) for pid, vec in c.incidence}
        if c.pairwise:
            spec["pairwise"] = {o: format_rat(v) for o, v in c.pairwise}
        doc["curves"].append(spec)
    doc["equivalences"] = [[[format_rat(m), cid] for m, cid in eq.terms]
                           for eq in fixture.model.equivalences]

    if fixture.witness is not None:
        w: dict = {"divisor": [[format_rat(m), cid] for m, cid in fixture.witness.boundary.terms]}
        if fixture.witness.tower is not None:
            pts = dict(fixture.witness.tower_points)
            w["tower"] = [
                {"name": s.name, "point": pts[s.name],
                 "through": ([{"curve": c, "mult": m} for c, m in s.strict_curves]
                             + [{"exceptional": e} for e in s.exceptionals])}
                for s in fixture.witness.tower.steps]
        if fixture.witness.tangencies:
            w["tangencies"] = list(fixture.witness.tangencies)
        doc["witness"] = w

    def dump_rows(rows):
        out = []
        for r in rows:
            if r.note or r.redundant:
                item = {"row": r.text}
                if r.note:
                    item["note"] = r.note
                if r.redundant:
                    item["redundant"] = True
                out.append(item)
            else:
                out.append(r.text)
        return out

    if fixture.script is not None:
        s = fixture.script
        spec = {"mode": s.mode, "tau_floor": format_rat(s.tau_floor),
                "variables": list(s.variables),
                "base_rows": dump_rows(s.base_rows)}
        if s.point:
            spec["point"] = s.point
        if s.alternatives:
            spec["alternatives"] = [{"name": a.name, "rows": dump_rows(a.rows)}
                                    for a in s.alternatives]
        if s.blocks:
            spec["blocks"] = [
                {"name": b.name,
                 **({"rows": dump_rows(b.rows)} if b.rows else {}),
                 **({"alternatives": [{"name": a.name, "rows": dump_rows(a.rows)}
                                      for a in b.alternatives]} if b.alternatives else {}),
                 "branches": [{"name": br.name, "rows": dump_rows(br.rows)}
                              for br in b.branches]}
                for b in s.blocks]
        if s.assumptions:
            spec["assumptions"] = [
                {"tag": a.tag, "note": a.note,
                 **({"exclusion_rows": dump_rows(a.exclusion_rows)}
                    if a.exclusion_rows else {})}
                for a in s.assumptions]
        doc["script"] = spec

    if fixture.group is not None:
        g = fixture.group
        doc["group"] = {
            "name": g.name, "declared_order": g.declared_order,
            "expected_image_order": g.expected_image_order,
            "generators": [{"name": gen.name, "lines": dict(gen.lines),
                            **({"points": dict(gen.points)} if gen.points else {})}
                           for gen in g.generators],
            "invariant_divisor": [[format_rat(m), cid] for m, cid in g.invariant_divisor],
            **({"extra_degrees": dict(g.extra_degrees)} if g.extra_degrees else {}),
            "elimination": {"conic_residual_pairs": g.conic_residual_pairs},
            **({"assumptions": [{"tag": a.tag, "note": a.note} for a in g.assumptions]}
               if g.assumptions else {}),
        }

    if fixture.fiberwise is not None:
        f = fixture.fiberwise
        spec = {"lct_pair": [format_rat(v) for v in f.lct_pair],
                "log_terminal": list(f.log_terminal),
                "expected_verdict": f.expected_verdict,
                "fiber_profiles": list(f.fiber_profiles)}
        if f.source_poly is not None:
            spec["source_poly"] = [[format_rat(c), list(e)] for c, e in f.source_poly]
        if f.target_poly is not None:
            spec["target_poly"] = [[format_rat(c), list(e)] for c, e in f.target_poly]
        if f.map_powers is not None:
            spec["map"] = dict(f.map_powers)
        if f.expected_k is not None:
            spec["expected_k"] = f.expected_k
        doc["fiberwise"] = spec

    return yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)


# --- validation ---------------------------------------------------------------


def _pullback_cache(model: SurfaceModel):
    # Malformed incidence vectors are left out: validate_fixture reports them,
    # and the intersection audit skips them instead of failing on them.
    cache: dict[tuple[str, str], tuple[Rat, ...]] = {}
    for pid, lat in model.points:
        for c in model.curves:
            vec = c.incidence_at(pid)
            if vec is not None and len(vec) == lat.rank and all(v >= 0 for v in vec):
                cache[(c.id, pid)] = pullback_coefficients(lat, list(vec), c.id).coefficients
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
            if len(vec) != model.lattice(pid).rank:
                findings.append(f"curve {c.id}: incidence at {pid} has wrong length")
            if any(v < 0 for v in vec):
                findings.append(f"curve {c.id}: negative incidence at {pid}")

    for i, eq in enumerate(model.equivalences):
        deg = eq.degree(curve_map)
        if deg != model.anticanonical_degree:
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
        if wb.degree(curve_map) != model.anticanonical_degree:
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
    if script is not None and script.mode == "generated":
        lat = model.lattice(script.point)
        nef = exceptional_nef_rows(lat)
        base = {(r.row.coeffs, r.row.constant, r.row.relation) for r in script.base_rows}
        for j, form in enumerate(nef):
            coeffs = tuple(form.get(v, Rat(0)) for v in script.variables)
            if (coeffs, Rat(0), ">=") not in base:
                findings.append(f"script: nef row for node {j+1} missing or mistyped")

    return findings
