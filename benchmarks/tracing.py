"""Spans around calls into cubiclct's public functions, for the traced run.

The timed run wraps nothing.  For the traced run, ``Tracer.install`` swaps
every module-level binding of the traced functions inside the ``cubiclct``
package for a wrapper, so calls made between modules (``check_feasibility``
inside the engine, ``pullback_coefficients`` inside validation,
``load_fixture`` inside the CLI) are seen too.  Nothing under ``src/``
changes; ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, info]``; ``parent`` indexes the span
that was open when it started (-1 at the top), ``info`` holds a per-call
count taken after the call returned, outside the span's time.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _yaml_bytes(args, kwargs, result):
    return len((kwargs.get("text") or args[0]).encode())


def _leaf_count(args, kwargs, result):
    return len(result.leaves)


def _findings(args, kwargs, result):
    return len(result)


def _check_shape(args, kwargs, result):
    system = kwargs.get("sys") or args[0]
    certificate = getattr(result, "certificate", None)
    support = bits = None
    if certificate is not None:
        nonzero = [m for m in certificate.multipliers if m != 0]
        support = len(nonzero)
        bits = max((max(m.numerator.bit_length(), m.denominator.bit_length())
                    for m in nonzero), default=0)
    return (len(system.rows), len(system.variables), support, bits)


#: (module, function, span name, per-call count or None)
TARGETS = (
    ("model", "load_fixture", "model.load", _yaml_bytes),
    ("model", "validate_fixture", "model.validate", _findings),
    ("lattice", "pullback_coefficients", "lattice.pullback", None),
    ("qexact", "solve_linear_system", "qexact.solve", None),
    ("engine", "compute_case_threshold", "engine.case", None),
    ("engine", "witness_lct_upper", "engine.upper", None),
    ("engine", "verify_lower_bound_script", "engine.lower", _leaf_count),
    ("engine", "materialize_leaves", "engine.materialize", None),
    ("engine", "mutation_audit", "engine.audit", None),
    ("engine", "assemble_table", "engine.table", None),
    ("linsys", "check_feasibility", "linsys.check", _check_shape),
    ("linsys", "replay_certificate", "linsys.replay", None),
    ("cli", "main", "cli.main", None),
    ("equivariant", "invariant_threshold", "equivariant", None),
    ("fiberwise", "substitute_and_factor", "fiberwise", None),
    ("fiberwise", "biregularity_criterion", "fiberwise", None),
)


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "cubiclct" or n.startswith("cubiclct.")]
        for module_name, attr, name, count in TARGETS:
            original = getattr(getattr(self.prog, module_name), attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def start_op(self) -> None:
        """An op cut by its time limit may leave spans open; forget them."""
        self._stack.clear()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[list], tally: Counter) -> dict[str, float]:
    """Per-module metrics of one pass, from its spans and the ops' own counts."""
    dur = [max(s[2] - s[1], 0.0) for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]
        by_name[s[0]].append(i)

    def under(i: int, ancestor: str) -> bool:
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][3]
        return False

    checks = by_name["linsys.check"]
    check_dur = sorted(dur[i] for i in checks)
    shapes = [spans[i][4] for i in checks if spans[i][4] is not None]
    supports = [s[2] for s in shapes if s[2] is not None]
    cli_loads = sum(1 for i in by_name["model.load"] if under(i, "cli.main"))
    return {
        "model.load_calls": calls["model.load"],
        "model.load_s": total["model.load"],
        "model.yaml_bytes": sum(spans[i][4] or 0 for i in by_name["model.load"]),
        "model.validate_s": total["model.validate"],
        "model.validate_findings": sum(spans[i][4] or 0 for i in by_name["model.validate"]),
        "lattice.pullback_calls": calls["lattice.pullback"],
        "lattice.pullback_s": total["lattice.pullback"],
        "qexact.solve_calls": calls["qexact.solve"],
        "qexact.solve_s": total["qexact.solve"],
        "engine.upper_s": total["engine.upper"],
        "engine.materialize_s": total["engine.materialize"],
        "engine.leaves": sum(spans[i][4] or 0 for i in by_name["engine.lower"]),
        "engine.lower_self_s": self_s["engine.lower"],
        "engine.audit_s": total["engine.audit"],
        "engine.audit_self_s": self_s["engine.audit"],
        "engine.audit_check_calls": sum(1 for i in checks if under(i, "engine.audit")),
        "engine.audit_flips": tally["engine.audit_flips"],
        "linsys.check_calls": len(checks),
        "linsys.check_s": total["linsys.check"],
        "linsys.check_s_p50": statistics.median(check_dur) if check_dur else 0.0,
        "linsys.check_s_max": check_dur[-1] if check_dur else 0.0,
        "linsys.timeouts": tally["timeouts"],
        "linsys.rows_in_max": max((s[0] for s in shapes), default=0),
        "linsys.vars_max": max((s[1] for s in shapes), default=0),
        "linsys.cert_support_mean": statistics.fmean(supports) if supports else 0.0,
        "linsys.cert_bits_max": max((s[3] for s in shapes if s[3] is not None), default=0),
        "linsys.replay_calls": calls["linsys.replay"],
        "linsys.replay_s": total["linsys.replay"],
        "cli.main_s": total["cli.main"],
        "cli.loads_per_call": cli_loads / calls["cli.main"] if calls["cli.main"] else 0.0,
        "cli.json_bytes": tally["cli.json_bytes"],
        "equivariant.s": total["equivariant"],
        "fiberwise.s": total["fiberwise"],
    }


def write_spans(path, spans: list[list]) -> None:
    """One JSON object per span: name, start, end, parent, info."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for name, start, end, parent, info in spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent, "info": info}) + "\n")
