"""Command-line front end: graph reports, invariants, reductions, census
scans and the two exhaustive verification commands.

Exit codes: 0 success, 1 verification/assertion failure, 2 invalid
input, 3 budget or search bound exceeded.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import census, engine, relations
from .forest import (
    ParseError,
    PlumbingForest,
    _forest_det_negdef,
    canonical_code,
    forest_to_json_obj,
    forest_to_text,
    is_minimal,
    parse_forest,
    parse_forest_json,
    reduce_forest,
)
from .lattice import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    NotNegativeDefiniteError,
    QFormContext,
)
from .relations import BoundExceededError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _read_forest(args) -> PlumbingForest:
    if getattr(args, "chain", None) is not None:
        parts = args.chain.replace(",", " ").split()
        try:
            weights = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"--chain expects integers, got {args.chain!r}")
        if not weights:
            raise ParseError("--chain needs at least one weight")
        from .catalog import chain_forest

        return chain_forest(weights)
    if getattr(args, "graph", None) is None:
        raise ParseError("no input graph: pass a file path or --chain")
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read {args.graph}: {e}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_forest_json(text)
    return parse_forest(text)


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        value = args.budget
    else:
        env = os.environ.get("PLUMB_BUDGET")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise ParseError(f"PLUMB_BUDGET must be an integer, got {env!r}")
        else:
            value = DEFAULT_BUDGET
    if value <= 0:
        raise ParseError("budget must be positive")
    return value


def _rng(args):
    if getattr(args, "seed", None) is None:
        return None
    return np.random.default_rng(args.seed)


# ------------------------------------------------------------------ JSON

_encode_str = json.encoder.encode_basestring_ascii


class _Slot:
    """The place of one integer in the prototype of a _Table's items."""

    def __init__(self, text: str):
        self.text = text


_INT = _Slot("\0")  # the integer, as a JSON number
_STR = _Slot('"\0"')  # the integer's decimal digits, as a JSON string


class _Table:
    """A JSON list of items filled in from integers. runs holds (proto,
    count) pairs in order: count items shaped like proto, whose _Slots
    take values in text order. values(lo, hi) gives the int64 values at
    flat positions lo..hi-1 of all the items laid end to end. The writer
    renders each proto once per indent and writes the items a chunk of at
    most _FILL_CHUNK values at a time (_write_table)."""

    __slots__ = ("runs", "values")

    def __init__(self, runs, values):
        self.runs = runs
        self.values = values


# values per chunk of a table (_write_table)
_FILL_CHUNK = 2**14


def _template(text: str) -> str:
    """Rendered JSON, a NUL character at each slot, as a %-template."""
    return text.replace("%", "%%").replace("\0", "%d")


def _count(items) -> int:
    """The number of items left in an iterator, counted without holding
    them."""
    counter = itertools.count()
    collections.deque(zip(items, counter), maxlen=0)
    return next(counter)


def _slot_count(proto) -> int:
    """The slots of proto, read from the prototype alone: a run of one
    list item repeated is counted once, times its length."""
    if isinstance(proto, _Slot):
        return 1
    if isinstance(proto, dict):
        return sum(map(_slot_count, proto.values()))
    if isinstance(proto, (list, tuple)):
        runs = itertools.groupby(proto, key=id)
        return sum(_slot_count(next(run)) * (1 + _count(run)) for _, run in runs)
    return 0


def _fill_pieces(proto, pad: str, templates: dict):
    """The %-template of proto at the indent pad, as (piece, slot count,
    repeat) triples in text order: the keys and brackets of its dicts and
    lists, and each list item whole. A run of one item repeated in a row
    is rendered once and yielded twice: its first item, then the rest
    with their repeat count."""
    inner = pad + "  "
    if isinstance(proto, dict) and proto:
        for i, k in enumerate(sorted(proto)):
            yield _template(f"{',' if i else '{'}{inner}{_encode_str(k)}: "), 0, 1
            yield from _fill_pieces(proto[k], inner, templates)
        yield pad + "}", 0, 1
    elif isinstance(proto, (list, tuple)) and proto:
        for i, (_, run) in enumerate(itertools.groupby(proto, key=id)):
            x = next(run)
            repeat = _count(run)
            text = _json(x, inner, templates)
            slots, text = text.count("\0"), _template(inner + text)
            yield ("," if i else "[") + text, slots, 1
            if repeat:
                yield "," + text, slots, repeat
        yield pad + "]", 0, 1
    else:
        text = _json(proto, pad, templates)
        yield _template(text), text.count("\0"), 1


def _write_long_fill(proto, pad: str, templates: dict, write, values, at: int) -> int:
    """Write one item shaped like proto, its values from flat position at
    on, a chunk at a time: the pieces of its template (_fill_pieces) are
    joined, a run of repeats as one piece * k, until they hold
    _FILL_CHUNK slots, and filled from the next values, so that no string
    holds the whole item. Returns the position past its values."""
    pieces, slots = [], 0
    for piece, count, repeat in _fill_pieces(proto, pad, templates):
        while repeat:
            # the repeats that fill the chunk (at least one), or all of them
            k = min(repeat, max(1, -(-(_FILL_CHUNK - slots) // count))) if count else repeat
            pieces.append(piece * k)
            slots += count * k
            repeat -= k
            if slots >= _FILL_CHUNK:
                write("".join(pieces) % tuple(values(at, at + slots).tolist()))
                pieces, at, slots = [], at + slots, 0
    write("".join(pieces) % tuple(values(at, at + slots).tolist()))
    return at + slots


def _item_template(proto, pad: str, templates: dict):
    """(template, ends) of one list item shaped like proto at the indent
    pad: its %-template, the separator "," first, and ends[i] the position
    just past slot i's %d in it; None for an item of more than _FILL_CHUNK
    values (_slot_count), which is not rendered. Kept in templates by
    (prototype, indent)."""
    key = (id(proto), pad)
    if key not in templates:
        if _slot_count(proto) > _FILL_CHUNK:
            templates[key] = None
        else:
            text = _template("," + pad + _json(proto, pad, templates))
            # every % of a template starts a %% or a %d
            templates[key] = text, [m.end() for m in re.finditer("%.", text) if m[0] == "%d"]
    return templates[key]


def _write_run(template: str, ends: list, count: int, head: str, values, at: int, write) -> int:
    """Write count items of a template of _item_template, the first with
    the separator head, their values from flat position at on, a chunk of
    _FILL_CHUNK values at a time. A chunk may end inside an item: its
    template is the slice of the item template, repeated, from just past
    the %d of the value before its first one to just past its last %d,
    and the last chunk takes the last item's tail too. Returns the
    position past their values."""
    size, slots = len(template), len(ends)
    total = count * slots

    def cut(x: int) -> int:  # where the text of the run's value x begins
        item, slot = divmod(x - 1, slots)
        return item * size + ends[slot]

    # a run of items with no slot is one chunk
    for lo in range(0, total or 1, _FILL_CHUNK):
        hi = min(lo + _FILL_CHUNK, total)
        start = cut(lo) if lo else 0
        stop = cut(hi) if hi < total else count * size
        first = start // size
        text = (template * (-(-stop // size) - first))[start - first * size:stop - first * size]
        if not lo:
            text = head + text[1:]
        write(text % tuple(values(at + lo, at + hi).tolist()))
    return at + total


def _write_table(table: _Table, pad: str, templates: dict, write) -> None:
    """Write a _Table as the JSON list of its items, run by run
    (_write_run). An item of more than _FILL_CHUNK values is written
    alone, a chunk of its pieces at a time (_write_long_fill)."""
    inner = pad + "  "
    head, at = "[", 0
    for proto, count in table.runs:
        if not count:
            continue
        item = _item_template(proto, inner, templates)
        if item is None:
            for _ in range(count):
                write(head + inner)
                head = ","
                at = _write_long_fill(proto, inner, templates, write, table.values, at)
        else:
            at = _write_run(*item, count, head, table.values, at, write)
        head = ","
    write(pad + "]" if head == "," else "[]")


def _write_json(obj, pad: str, templates: dict, write) -> None:
    """Write obj as json.dumps(obj, sort_keys=True, indent=2) writes it,
    at the indent pad (a newline and two spaces a level), through write,
    each item of a dict or list as soon as it is rendered: memory grows
    with the largest list item, not with the document, and a _Table is
    written a chunk of at most _FILL_CHUNK values at a time. templates
    holds each _Table prototype's item template by (prototype, indent)."""
    if type(obj) is _Table:
        _write_table(obj, pad, templates, write)
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, str):
        write(_encode_str(obj))
    elif isinstance(obj, _Slot):
        write(obj.text)
    elif isinstance(obj, dict):
        inner = pad + "  "
        for i, k in enumerate(sorted(obj)):
            write(f"{',' if i else '{'}{inner}{_encode_str(k)}: ")
            _write_json(obj[k], inner, templates, write)
        write(pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        # a prototype's rows are one object repeated: render it once
        inner, last, text = pad + "  ", object(), ""
        for i, x in enumerate(obj):
            if x is not last:
                last, text = x, _json(x, inner, templates)
            write(f"{',' if i else '['}{inner}{text}")
        write(pad + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json(obj, pad: str, templates: dict) -> str:
    """obj as _write_json writes it, in one string."""
    parts = []
    _write_json(obj, pad, templates, parts.append)
    return "".join(parts)


def _print_json(obj) -> None:
    _write_json(obj, "\n", {}, sys.stdout.write)
    sys.stdout.write("\n")


# ---------------------------------------------------------------- tables
# Per-class tables are printed from the engine's integer arrays; each
# fraction is reduced by the gcd of its integer numerator and denominator.


def _lowest_terms(num, den) -> tuple[np.ndarray, np.ndarray]:
    """The fractions num / den (integer arrays, broadcast together) in
    lowest terms, as (numerators, denominators)."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=np.int64), den)
    g = np.gcd(num, den)
    return num // g, den // g


def _frac_strs(num, den) -> list[str]:
    """Each fraction num / den in lowest terms, as "n" or "n/d", in the
    order of num's elements."""
    num, den = _lowest_terms(num, den)
    return [
        f"{a}" if b == 1 else f"{a}/{b}"
        for a, b in zip(num.ravel().tolist(), den.ravel().tolist())
    ]


def _spaced(reps) -> list[str]:
    """Each representative's pairings joined by spaces (the DOT tables)."""
    return [" ".join(map(str, rep)) for rep in reps.tolist()]


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _emit_dot(forest: PlumbingForest, table_rows=None, table_title=None) -> str:
    lines = ["graph plumbing {", "  node [shape=circle, fontsize=11];"]
    for vid, w in zip(forest.ids, forest.weights):
        lines.append(f'  "{_dot_escape(vid)}" [label="{_dot_escape(vid)}\\n{w}"];')
    for a, b in forest.edges:
        lines.append(
            f'  "{_dot_escape(forest.ids[a])}" -- "{_dot_escape(forest.ids[b])}";'
        )
    if table_rows:
        cells = []
        header, *rows = table_rows
        cells.append(
            "<tr>" + "".join(f"<td><b>{h}</b></td>" for h in header) + "</tr>"
        )
        for row in rows:
            cells.append("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>")
        title = f"<tr><td colspan=\"{len(header)}\"><b>{table_title}</b></td></tr>" if table_title else ""
        lines.append(
            '  classtable [shape=none, margin=0, label=<'
            '<table border="0" cellborder="1" cellspacing="0" cellpadding="3">'
            f"{title}{''.join(cells)}</table>>];"
        )
    lines.append("}")
    return "\n".join(lines)


def cmd_check(args) -> int:
    forest = _read_forest(args)
    det, negdef = _forest_det_negdef(forest)
    obj = {
        "vertices": forest.n,
        "components": len(forest.components()),
        "negdef": negdef,
        "det": det,
        "h1": abs(det),
        "minimal": is_minimal(forest),
        "code": canonical_code(forest),
    }
    if negdef:
        obj["spinc"] = abs(det)
    if args.dot:
        print(_emit_dot(forest))
        return EXIT_OK
    if args.json:
        _print_json(obj)
        return EXIT_OK
    print(f"vertices: {obj['vertices']} ({obj['components']} component(s))")
    print(f"negative definite: {'yes' if negdef else 'no'}")
    line = f"det: {det}   |H1|: {obj['h1']}"
    if negdef:
        line += f"   spin-c classes: {obj['spinc']}"
    print(line)
    print(f"minimal: {'yes' if obj['minimal'] else 'no'}")
    print(f"code: {obj['code']}")
    return EXIT_OK


def _class_vectors(basics) -> list[list]:
    """The basic vectors of each class, as lists of pairings."""
    vectors = basics.rows.tolist()
    ends = np.cumsum(basics.counts).tolist()
    return [vectors[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _runs(keys: np.ndarray):
    """(key, start, stop) of each run of equal values of keys."""
    cuts = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(keys)]
    return [(keys[a].item(), a, b) for a, b in zip(cuts, cuts[1:])]


def _basic_obj(basics) -> dict:
    """The basic vectors as a _Table: a run per run of classes with one
    basic count, each class's values its representative and then its
    basic vectors, laid out in one int64 array."""
    n = basics.reps.shape[1]
    protos, runs = {}, []
    for count, start, stop in _runs(basics.counts):
        if count not in protos:
            protos[count] = {"class": [_INT] * n, "count": count, "vectors": [[_INT] * n] * count}
        runs.append((protos[count], stop - start))
    # class i's representative comes after i representatives and the
    # basic vectors of the classes before it, and its own follow it
    at = np.arange(len(basics.counts)) + np.cumsum(basics.counts) - basics.counts
    rep = np.zeros(len(at) + basics.total, dtype=bool)
    rep[at] = True
    table = np.empty((len(rep), n), dtype=np.int64)
    table[rep], table[~rep] = basics.reps, basics.rows
    flat = table.ravel()
    return {
        "box": basics.box_size,
        "overflowed": basics.overflow_count,
        "total": basics.total,
        "classes": _Table(runs, lambda lo, hi: flat[lo:hi]),
    }


def _verdict_obj(verd) -> dict:
    return {
        "lspace": "yes" if verd.lspace else "no",
        "certified": verd.certified,
        "rational": verd.rational,
        "basic_total": verd.basic_total,
        "spinc": verd.spinc_count,
        "ar": {
            "found": verd.ar.found,
            "vertex": verd.ar.vertex,
            "delta": verd.ar.delta,
            "bound": verd.ar.bound,
        },
    }


def _d_obj(dinv) -> _Table:
    num, den = _lowest_terms(dinv.numerators, dinv.denominator)
    proto = {"class": [_INT] * dinv.reps.shape[1], "d": [_STR, _STR], "dual": [_STR, _STR]}
    flat = np.column_stack([dinv.reps, num, den, -num, den]).ravel()
    return _Table([(proto, len(num))], lambda lo, hi: flat[lo:hi])


def _hf_obj(summary) -> dict:
    """The graded tables, "classes" as a _Table with a run per run of
    classes with one converged flag. Its values are read off summary's
    arrays a chunk at a time, so a wide class is never held whole. A
    row's degree (bottom + 2j * den) / den has the lowest terms of its
    class's bottom / den, scaled: gcd(bottom + 2j * den, den) =
    gcd(bottom, den)."""
    n = summary.reps.shape[1]
    # each class's values: bottom, class, reduced rank, then its rows
    head = np.column_stack(
        [*_lowest_terms(summary.bottoms, summary.denominator), summary.reps, summary.reduced_ranks]
    )
    lead, slots = n + 3, n + 3 + 3 * (summary.max_u + 1)

    def values(lo, hi):
        cls, col = np.divmod(np.arange(lo, hi), slots)
        out = np.empty(hi - lo, dtype=np.int64)
        top = col < lead
        out[top] = head[cls[top], col[top]]
        cls, (row, part) = cls[~top], np.divmod(col[~top] - lead, 3)
        num, den = head[cls, 0], head[cls, 1]
        out[~top] = np.choose(part, [num + 2 * den * row, den, summary.counts[cls, row]])
        return out

    protos = {
        converged: {
            "bottom": [_STR, _STR],
            "class": [_INT] * n,
            "converged": converged,
            "reduced_rank": _INT,
            "rows": [[[_STR, _STR], _INT]] * (summary.max_u + 1),
        }
        for converged in (False, True)
    }
    runs = [(protos[c], stop - start) for c, start, stop in _runs(summary.counts[:, -1] == 1)]
    return {
        "max_u": summary.max_u,
        "expansion": summary.expansion,
        "converged": summary.converged,
        "reduced_rank": summary.reduced_total,
        "classes": _Table(runs, values),
    }


def cmd_invariants(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    basics = engine.basic_vectors(ctx, rng=_rng(args))
    verd = engine.verdicts(ctx, basics=basics)
    dinv = engine.d_invariants(ctx, basics=basics)
    summary = relations.hf_summary(
        ctx, max_u=args.max_u, expansion=args.expansion, d_inv=dinv
    )
    if args.json:
        _print_json(
            {
                "graph": forest_to_json_obj(forest),
                "det": ctx.det,
                "h1": ctx.h1,
                "basic": _basic_obj(basics),
                "verdicts": _verdict_obj(verd),
                "d": _d_obj(dinv),
                "hf": _hf_obj(summary),
            }
        )
        return EXIT_OK
    d = _frac_strs(dinv.numerators, dinv.denominator)
    bottom = _frac_strs(summary.bottoms, summary.denominator)
    columns = (basics.counts.tolist(), d, bottom, summary.reduced_ranks.tolist())
    if args.dot:
        rows = [("class", "basics", "d", "bottom", "reduced")]
        rows += [
            (rep, str(c), dv, b, str(r))
            for rep, c, dv, b, r in zip(_spaced(basics.reps), *columns)
        ]
        print(_emit_dot(forest, table_rows=rows, table_title="spin-c classes"))
        return EXIT_OK
    print(f"det {ctx.det}, |H1| {ctx.h1}, box {basics.box_size}")
    print(
        f"basic vectors: {basics.total} across {ctx.h1} class(es), "
        f"{basics.overflow_count} box vectors overflowed"
    )
    ar = verd.ar
    cert = (
        f"certified (drop weight of {ar.vertex} by {ar.delta})"
        if verd.certified and ar.vertex is not None
        else ("certified" if verd.certified else f"uncertified (bound {ar.bound})")
    )
    print(f"L-space: {'yes' if verd.lspace else 'no'}, {cert}")
    print(f"rational: {'yes' if verd.rational else 'no'}")
    for rep, c, dv, b, r in zip(dinv.reps.tolist(), *columns):
        print(f"  class {rep}: {c} basic, d = {dv}, bottom {b}, reduced rank {r}")
    conv = "converged" if summary.converged else "NOT converged"
    print(
        f"HF summary (max_u {summary.max_u}, expansion {summary.expansion}): "
        f"{conv}, reduced rank {summary.reduced_total}"
    )
    return EXIT_OK


def cmd_basic(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    basics = engine.basic_vectors(ctx, rng=_rng(args))
    if args.json:
        _print_json(_basic_obj(basics))
        return EXIT_OK
    if args.dot:
        rows = [("class", "basic vectors")]
        rows += [
            (rep, "<br/>".join(map(str, vecs)))
            for rep, vecs in zip(_spaced(basics.reps), _class_vectors(basics))
        ]
        print(_emit_dot(forest, table_rows=rows, table_title="basic vectors"))
        return EXIT_OK
    print(
        f"box {basics.box_size}, total {basics.total} basic, "
        f"{basics.overflow_count} overflowed"
    )
    for rep, vecs in zip(basics.reps.tolist(), _class_vectors(basics)):
        print(f"  class {rep}:")
        for v in vecs:
            print(f"    {v}")
    return EXIT_OK


def cmd_dinv(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    dinv = engine.d_invariants(ctx, basics=engine.basic_vectors(ctx, rng=_rng(args)))
    if args.json:
        _print_json({"classes": _d_obj(dinv)})
        return EXIT_OK
    d = _frac_strs(dinv.numerators, dinv.denominator)
    dual = _frac_strs(-dinv.numerators, dinv.denominator)
    if args.dot:
        rows = [("class", "d", "dual")]
        rows += list(zip(_spaced(dinv.reps), d, dual))
        print(_emit_dot(forest, table_rows=rows, table_title="d-invariants"))
        return EXIT_OK
    for rep, dv, du in zip(dinv.reps.tolist(), d, dual):
        print(f"class {rep}: d = {dv}, dual = {du}")
    return EXIT_OK


def cmd_hf(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    dinv = engine.d_invariants(ctx, basics=engine.basic_vectors(ctx, rng=_rng(args)))
    summary = relations.hf_summary(
        ctx, max_u=args.max_u, expansion=args.expansion, d_inv=dinv
    )
    if args.json:
        _print_json(_hf_obj(summary))
        return EXIT_OK
    width = summary.max_u + 1
    bottom = _frac_strs(summary.bottoms, summary.denominator)
    degrees = _frac_strs(summary.degrees, summary.denominator)
    counts = summary.counts.ravel().tolist()
    # (degree, count) of each row, class by class
    cells = (
        zip(degrees[i:i + width], counts[i:i + width]) for i in range(0, len(counts), width)
    )
    if args.dot:
        rows = [("class", "bottom", "degree:count", "reduced")]
        rows += [
            (rep, b, " ".join(f"{d}:{c}" for d, c in cell), str(r))
            for rep, b, cell, r in zip(
                _spaced(summary.reps), bottom, cells, summary.reduced_ranks.tolist()
            )
        ]
        print(_emit_dot(forest, table_rows=rows, table_title="degree counts"))
        return EXIT_OK
    conv = "converged" if summary.converged else "NOT converged"
    print(
        f"max_u {summary.max_u}, expansion {summary.expansion}: {conv}, "
        f"reduced rank {summary.reduced_total}"
    )
    print(
        "\n".join(
            f"  class {rep} bottom {b} | " + ", ".join(f"{d}: {c}" for d, c in cell)
            for rep, b, cell in zip(summary.reps.tolist(), bottom, cells)
        )
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    forest = _read_forest(args)
    reduced, trace = reduce_forest(forest)
    if args.dot:
        print(_emit_dot(reduced))
        return EXIT_OK
    obj = {
        "moves": [
            {"vertex": m.vertex, "neighbors": list(m.neighbors)}
            for m in trace.moves
        ],
        "reduced": forest_to_json_obj(reduced),
    }
    if args.json:
        _print_json(obj)
        return EXIT_OK
    if not trace.moves:
        print("already minimal")
    for m in trace.moves:
        at = f" (neighbors {', '.join(m.neighbors)})" if m.neighbors else ""
        print(f"blow down {m.vertex}{at}")
    text = forest_to_text(reduced)
    if text:
        print(text)
    else:
        print("# empty graph")
    return EXIT_OK


# one census record as json.dumps(obj, sort_keys=True) writes it
_CENSUS_LINE = (
    '{"basic": %d, "certified": %s, "code": %s, "d": [%s], "det": %d, '
    '"lspace": "%s", "minimal": %s, "n": %d, "negdef": %s, "rational": %s, '
    '"spinc": %d, "weights": [%s]}\n'
)
_BOOL = {True: "true", False: "false"}


def _census_line(r) -> str:
    """r's JSON line, each d-invariant as the pair of decimal strings of
    its lowest terms, from the integer numerators over 4 * spinc."""
    den = 4 * r.spinc
    nums = r.d_numerators.tolist()
    # conjugate classes share a value, so each distinct one is rendered once
    text = {}
    for q in set(nums):
        g = math.gcd(q, den)
        text[q] = f'["{q // g}", "{den // g}"]'
    return _CENSUS_LINE % (
        r.basic,
        _BOOL[r.certified],
        _encode_str(r.code),
        ", ".join([text[q] for q in nums]),
        r.det,
        "yes" if r.lspace else "no",
        _BOOL[r.minimal],
        r.n,
        _BOOL[r.negdef],
        _BOOL[r.rational],
        r.spinc,
        ", ".join(map(str, r.weights)),
    )


def cmd_census(args) -> int:
    # a regular --out is written through a temporary file beside it, made
    # before the scan so that a path that cannot be written fails at once,
    # and renamed over it after the last line, so a scan that fails leaves
    # it as it was; anything else (a device, a pipe) is written directly
    dst = tmp = None
    if args.out:
        out = os.path.realpath(args.out)
        try:
            if os.path.exists(out) and not os.path.isfile(out):
                dst = open(out, "w", encoding="utf-8")
            else:
                if os.path.exists(out):
                    open(out, "a").close()
                tmp = f"{out}.{os.getpid()}.tmp"
                dst = open(tmp, "x", encoding="utf-8")
        except OSError as e:
            raise ParseError(f"cannot write {args.out}: {e}")
    try:
        with dst or contextlib.nullcontext(sys.stdout) as fh:
            records = census.census_scan(
                args.max_vertices,
                args.min_weight,
                filters=[name for arg in args.filter for name in arg.split(",")],
                budget=_budget(args),
                threads=args.threads,
            )
            fh.write(json.dumps(census.schema_header(), sort_keys=True) + "\n")
            for r in records:
                fh.write(_census_line(r))
    except BaseException:
        if tmp:
            os.remove(tmp)
        raise
    if tmp:
        os.replace(tmp, out)
    if args.out:
        print(f"{len(records)} record(s) written to {args.out}")
    return EXIT_OK


def cmd_verify_e8(args) -> int:
    report = census.verify_e8_unique(args.max_vertices)
    obj = {
        "ok": report.ok,
        "max_vertices": report.nmax,
        "trees_scanned": report.trees_scanned,
        "negdef_trees": report.negdef_count,
        "unimodular_codes": list(report.unimodular_codes),
        "expected_code": report.expected_code,
    }
    if args.json:
        _print_json(obj)
    else:
        state = "PASS" if report.ok else "FAIL"
        print(
            f"{state}: {report.negdef_count} negative-definite all-(-2) trees "
            f"on <= {report.nmax} vertices; |det| = 1 codes: "
            f"{list(report.unimodular_codes)}"
        )
        if not report.ok:
            print(f"expected exactly one hit: {report.expected_code}")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_verify_classification(args) -> int:
    report = census.verify_classification(
        args.max_vertices, args.min_weight, budget=_budget(args)
    )
    obj = {
        "ok": report.ok,
        "max_vertices": report.nmax,
        "min_weight": report.wmin,
        "unimodular_checked": report.unimodular_checked,
        "unimodular_rational_codes": list(report.unimodular_rational_codes),
        "case2_checked": report.case2_checked,
        "case3_checked": report.case3_checked,
        "counterexamples": list(report.counterexamples),
    }
    if args.json:
        _print_json(obj)
    else:
        state = "PASS" if report.ok else "FAIL"
        print(
            f"{state}: |det|=1 minimal trees checked: {report.unimodular_checked} "
            f"(rational: {list(report.unimodular_rational_codes)}); "
            f"no -1 & weight <= -3 & |det|=1: {report.case2_checked}; "
            f"minimal with -1: {report.case3_checked}"
        )
        for c in report.counterexamples:
            print(f"counterexample: {c}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="graph file (text or JSON), - for stdin")
    p.add_argument(
        "--chain",
        help="inline chain weights; use the = form for negatives: --chain=-2,-2,-3",
    )
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--dot", action="store_true", help="DOT diagram output")


def _add_knobs(p: argparse.ArgumentParser, hf: bool = False) -> None:
    p.add_argument("--budget", type=int, help="enumeration budget")
    p.add_argument(
        "--seed", type=int, help="step each path at a random eligible vertex"
    )
    if hf:
        p.add_argument("--max-u", type=int, default=8, help="U-power window size")
        p.add_argument(
            "--expansion", type=int,
            help="box expansion of the K^2 shell (graphs that are not almost-rational)",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The plumb argument parser, built once per process: parse_args
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="plumb",
        description="Invariants of negative-definite plumbed 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a graph and report basic facts")
    _add_graph_input(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="full invariant report")
    _add_graph_input(p)
    _add_knobs(p, hf=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("basic", help="basic vectors per spin-c class")
    _add_graph_input(p)
    _add_knobs(p)
    p.set_defaults(func=cmd_basic)

    p = sub.add_parser("dinv", help="d-invariants per spin-c class")
    _add_graph_input(p)
    _add_knobs(p)
    p.set_defaults(func=cmd_dinv)

    p = sub.add_parser("hf", help="graded degree-count tables")
    _add_graph_input(p)
    _add_knobs(p, hf=True)
    p.set_defaults(func=cmd_hf)

    p = sub.add_parser("reduce", help="blow down to a minimal graph")
    _add_graph_input(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("census", help="classify all small weighted trees")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--min-weight", type=int, required=True)
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        help="record filters, comma-separated or repeated: "
        + ", ".join(census.FILTER_NAMES),
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--budget", type=int, help="enumeration budget")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify-e8", help="all-(-2) tree uniqueness scan")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_e8)

    p = sub.add_parser(
        "verify-classification", help="rationality classification scan"
    )
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--min-weight", type=int, required=True)
    p.add_argument("--budget", type=int, help="enumeration budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_classification)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "json", False) and getattr(args, "dot", False):
        print("--json and --dot are mutually exclusive", file=sys.stderr)
        return EXIT_INVALID
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head -1`): point stdout at
        # devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except NotNegativeDefiniteError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (EnumerationBudgetError, BoundExceededError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (engine.SafetyLimitError, engine.RationalityDisagreementError) as e:
        print(f"computation failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
