"""Command-line front end: graph reports, invariants, reductions, census
scans and the two exhaustive verification commands.

Exit codes: 0 success, 1 verification/assertion failure, 2 invalid
input, 3 budget or search bound exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import census, engine, relations
from .exact import determinant
from .forest import (
    ParseError,
    PlumbingForest,
    canonical_code,
    forest_to_json_obj,
    forest_to_text,
    intersection_matrix,
    is_minimal,
    is_negative_definite,
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


def _frac(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


def _vec(k) -> list[int]:
    return [int(x) for x in k]


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


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


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


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cmd_check(args) -> int:
    forest = _read_forest(args)
    q = intersection_matrix(forest)
    det = determinant(q)
    negdef = is_negative_definite(forest)
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


def _basic_obj(ctx, basics) -> dict:
    return {
        "box": basics.box_size,
        "overflowed": basics.overflow_count,
        "total": basics.total,
        "classes": [
            {
                "class": _vec(rep),
                "count": len(vecs),
                "vectors": [_vec(v) for v in vecs],
            }
            for rep, vecs in zip(basics.classes, basics.per_class)
        ],
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


def _d_obj(dinv) -> list[dict]:
    return [
        {"class": _vec(rep), "d": _frac(d), "dual": _frac(dual)}
        for rep, d, dual in zip(dinv.classes, dinv.d, dinv.dual)
    ]


def _hf_obj(summary) -> dict:
    return {
        "max_u": summary.max_u,
        "expansion": summary.expansion,
        "converged": summary.converged,
        "reduced_rank": summary.reduced_total,
        "classes": [
            {
                "class": _vec(t.rep),
                "bottom": _frac(t.bottom),
                "converged": t.converged,
                "reduced_rank": t.reduced_rank,
                "rows": [[_frac(r.degree), r.count] for r in t.rows],
            }
            for t in summary.classes
        ],
    }


def _invariants_table(basics, dinv, summary):
    rows = [("class", "basics", "d", "bottom", "reduced")]
    for i, rep in enumerate(basics.classes):
        rows.append(
            (
                " ".join(str(x) for x in _vec(rep)),
                str(len(basics.per_class[i])),
                _frac_str(dinv.d[i]),
                _frac_str(summary.classes[i].bottom),
                str(summary.classes[i].reduced_rank),
            )
        )
    return rows


def cmd_invariants(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    basics = engine.basic_vectors(ctx, rng=_rng(args))
    verd = engine.verdicts(ctx, basics=basics, ar_bound=args.ar_bound)
    dinv = engine.d_invariants(ctx, basics=basics)
    summary = relations.hf_summary(
        ctx, max_u=args.max_u, expansion=args.expansion, d_inv=dinv
    )
    if args.dot:
        print(
            _emit_dot(
                forest,
                table_rows=_invariants_table(basics, dinv, summary),
                table_title="spin-c classes",
            )
        )
        return EXIT_OK
    obj = {
        "graph": forest_to_json_obj(forest),
        "det": ctx.det,
        "h1": ctx.h1,
        "basic": _basic_obj(ctx, basics),
        "verdicts": _verdict_obj(verd),
        "d": _d_obj(dinv),
        "hf": _hf_obj(summary),
    }
    if args.json:
        _print_json(obj)
        return EXIT_OK
    print(f"det {ctx.det}, |H1| {ctx.h1}, box {basics.box_size}")
    print(
        f"basic vectors: {basics.total} across {len(basics.classes)} class(es), "
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
    for i, rep in enumerate(dinv.classes):
        print(
            f"  class {_vec(rep)}: {len(basics.per_class[i])} basic, "
            f"d = {_frac_str(dinv.d[i])}, bottom {_frac_str(summary.classes[i].bottom)}, "
            f"reduced rank {summary.classes[i].reduced_rank}"
        )
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
    if args.dot:
        rows = [("class", "basic vectors")]
        for rep, vecs in zip(basics.classes, basics.per_class):
            rows.append(
                (
                    " ".join(str(x) for x in _vec(rep)),
                    "<br/>".join(str(_vec(v)) for v in vecs),
                )
            )
        print(_emit_dot(forest, table_rows=rows, table_title="basic vectors"))
        return EXIT_OK
    obj = _basic_obj(ctx, basics)
    if args.json:
        _print_json(obj)
        return EXIT_OK
    print(
        f"box {basics.box_size}, total {basics.total} basic, "
        f"{basics.overflow_count} overflowed"
    )
    for rep, vecs in zip(basics.classes, basics.per_class):
        print(f"  class {_vec(rep)}:")
        for v in vecs:
            print(f"    {_vec(v)}")
    return EXIT_OK


def cmd_dinv(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    dinv = engine.d_invariants(ctx)
    if args.dot:
        rows = [("class", "d", "dual")]
        for rep, d, dual in zip(dinv.classes, dinv.d, dinv.dual):
            rows.append(
                (
                    " ".join(str(x) for x in _vec(rep)),
                    _frac_str(d),
                    _frac_str(dual),
                )
            )
        print(_emit_dot(forest, table_rows=rows, table_title="d-invariants"))
        return EXIT_OK
    obj = {"classes": _d_obj(dinv)}
    if args.json:
        _print_json(obj)
        return EXIT_OK
    for rep, d, dual in zip(dinv.classes, dinv.d, dinv.dual):
        print(f"class {_vec(rep)}: d = {_frac_str(d)}, dual = {_frac_str(dual)}")
    return EXIT_OK


def cmd_hf(args) -> int:
    forest = _read_forest(args)
    ctx = QFormContext(forest, budget=_budget(args))
    summary = relations.hf_summary(ctx, max_u=args.max_u, expansion=args.expansion)
    if args.dot:
        rows = [("class", "bottom", "degree:count", "reduced")]
        for t in summary.classes:
            rows.append(
                (
                    " ".join(str(x) for x in _vec(t.rep)),
                    _frac_str(t.bottom),
                    " ".join(f"{_frac_str(r.degree)}:{r.count}" for r in t.rows),
                    str(t.reduced_rank),
                )
            )
        print(_emit_dot(forest, table_rows=rows, table_title="degree counts"))
        return EXIT_OK
    obj = _hf_obj(summary)
    if args.json:
        _print_json(obj)
        return EXIT_OK
    conv = "converged" if summary.converged else "NOT converged"
    print(
        f"max_u {summary.max_u}, expansion {summary.expansion}: {conv}, "
        f"reduced rank {summary.reduced_total}"
    )
    for t in summary.classes:
        cells = ", ".join(f"{_frac_str(r.degree)}: {r.count}" for r in t.rows)
        print(f"  class {_vec(t.rep)} bottom {_frac_str(t.bottom)} | {cells}")
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


def cmd_census(args) -> int:
    records = census.census_scan(
        args.max_vertices,
        args.min_weight,
        filters=[name for arg in args.filter for name in arg.split(",")],
        budget=_budget(args),
        threads=args.threads,
    )
    lines = [json.dumps(census.schema_header(), sort_keys=True)]
    lines.extend(
        json.dumps(census.record_to_obj(r), sort_keys=True) for r in records
    )
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
        print(f"{len(records)} record(s) written to {args.out}")
    else:
        sys.stdout.write(out)
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


def _add_knobs(p: argparse.ArgumentParser, ar: bool = False, hf: bool = False) -> None:
    p.add_argument("--budget", type=int, help="enumeration budget")
    p.add_argument(
        "--seed", type=int, help="step each path at a random eligible vertex"
    )
    if ar:
        p.add_argument("--ar-bound", type=int, help="weight-drop search bound")
    if hf:
        p.add_argument("--max-u", type=int, default=8, help="U-power window size")
        p.add_argument("--expansion", type=int, help="relation search expansion")


def build_parser() -> argparse.ArgumentParser:
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
    _add_knobs(p, ar=True, hf=True)
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
        return args.func(args)
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except NotNegativeDefiniteError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (EnumerationBudgetError, BoundExceededError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except engine.SafetyLimitError as e:
        print(f"computation failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
