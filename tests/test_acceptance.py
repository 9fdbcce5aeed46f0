"""Acceptance gate: each numbered check prints one PASS/FAIL line and
asserts its stated values and runtime bounds."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from plumb import census, cli, engine, relations
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import (
    PlumbingForest,
    forest_to_text,
    h1_order,
    is_negative_definite,
    reduce_forest,
)
from plumb.lattice import QFormContext

from oracles import enumerate_forests, k_square, random_strategy, strategy_run_path


def report(criterion, ok, detail, capfd):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capfd.disabled():  # keep the line visible under captured runs
        print(line)
    assert ok, line


# --------------------------------------------------------------------- 1

def test_criterion_1_e8_end_to_end(capfd):
    t0 = time.perf_counter()
    ctx = QFormContext(e8_forest())
    basics = engine.basic_vectors(ctx)
    verd = engine.verdicts(ctx, basics=basics)
    dinv = engine.d_invariants(ctx, basics=basics)
    summary = relations.hf_summary(ctx, d_inv=dinv)
    elapsed = time.perf_counter() - t0
    ok = (
        ctx.det == 1
        and len(ctx.spinc_classes()) == 1
        and basics.total == 1
        and tuple(basics.per_class[0][0]) == (0,) * 8
        and verd.rational
        and verd.lspace
        and verd.certified
        and dinv.d == (Fraction(2),)
        and summary.reduced_total == 0
        and summary.converged
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"E8: det=1, 1 class, 1 basic (zero vector), rational/lspace "
        f"certified, d=2, reduced rank 0, {elapsed:.3f}s < 1s",
        capfd,
    )


# --------------------------------------------------------------------- 2

def test_criterion_2_lens_calibration(capfd):
    cases = [([-2], 2, 1), ([-3], 3, 1)]
    cases += [([-2] * n, n + 1, n) for n in range(2, 9)]
    worst = 0.0
    ok = True
    for weights, p, q in cases:
        t0 = time.perf_counter()
        dinv = engine.d_invariants(QFormContext(chain_forest(weights)))
        got = tuple(sorted(dinv.dual))
        want = engine.lens_d_multiset(p, q)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok = ok and got == want and elapsed < 1.0
    report(
        2,
        ok,
        f"lens calibration L(2,1), L(3,1), L(n+1,n) n<=8: exact multiset "
        f"equality, worst case {worst:.3f}s < 1s",
        capfd,
    )


# --------------------------------------------------------------------- 3

def test_criterion_3_sigma_2_3_7(capfd):
    t0 = time.perf_counter()
    ctx = QFormContext(star_forest(-1, [-2, -3, -7]))
    basics = engine.basic_vectors(ctx)
    verd = engine.verdicts(ctx, basics=basics)
    dinv = engine.d_invariants(ctx, basics=basics)
    summary = relations.hf_summary(ctx, d_inv=dinv)
    elapsed = time.perf_counter() - t0
    ok = (
        ctx.det == 1
        and basics.total == 2
        and not verd.rational
        and not verd.lspace
        and dinv.d == (Fraction(0),)
        and summary.reduced_total == 1
        and elapsed < 5.0
    )
    report(
        3,
        ok,
        f"star (-1;-2,-3,-7): det=1, 2 basics, non-rational, not lspace, "
        f"d=0, reduced rank 1, {elapsed:.3f}s < 5s",
        capfd,
    )


# --------------------------------------------------------------------- 4

def test_criterion_4_verify_e8_cli(capfd):
    t0 = time.perf_counter()
    code = cli.main(["verify-e8", "--max-vertices", "9"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 10.0
    report(4, ok, f"verify-e8 --max-vertices 9 exit {code}, {elapsed:.2f}s < 10s", capfd)


# --------------------------------------------------------------------- 5

def test_criterion_5_verify_classification_cli(capfd):
    t0 = time.perf_counter()
    code = cli.main(
        ["verify-classification", "--max-vertices", "8", "--min-weight", "-5"]
    )
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 300.0
    report(
        5,
        ok,
        f"verify-classification --max-vertices 8 --min-weight -5 "
        f"exit {code}, {elapsed:.1f}s < 300s",
        capfd,
    )


# --------------------------------------------------------------------- 6

AMAX = 8  # exponent cap of the brute-force state space
EXPANSION = 4  # box expansion shared by the oracle and minimal_relation


def _ustate_components(ctx):
    """Union-find (via connected components) over all states (a, K) with
    a <= AMAX and K in the EXPANSION-expanded box, glued by single steps.
    Also verifies, for every generated edge, that the degree
    2a - (K^2+|V|)/4 matches across the edge, in exact integer arithmetic.
    Returns (labels, state position lookup, state count per level)."""
    n = ctx.n
    lo = np.array([w + 2 - 2 * EXPANSION for w in ctx.weights])
    hi = np.array([-w + 2 * EXPANSION for w in ctx.weights])
    axes = [np.arange(a, b + 1, 2) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    states = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    count = len(states)
    sizes = (hi - lo) // 2 + 1
    radix = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        radix[i] = radix[i + 1] * sizes[i + 1]

    def keys_of(arr):
        return ((arr - lo) // 2) @ radix

    pos = np.full(int(sizes.prod()), -1, dtype=np.int64)
    pos[keys_of(states)] = np.arange(count)
    adj = np.array(ctx.adjugate, dtype=np.int64)
    q_rows = np.array(ctx.q, dtype=np.int64)
    qv = np.einsum("si,ij,sj->s", states, adj, states)
    sign = 1 if ctx.det > 0 else -1
    rows, cols = [], []
    for v in range(n):
        nxt = states + 2 * q_rows[v]
        inside = ((nxt >= lo) & (nxt <= hi)).all(axis=1)
        idx = np.flatnonzero(inside)
        j = pos[keys_of(nxt[inside])]
        step = (states[idx, v] + ctx.weights[v]) // 2
        # degree single-valuedness on every generated relation edge
        if not np.array_equal(sign * (qv[j] - qv[idx]), 8 * ctx.h1 * step):
            return None, None, None
        for a in range(AMAX + 1):
            keep = (a + step >= 0) & (a + step <= AMAX) & (a >= -step)
            if keep.any():
                rows.append(a * count + idx[keep])
                cols.append((a + step[keep]) * count + j[keep])
    total = count * (AMAX + 1)
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        graph = csr_matrix(
            (np.ones(len(r), dtype=np.int8), (r, c)), shape=(total, total)
        )
    else:
        graph = csr_matrix((total, total), dtype=np.int8)
    _, labels = connected_components(graph, directed=False)
    return labels, pos, count


def _oracle_merge_level(labels, pos, count, keys_of, k1, k2, pw):
    i1 = pos[keys_of(np.array([k1]))[0]]
    i2 = pos[keys_of(np.array([k2]))[0]]
    for m in range(max(0, -pw), AMAX + 1):
        if m + pw > AMAX:
            break
        if labels[m * count + i1] == labels[(m + pw) * count + i2]:
            return m
    return None


def test_criterion_6_union_find_oracle(capfd):
    t0 = time.perf_counter()
    forests = [
        f
        for f in enumerate_forests(4, -4)
        if f.n >= 1 and math.prod(abs(w) for w in f.weights) <= 500
    ]
    pairs = 0
    bad = None
    for forest in forests:
        ctx = QFormContext(forest)
        labels, pos, count = _ustate_components(ctx)
        if labels is None:
            bad = f"degree mismatch on an edge of {forest_to_text(forest)!r}"
            break
        n = ctx.n
        lo = np.array([w + 2 - 2 * EXPANSION for w in ctx.weights])
        sizes = (
            np.array([-w + 2 * EXPANSION for w in ctx.weights]) - lo
        ) // 2 + 1
        radix = np.ones(n, dtype=np.int64)
        for i in range(n - 2, -1, -1):
            radix[i] = radix[i + 1] * sizes[i + 1]

        def keys_of(arr, lo=lo, radix=radix):
            return ((arr - lo) // 2) @ radix

        basics = engine.basic_vectors(ctx)
        for group in basics.per_class:
            for a, b in itertools.combinations([tuple(k) for k in group], 2):
                pw = relations.path_weight(ctx, a, b)
                merge = _oracle_merge_level(labels, pos, count, keys_of, a, b, pw)
                try:
                    rel = relations.minimal_relation(ctx, a, b, expansion=EXPANSION)
                    want = rel.n if rel.n <= AMAX else None
                except relations.BoundExceededError:
                    want = None
                if merge != want:
                    bad = f"merge {merge} != minimal_relation {want} on {a}, {b}"
                    break
                pairs += 1
            if bad:
                break
        if bad:
            break
    elapsed = time.perf_counter() - t0
    ok = bad is None and pairs >= 1 and elapsed < 120.0
    report(
        6,
        ok,
        bad
        or (
            f"union-find oracle over {len(forests)} forests (<=4 vertices, "
            f"weights >= -4, box <= 500): degree single-valued on all edges, "
            f"{pairs} same-class basic pairs agree with minimal_relation, "
            f"{elapsed:.1f}s < 120s"
        ),
        capfd,
    )


# --------------------------------------------------------------------- 7

def _random_forest(rng, max_vertices=4, min_weight=-5, box_cap=400):
    while True:
        n = rng.randint(1, max_vertices)
        weights = tuple(rng.randint(min_weight, -1) for _ in range(n))
        edges = []
        for i in range(1, n):
            parent = rng.randint(-1, i - 1)
            if parent >= 0:
                edges.append((parent, i))
        forest = PlumbingForest(
            ids=tuple(f"n{i}" for i in range(n)),
            weights=weights,
            edges=tuple(edges),
        )
        if not is_negative_definite(forest):
            continue
        if math.prod(abs(w) for w in weights) > box_cap:
            continue
        return forest


def _blow_up(forest, rng):
    ids = list(forest.ids)
    weights = list(forest.weights)
    edges = list(forest.edges)
    kinds = ["disjoint", "leaf"] + (["edge"] if edges else [])
    kind = rng.choice(kinds)
    ids.append(f"b{len(ids)}")
    weights.append(-1)
    new = len(ids) - 1
    if kind == "leaf":
        v = rng.randrange(new)
        weights[v] -= 1
        edges.append((v, new))
    elif kind == "edge":
        a, b = edges.pop(rng.randrange(len(edges)))
        weights[a] -= 1
        weights[b] -= 1
        edges.extend([(a, new), (new, b)])
    return PlumbingForest(ids=tuple(ids), weights=tuple(weights), edges=tuple(edges))


def _case_counts():
    return {"cases": 0}


def test_criterion_7_property_suites(capfd):
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    failures = []
    counts = {}

    # (a) run_path strategy independence
    counts["strategy"] = 0
    for _ in range(110):
        forest = _random_forest(rng)
        ctx = QFormContext(forest)
        box = list(ctx.iter_box())
        k = box[rng.randrange(len(box))]
        base = engine.run_path(ctx, k)
        for _ in range(2):
            strat = random_strategy(random.Random(rng.getrandbits(32)))
            r = strategy_run_path(ctx, k, strategy=strat)
            if r.outcome != base.outcome or (base.basic and r.final != base.final):
                failures.append(f"strategy dependence on {forest.weights} {k}")
        counts["strategy"] += 1

    # (b) |spinc classes| = |det|
    counts["spinc"] = 0
    for _ in range(110):
        ctx = QFormContext(_random_forest(rng))
        if len(ctx.spinc_classes()) != abs(ctx.det):
            failures.append(f"class count != |det| on {ctx.forest.weights}")
        counts["spinc"] += 1

    # (c) k_square(add_pd) - k_square = 8 * step_weight
    counts["ksquare"] = 0
    for _ in range(110):
        ctx = QFormContext(_random_forest(rng))
        box = list(ctx.iter_box())
        k = box[rng.randrange(len(box))]
        v = rng.randrange(ctx.n)
        lhs = k_square(ctx, ctx.add_pd(k, v)) - k_square(ctx, k)
        if lhs != 8 * relations.step_weight(ctx, k, v):
            failures.append(f"k_square step identity on {ctx.forest.weights}")
        counts["ksquare"] += 1

    # (d) conjugation symmetry of basic counts and d-values
    counts["conjugation"] = 0
    for _ in range(110):
        ctx = QFormContext(_random_forest(rng))
        basics = engine.basic_vectors(ctx)
        dinv = engine.d_invariants(ctx, basics=basics)
        perm = [ctx.class_index(ctx.conjugate(rep)) for rep in basics.classes]
        okp = sorted(perm) == list(range(len(perm)))
        okp = okp and all(
            len(basics.per_class[i]) == len(basics.per_class[j])
            and dinv.d[i] == dinv.d[j]
            for i, j in enumerate(perm)
        )
        if not okp:
            failures.append(f"conjugation asymmetry on {ctx.forest.weights}")
        counts["conjugation"] += 1

    # (e) rational ⇒ lspace
    counts["rational"] = 0
    for _ in range(110):
        ctx = QFormContext(_random_forest(rng))
        basics = engine.basic_vectors(ctx)
        canonical = basics.per_class[ctx.class_index(ctx.canonical_char())]
        if len(canonical) == 1 and basics.total != ctx.h1:
            failures.append(f"rational non-lspace on {ctx.forest.weights}")
        counts["rational"] += 1

    # (f) reduce preserves |det| / spin-c / basic counts / d multiset
    counts["reduce"] = 0
    while counts["reduce"] < 110:
        forest = _random_forest(rng, min_weight=-4, box_cap=200)
        blown = forest
        for _ in range(rng.randint(1, 3)):
            blown = _blow_up(blown, rng)
        if math.prod(abs(w) for w in blown.weights) > 600:
            continue
        reduced, _ = reduce_forest(blown)

        def fields(f):
            c = QFormContext(f)
            b = engine.basic_vectors(c)
            d = engine.d_invariants(c, basics=b)
            return (c.h1, sorted(len(g) for g in b.per_class), sorted(d.d))

        if not is_negative_definite(blown) or fields(blown) != fields(reduced):
            failures.append(f"reduce changed invariants on {blown.weights}")
        if h1_order(blown) != h1_order(reduced):
            failures.append(f"reduce changed |det| on {blown.weights}")
        counts["reduce"] += 1

    elapsed = time.perf_counter() - t0
    ok = not failures and all(v >= 100 for v in counts.values())
    summary = ", ".join(f"{k}={v}" for k, v in counts.items())
    report(
        7,
        ok,
        (failures[0] if failures else f"property suites all green ({summary}), ")
        + f"{elapsed:.1f}s",
        capfd,
    )
