"""Path weights, minimal relations, and truncated class tables, checked
against a literal union-find oracle over exponent-vector states."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from plumb import census, cli, engine, relations
from plumb.catalog import chain_forest, e8_forest, lens_chain, star_forest
from plumb.forest import PlumbingForest, forest_to_text, is_negative_definite
from plumb.lattice import EnumerationBudgetError, QFormContext

from oracles import class_tables, k_square, same_spinc, spinc_key, two_node_tree


def star237():
    return QFormContext(star_forest(-1, [-2, -3, -7]))


# -------------------------------------------------------------- step weight

def test_step_weight_examples():
    ctx = QFormContext(chain_forest([-2]))
    assert relations.step_weight(ctx, (2,), 0) == 0
    assert relations.step_weight(ctx, (0,), 0) == -1
    e8 = QFormContext(e8_forest())
    for v in range(8):
        assert relations.step_weight(e8, (0,) * 8, v) == -1


# -------------------------------------------------------------- path weight

def test_path_weight_identity():
    ctx = QFormContext(chain_forest([-2, -3]))
    k = (0, 1)
    assert relations.path_weight(ctx, k, k) == 0


def test_path_weight_single_step():
    # one forward step from (2) has weight (2 + -2)/2 = 0
    ctx = QFormContext(chain_forest([-2]))
    assert relations.path_weight(ctx, (2,), (-2,)) == 0


def test_path_weight_different_class_raises():
    ctx = QFormContext(chain_forest([-2]))
    with pytest.raises(relations.NotSameClassError):
        relations.path_weight(ctx, (0,), (2,))


def test_path_weight_telescopes_step_weights():
    """Along random step walks, accumulated step weights equal path_weight."""
    rng = random.Random(5)
    for weights in ([-2, -2], [-3, -2], [-2, -2, -3]):
        ctx = QFormContext(chain_forest(weights))
        for _ in range(40):
            k = list(rng.choice(list(ctx.iter_box())))
            start = tuple(k)
            total = 0
            for _ in range(rng.randrange(6)):
                v = rng.randrange(ctx.n)
                sign = rng.choice((1, -1))
                if sign == 1:
                    total += relations.step_weight(ctx, tuple(k), v)
                row = ctx.q[v]
                for i in range(ctx.n):
                    k[i] += 2 * sign * row[i]
                if sign == -1:
                    total -= relations.step_weight(ctx, tuple(k), v)
            assert relations.path_weight(ctx, start, tuple(k)) == total


def test_path_weight_two_step_composite():
    ctx = QFormContext(chain_forest([-2, -2]))
    k1 = (0, 0)
    mid = tuple(ctx.add_pd(k1, 0))
    k2 = tuple(ctx.add_pd(mid, 1))
    expected = relations.step_weight(ctx, k1, 0) + relations.step_weight(ctx, mid, 1)
    assert relations.path_weight(ctx, k1, k2) == expected


# -------------------------------------------------------- minimal relations

def test_minimal_relation_reflexive():
    ctx = star237()
    k = tuple(ctx.canonical_char())
    r = relations.minimal_relation(ctx, k, k)
    assert (r.n, r.m) == (0, 0)


def test_minimal_relation_star_basics():
    ctx = star237()
    basics = engine.basic_vectors(ctx).per_class[0]
    assert len(basics) == 2
    r = relations.minimal_relation(ctx, basics[0], basics[1])
    assert r.m - r.n == relations.path_weight(ctx, basics[0], basics[1])
    assert r.n >= 1 and r.m >= 1  # distinct basics never merge at level 0


def test_minimal_relation_symmetry():
    ctx = star237()
    b = engine.basic_vectors(ctx).per_class[0]
    r = relations.minimal_relation(ctx, b[0], b[1])
    s = relations.minimal_relation(ctx, b[1], b[0])
    assert (r.n, r.m) == (s.m, s.n)


def test_minimal_relation_bound_exceeded():
    ctx = QFormContext(chain_forest([-2]))
    # (-2) sits outside the unexpanded box, so no path exists within it
    with pytest.raises(relations.BoundExceededError):
        relations.minimal_relation(ctx, (2,), (-2,), expansion=0)


# ----------------------------------------------- literal union-find oracle

class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def ustate_oracle(ctx, max_u, expansion):
    """Union-find over states (a, K), 0 <= a <= max_u, K in the expanded
    box, glued by single steps: U^a (x) K ~ U^(a+n) (x) (K + 2 PD[v]) with
    n the step weight. Returns (per-class per-degree counts, uf, states).
    """
    lo = [w + 2 - 2 * expansion for w in ctx.weights]
    hi = [-w + 2 * expansion for w in ctx.weights]
    grid = list(itertools.product(*[range(a, b + 1, 2) for a, b in zip(lo, hi)]))
    uf = UnionFind()
    states = [(a, k) for k in grid for a in range(max_u + 1)]
    for s in states:
        uf.find(s)
    for k in grid:
        for v in range(ctx.n):
            n_step = relations.step_weight(ctx, k, v)
            nxt = tuple(x + 2 * r for x, r in zip(k, ctx.q[v]))
            if not all(a <= x <= b for a, x, b in zip(lo, nxt, hi)):
                continue
            for a in range(max(0, -n_step), max_u + 1):
                if 0 <= a + n_step <= max_u:
                    uf.union((a, k), (a + n_step, nxt))
    return uf, states


def degree_of(ctx, a, k):
    return 2 * a - (k_square(ctx, k) + ctx.n) / 4


def oracle_tables(ctx, max_u, expansion):
    """Per spin^c class: degree -> number of equivalence classes."""
    uf, states = ustate_oracle(ctx, max_u, expansion)
    by_class = {}
    for a, k in states:
        key = spinc_key(ctx, k)
        deg = degree_of(ctx, a, k)
        root = uf.find((a, k))
        by_class.setdefault(key, {}).setdefault(deg, set()).add(root)
    return {
        key: {deg: len(roots) for deg, roots in degs.items()}
        for key, degs in by_class.items()
    }


@pytest.mark.parametrize(
    "weights",
    [[-2], [-3], [-2, -2], [-3, -2], [-2, -2, -2]],
)
def test_truncated_matches_ustate_oracle_chains(weights):
    ctx = QFormContext(chain_forest(weights))
    max_u, expansion = 4, 3
    tabs = relations.truncated_classes(ctx, max_u=max_u, expansion=expansion)
    oracle = oracle_tables(ctx, max_u, expansion)
    assert len(tabs) == ctx.h1
    for tab in tabs:
        counts = oracle[spinc_key(ctx, tab.rep)]
        for j, row in enumerate(tab.rows):
            assert row.degree == tab.bottom + 2 * j
            assert row.count == counts[row.degree], (
                f"class {tuple(tab.rep)} degree {row.degree}"
            )


def test_truncated_matches_ustate_oracle_star():
    ctx = star237()
    max_u, expansion = 5, 4
    tabs = relations.truncated_classes(ctx, max_u=max_u, expansion=expansion)
    oracle = oracle_tables(ctx, max_u, expansion)
    (tab,) = tabs
    counts = oracle[spinc_key(ctx, tab.rep)]
    for j, row in enumerate(tab.rows):
        assert row.count == counts[tab.bottom + 2 * j]


def test_oracle_degree_single_valued_on_classes():
    """Every union-find class carries a single degree value."""
    for weights in ([-2, -2], [-3, -2]):
        ctx = QFormContext(chain_forest(weights))
        uf, states = ustate_oracle(ctx, 4, 3)
        seen = {}
        for a, k in states:
            root = uf.find((a, k))
            deg = degree_of(ctx, a, k)
            assert seen.setdefault(root, deg) == deg


def test_minimal_relation_matches_oracle_merge_level():
    """On the chain (-2,-2): for every same-class pair of box vectors, the
    union-find merge level equals minimal_relation's n."""
    ctx = QFormContext(chain_forest([-2, -2]))
    max_u, expansion = 6, ctx.n * 2
    uf, _ = ustate_oracle(ctx, max_u, expansion)
    box = list(ctx.iter_box())
    for k1, k2 in itertools.combinations(box, 2):
        if not same_spinc(ctx, k1, k2):
            continue
        pw = relations.path_weight(ctx, k1, k2)
        merge = None
        for n in range(max(0, -pw), max_u + 1):
            if n + pw > max_u:
                break
            if uf.find((n, k1)) == uf.find((n + pw, k2)):
                merge = n
                break
        r = relations.minimal_relation(ctx, k1, k2, expansion=expansion)
        assert merge == r.n
        assert r.m == r.n + pw


# ------------------------------------------------------------ class tables

def test_truncated_e8_tower():
    ctx = QFormContext(e8_forest())
    (tab,) = relations.truncated_classes(ctx, max_u=4)
    assert tab.bottom == Fraction(-2)
    assert [(r.degree, r.count) for r in tab.rows] == [
        (Fraction(d), 1) for d in (-2, 0, 2, 4, 6)
    ]
    assert tab.converged and tab.reduced_rank == 0


def test_truncated_single_minus_two_bottoms():
    ctx = QFormContext(chain_forest([-2]))
    tabs = relations.truncated_classes(ctx, max_u=3)
    assert sorted(t.bottom for t in tabs) == [Fraction(-1, 4), Fraction(1, 4)]
    for t in tabs:
        assert all(r.count == 1 for r in t.rows)
        assert t.converged and t.reduced_rank == 0


def test_truncated_star_one_doubled_degree():
    (tab,) = relations.truncated_classes(star237(), max_u=6)
    assert tab.bottom == 0
    counts = [r.count for r in tab.rows]
    assert counts[0] == 2 and all(c == 1 for c in counts[1:])
    assert tab.converged and tab.reduced_rank == 1


def test_truncated_monotone_in_window_and_expansion():
    ctx = star237()
    small = relations.truncated_classes(ctx, max_u=3)
    big = relations.truncated_classes(ctx, max_u=7)
    for s, b in zip(small, big):
        assert s.bottom == b.bottom
        for rs, rb in zip(s.rows, b.rows):
            assert rb.count >= rs.count  # converged values never shrink
            assert rb.count == rs.count  # and are in fact stable here
    wide = relations.truncated_classes(ctx, max_u=3, expansion=ctx.n * 4)
    for s, w in zip(small, wide):
        assert [(r.degree, r.count) for r in s.rows] == [
            (r.degree, r.count) for r in w.rows
        ]


def row_counts_oracle(ctx, states, q, thresholds):
    """Per-threshold union-find over the single-step graph induced on the
    states with q >= t. states sorted by descending q (lists of tuples)."""
    index = {s: i for i, s in enumerate(states)}
    counts = []
    for t in thresholds:
        nstates = 0
        while nstates < len(states) and q[nstates] >= t:
            nstates += 1
        parent = list(range(nstates))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comp = nstates
        for i in range(nstates):
            s = states[i]
            for v in range(ctx.n):
                row = ctx.q[v]
                nbr = tuple(x + 2 * r for x, r in zip(s, row))
                j = index.get(nbr)
                if j is None or j >= nstates:
                    continue
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    comp -= 1
        counts.append(comp)
    return counts


def test_row_counts_match_union_find_oracle():
    """Every class's rows from the one spanning forest over all classes
    equal a union-find run on that class's shell states alone."""
    graphs = [chain_forest([-3, -2]), star_forest(-1, [-2, -3, -7])]
    graphs += [g for n in range(1, 4) for g in census.enumerate_weighted(n, -4)]
    for g in graphs:
        ctx = QFormContext(g)
        q_max = relations._class_qmax(ctx).tolist()
        expansion = relations.default_expansion(ctx)
        for max_u in range(6):
            tabs = relations.truncated_classes(ctx, max_u=max_u)
            rhs = 8 * max_u * ctx.h1 - min(q_max)
            lo, hi = relations._shell_bounds(ctx, expansion, rhs)
            states, q = relations._np_shell_enum(ctx, rhs, lo, hi, ctx.budget)
            cls = ctx.class_indices(states)
            assert len(tabs) == len(q_max)
            for ci, (tab, qm) in enumerate(zip(tabs, q_max)):
                sel = cls == ci
                order = np.argsort(-q[sel], kind="stable")
                st = [tuple(s) for s in states[sel][order].tolist()]
                qs = q[sel][order].tolist()
                thresholds = [qm - 8 * j * ctx.h1 for j in range(max_u + 1)]
                want = row_counts_oracle(ctx, st, qs, thresholds)
                assert [r.count for r in tab.rows] == want, (g.weights, max_u, ci)


def test_row_key_guard_raises_budget_error(monkeypatch, capsys, tmp_path):
    """A row-count key space at or above the int64 guard raises before any
    key is built. hf reaches the row counts only on a graph that is not
    almost-rational: on two_node_tree at max_u 1 the shell guard's figure
    is 619,164 and the row keys span 4,050,000, so 10^6 trips only the
    row-count guard."""
    monkeypatch.setattr(relations, "_INT64_GUARD", 10**6)
    ctx = QFormContext(two_node_tree())
    with pytest.raises(EnumerationBudgetError, match="row counts"):
        relations.truncated_classes(ctx, max_u=1)
    path = tmp_path / "tree.txt"
    path.write_text(forest_to_text(two_node_tree()))
    assert cli.main(["hf", str(path), "--max-u", "1"]) == 3
    assert "row counts" in capsys.readouterr().err


def exact_shell_enum(ctx, rhs, lo, hi):
    """Oracle for relations._np_shell_enum: every characteristic k with
    lo <= k <= hi and k.A.k <= rhs, A = -sign(det) * adjugate(Q), by
    exact recursion over the LDL form."""
    n = ctx.n
    sgn = 1 if ctx.det > 0 else -1
    d, u = relations._ldl([[-sgn * x for x in row] for row in ctx.adjugate])
    out = []
    coords = [0] * n
    # pending[j] accumulates sum_{l>j} u[j][l] * k_l as coordinates are fixed
    pending = [Fraction(0)] * n

    def valid(i, x, remaining):
        return d[i] * (x + pending[i]) ** 2 <= remaining

    def rec(i, remaining):
        if i < 0:
            out.append(tuple(coords))
            return
        # integer interval |x + t| <= sqrt(remaining / d[i]), found exactly
        center = -pending[i]
        guess = int(center) if center >= 0 else -int(-center)
        x_hi = guess
        while valid(i, x_hi + 1, remaining):
            x_hi += 1
        while x_hi > center and not valid(i, x_hi, remaining):
            x_hi -= 1
        x_lo = guess
        while valid(i, x_lo - 1, remaining):
            x_lo -= 1
        while x_lo < center and not valid(i, x_lo, remaining):
            x_lo += 1
        if not valid(i, x_lo, remaining):
            return
        x_lo = max(x_lo, lo[i])
        x_hi = min(x_hi, hi[i])
        x_lo += (ctx.weights[i] - x_lo) % 2  # snap to characteristic parity
        for x in range(x_lo, x_hi + 1, 2):
            if not valid(i, x, remaining):
                continue
            coords[i] = x
            for j in range(i):
                pending[j] += u[j][i] * x
            rec(i - 1, remaining - d[i] * (x + pending[i]) ** 2)
            for j in range(i):
                pending[j] -= u[j][i] * x
        coords[i] = 0

    rec(n - 1, Fraction(rhs))
    return out


def test_np_shell_enum_matches_exact_oracle():
    """The oracle searches the whole expanded box; the numpy enumeration
    gets that box clipped to the shell's ellipsoid bounds, and each state's
    K^2 numerator must be |H1| times the exact K^2. Four-vertex graphs stop
    at max_u 1, where the oracle already takes seconds."""
    graphs = [g for n in range(1, 5) for g in census.enumerate_weighted(n, -4)]
    for g in graphs:
        ctx = QFormContext(g)
        q_max = relations._class_qmax(ctx).tolist()
        expansion = relations.default_expansion(ctx)
        box_lo = [w + 2 - 2 * expansion for w in ctx.weights]
        box_hi = [-w + 2 * expansion for w in ctx.weights]
        for max_u in range(4 if g.n < 4 else 2):
            rhs = 8 * max_u * ctx.h1 - min(q_max)
            lo, hi = relations._shell_bounds(ctx, expansion, rhs)
            got, q = relations._np_shell_enum(ctx, rhs, lo, hi, ctx.budget)
            want = exact_shell_enum(ctx, rhs, box_lo, box_hi)
            assert sorted(map(tuple, got.tolist())) == sorted(want), (g.weights, max_u)
            assert q.tolist() == [ctx.h1 * k_square(ctx, k) for k in got.tolist()]
            # reverse-lexicographic (last coordinate outermost): the row
            # counter's keys rely on this order
            assert (np.lexsort(got.T) == np.arange(len(got))).all()


def test_empty_shell_returns_states_and_numerators():
    ctx = QFormContext(chain_forest([-2, -3]))
    # bounds that admit no coordinate: the sweep stops at the first one
    states, q = relations._np_shell_enum(ctx, 100, [2, 2], [0, 0], ctx.budget)
    assert states.shape == (0, 2) and q.shape == (0,)


def test_truncated_rejects_negative_expansion():
    with pytest.raises(ValueError, match="expansion must be nonnegative"):
        relations.truncated_classes(QFormContext(chain_forest([-2, -3])), expansion=-5)


def test_truncated_huge_expansion_matches_default():
    """The shell's ellipsoid bounds, not the expansion, limit the int64
    magnitudes, so a huge expansion stays on the numpy path."""
    for g in (chain_forest([-2, -3]), star_forest(-1, [-2, -3, -7])):
        ctx = QFormContext(g)
        assert relations.truncated_classes(
            ctx, expansion=10**9
        ) == relations.truncated_classes(ctx)


# ---------------------------------------------------------------- summary

def test_hf_summary_e8():
    s = relations.hf_summary(QFormContext(e8_forest()))
    assert s.converged and s.reduced_total == 0
    assert s.classes[0].bottom == Fraction(-2)


def test_hf_summary_star():
    s = relations.hf_summary(star237())
    assert s.converged and s.reduced_total == 1
    assert s.classes[0].bottom == 0


def test_hf_summary_unconverged_window():
    s = relations.hf_summary(star237(), max_u=0)
    assert not s.converged


def test_hf_summary_rational_graphs_have_no_reduced_part():
    # (-7)^4 presents L(2255, 329): 2,255 classes, each an L-space class
    for weights in ([-2], [-3], [-2, -2], [-2, -3], [-4, -2, -3], [-7] * 4):
        s = relations.hf_summary(QFormContext(chain_forest(weights)))
        assert s.converged
        assert s.reduced_total == 0


# ------------------------------------------------------------ tau tables

def disjoint(*parts):
    """The forest whose components are the given forests."""
    ids, weights, edges = [], [], []
    for pi, part in enumerate(parts):
        base = len(ids)
        ids += [f"c{pi}{x}" for x in part.ids]
        weights += part.weights
        edges += [(a + base, b + base) for a, b in part.edges]
    return PlumbingForest(tuple(ids), tuple(weights), tuple(edges))


def unbounded_shell(ctx, max_u=8):
    """The shell's integer tables (q_max, counts) with a box no table can
    reach past."""
    return relations._shell_classes(ctx, max_u, 10**6)


def same_tables(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_tau_classes_match_unbounded_shell_on_small_trees():
    """Each class's max K^2 (so its bottom) and rows equal the shell's on
    every tree with at most four vertices and weights >= -5 (510 trees,
    31,255 classes)."""
    for n in range(1, 5):
        for g in census.enumerate_weighted(n, -5):
            ctx = QFormContext(g)
            v0 = engine.ar_vertex(ctx)
            assert same_tables(relations._tau_classes(ctx, 8, v0), unbounded_shell(ctx)), g.weights


NAMED_AR_GRAPHS = {
    "E8": e8_forest(),
    "Sigma(2,3,7)": star_forest(-1, [-2, -3, -7]),
    "(-2;-3,-5,-7)": star_forest(-2, [-3, -5, -7]),
    "(-3;-2,-3,-5,-5)": star_forest(-3, [-2, -3, -5, -5]),
    "L(97,38)": lens_chain(97, 38),
    "(-7)^4": chain_forest([-7] * 4),
    "(-5,-3) + Sigma(2,3,7)": disjoint(
        chain_forest([-5, -3]), star_forest(-1, [-2, -3, -7])
    ),
    "(-2,-3) + (-4;-2,-2,-2)": disjoint(
        chain_forest([-2, -3]), star_forest(-4, [-2, -2, -2])
    ),
}


@pytest.mark.parametrize("name", NAMED_AR_GRAPHS)
def test_tau_classes_match_unbounded_shell_named(name):
    ctx = QFormContext(NAMED_AR_GRAPHS[name])
    v0 = engine.ar_vertex(ctx)
    assert v0 is not None
    assert same_tables(relations._tau_classes(ctx, 8, v0), unbounded_shell(ctx))


def test_tau_classes_rejects_negative_max_u():
    with pytest.raises(ValueError, match="max_u must be nonnegative"):
        relations._tau_classes(QFormContext(e8_forest()), -1, 0)


def test_tau_walk_budget():
    """The walk's length is bounded before it starts: E8 at max_u 10^6
    needs about 2,000 steps, over a budget of 1,000."""
    ctx = QFormContext(e8_forest(), budget=1000)
    with pytest.raises(EnumerationBudgetError, match="tau walk"):
        relations._tau_classes(ctx, 10**6, 0)


def test_hf_summary_keeps_the_shell_for_non_ar_graphs():
    ctx = QFormContext(two_node_tree())
    s = relations.hf_summary(ctx, max_u=2)
    assert s.classes == relations.truncated_classes(ctx, max_u=2)
    assert s.expansion == relations.default_expansion(ctx)


def test_hf_lens_chains_have_no_reduced_part():
    """Lens spaces are L-spaces. Every chain L(p, q) with p <= 60 whose box
    holds at most 10^4 vectors (968 of the 1,101 chains; the others are
    long runs of -2 weights, whose class representatives come from a box
    sweep too large for a unit test) has reduced rank 0 at max_u 16."""
    checked = 0
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            ctx = QFormContext(lens_chain(p, q))
            if ctx.box_size > 10**4:
                continue
            s = relations.hf_summary(ctx, max_u=16)
            assert s.converged and s.reduced_total == 0, (p, q)
            checked += 1
    assert checked == 968


# ------------------------------------------------- integer tables, on read

def oracle_cases():
    """(name, forest, max_u): E8, Sigma(2,3,7), every negative-definite
    chain with at most four vertices and weights >= -5, and the shell
    graph two_node_tree."""
    yield "E8", e8_forest(), 8
    yield "Sigma(2,3,7)", star_forest(-1, [-2, -3, -7]), 8
    for n in range(1, 5):
        for weights in itertools.product(range(-5, 0), repeat=n):
            chain = chain_forest(list(weights))
            if is_negative_definite(chain):
                yield str(weights), chain, 8
    yield "two_node_tree", two_node_tree(), 2


def test_hf_summary_reads_back_the_fraction_oracle():
    """HFSummary holds its tables as integers; the ClassTables it builds
    on read equal oracles.class_tables, built in Fractions from the same
    class maxima and row counts."""
    checked = 0
    for name, g, max_u in oracle_cases():
        ctx = QFormContext(g)
        v0 = engine.ar_vertex(ctx)
        if v0 is None:
            q_max, counts = relations._shell_classes(
                ctx, max_u, relations.default_expansion(ctx)
            )
        else:
            q_max, counts = relations._tau_classes(ctx, max_u, v0)
        want = class_tables(ctx, ctx.spinc_classes(), q_max.tolist(), counts.tolist())
        s = relations.hf_summary(ctx, max_u=max_u)
        assert s.classes == want, name
        assert s.converged == all(t.converged for t in want), name
        assert s.reduced_total == sum(t.reduced_rank for t in want), name
        checked += 1
    assert checked > 100


def test_hf_summary_charges_the_table_rows_first(monkeypatch):
    """|H1| * (max_u + 1) rows over the budget raise before any walk or
    shell starts, naming the stage and the size."""
    def never(*args):
        raise AssertionError("a table was computed")

    monkeypatch.setattr(relations, "_tau_classes", never)
    monkeypatch.setattr(relations, "_shell_classes", never)
    ctx = QFormContext(chain_forest([-2]), budget=1000)
    with pytest.raises(EnumerationBudgetError, match="class tables: 2 classes of 501 rows, 1002 rows"):
        relations.hf_summary(ctx, max_u=500)
    with pytest.raises(EnumerationBudgetError, match="class tables"):
        relations.truncated_classes(ctx, max_u=500)
