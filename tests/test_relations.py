"""Path weights, minimal relations, and truncated class tables, checked
against a literal union-find oracle over exponent-vector states."""

import itertools
import random
from fractions import Fraction

import pytest

from plumb import census, engine, relations
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.lattice import QFormContext


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


def test_ustate_validation():
    with pytest.raises(ValueError):
        relations.UState(-1, (0,))


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
    return 2 * a - (ctx.k_square(k) + ctx.n) / 4


def oracle_tables(ctx, max_u, expansion):
    """Per spin^c class: degree -> number of equivalence classes."""
    uf, states = ustate_oracle(ctx, max_u, expansion)
    by_class = {}
    for a, k in states:
        key = ctx.spinc_key(k)
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
        counts = oracle[ctx.spinc_key(tab.rep)]
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
    counts = oracle[ctx.spinc_key(tab.rep)]
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
        if not ctx.same_spinc(k1, k2):
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


def test_python_and_array_row_counters_agree(monkeypatch):
    graphs = [chain_forest([-3, -2]), star_forest(-1, [-2, -3, -7])]
    results = []
    for use_np in (True, False):
        got = []
        for g in graphs:
            if not use_np:
                monkeypatch.setattr(
                    relations, "_row_counts_np", lambda *a, **k: None
                )
            tabs = relations.truncated_classes(QFormContext(g), max_u=5)
            got.append(
                [
                    (tuple(t.rep), t.bottom, [(r.degree, r.count) for r in t.rows])
                    for t in tabs
                ]
            )
        monkeypatch.undo()
        results.append(got)
    assert results[0] == results[1]


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
    gets that box clipped to the shell's ellipsoid bounds. Four-vertex
    graphs stop at max_u 1, where the oracle already takes seconds."""
    graphs = [g for n in range(1, 5) for g in census.enumerate_weighted(n, -4)]
    for g in graphs:
        ctx = QFormContext(g)
        _, q_max = relations._class_reps_and_qmax(ctx)
        expansion = relations.default_expansion(ctx)
        box_lo = [w + 2 - 2 * expansion for w in ctx.weights]
        box_hi = [-w + 2 * expansion for w in ctx.weights]
        for max_u in range(4 if g.n < 4 else 2):
            rhs = 8 * max_u * ctx.h1 - min(q_max)
            lo, hi = relations._shell_bounds(ctx, expansion, rhs)
            got = relations._np_shell_enum(ctx, rhs, lo, hi, ctx.budget)
            want = exact_shell_enum(ctx, rhs, box_lo, box_hi)
            assert sorted(map(tuple, got.tolist())) == sorted(want), (g.weights, max_u)


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
    for weights in ([-2], [-3], [-2, -2], [-2, -3], [-4, -2, -3]):
        s = relations.hf_summary(QFormContext(chain_forest(weights)))
        assert s.converged
        assert s.reduced_total == 0
