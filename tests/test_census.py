"""Tree enumeration, weighted-grid scanning, record schema, and the two
exhaustive verification scans."""

import json
from fractions import Fraction

import pytest

from plumb import census, engine
from plumb.catalog import chain_forest, e8_forest, star_forest
from plumb.forest import canonical_code, parse_forest
from plumb.lattice import EnumerationBudgetError, QFormContext


# ----------------------------------------------------------------- shapes

def test_tree_counts_match_reference_table():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n, want in enumerate(expected, start=1):
        assert len(census.enumerate_trees(n)) == want


def test_trees_against_labeled_enumeration():
    """Free-tree shapes weighted all -2 reproduce exactly the canonical
    codes obtained by brute-forcing all labeled trees."""
    for n in range(1, 8):
        shapes = census.enumerate_trees(n)
        codes = {
            canonical_code(census._shape_forest(e, n, [-2] * n)) for e in shapes
        }
        assert len(codes) == len(shapes)  # shapes are pairwise nonisomorphic
        assert codes == census.labeled_tree_codes(n)


def test_enumerate_trees_rejects_out_of_range():
    with pytest.raises(ValueError):
        census.enumerate_trees(0)
    with pytest.raises(EnumerationBudgetError):
        census.enumerate_trees(census.MAX_TREE_VERTICES + 1)


# -------------------------------------------------------------- weighted

def test_enumerate_weighted_single_vertex():
    got = list(census.enumerate_weighted(1, -3))
    assert sorted(f.weights for f in got) == [(-3,), (-2,), (-1,)]


def test_enumerate_weighted_two_vertices():
    # (-1,-1) has det 0, so only three weightings survive at wmin=-2,
    # two of them isomorphic: 2 graphs up to isomorphism
    got = list(census.enumerate_weighted(2, -2))
    assert sorted(sorted(f.weights) for f in got) == [[-2, -2], [-2, -1]]


def test_enumerate_weighted_all_negative_definite_and_distinct():
    got = list(census.enumerate_weighted(4, -3))
    codes = [canonical_code(f) for f in got]
    assert len(codes) == len(set(codes))
    from plumb.forest import is_negative_definite

    assert all(is_negative_definite(f) for f in got)
    assert all(len(f.components()) == 1 for f in got)


def test_enumerate_weighted_brute_force_cross_check():
    """Count n=3 negative-definite trees at wmin=-3 by raw labeled
    enumeration and compare."""
    from plumb.forest import PlumbingForest, is_negative_definite

    seen = set()
    for edges in [((0, 1), (1, 2)), ((0, 1), (0, 2))]:  # path relabelings
        for w in [
            (a, b, c)
            for a in range(-3, 0)
            for b in range(-3, 0)
            for c in range(-3, 0)
        ]:
            f = PlumbingForest(ids=("a", "b", "c"), weights=w, edges=edges)
            if is_negative_definite(f):
                seen.add(canonical_code(f))
    got = {canonical_code(f) for f in census.enumerate_weighted(3, -3)}
    assert got == seen


def test_enumerate_forests_includes_empty_and_disconnected():
    got = list(census.enumerate_forests(2, -2))
    sizes = sorted(f.n for f in got)
    # empty, two 1-vertex graphs, their three unordered pairs, two trees
    assert sizes[0] == 0
    singles = [f for f in got if f.n == 1]
    assert len(singles) == 2
    pairs = [f for f in got if f.n == 2 and not f.edges]
    assert len(pairs) == 3
    connected2 = [f for f in got if f.n == 2 and f.edges]
    assert len(connected2) == 2
    assert len(got) == 1 + 2 + 3 + 2


def test_enumerate_weighted_budget():
    with pytest.raises(EnumerationBudgetError):
        list(census.enumerate_weighted(4, -100, budget=10))


def test_enumerate_weighted_int64_guard_raises_before_allocating():
    # within the caller's budget, but the subtree determinants of this
    # grid would overflow int64
    with pytest.raises(EnumerationBudgetError):
        next(census.enumerate_weighted(2, -2**31, budget=2**64))


# ------------------------------------------------------------ rationality

def test_is_rational_agrees_with_basic_set():
    """engine.is_rational runs only the canonical class; the BasicSet
    count over the whole box is the independent check."""
    graphs = [
        chain_forest([-2]),
        chain_forest([-3]),
        chain_forest([-2, -2]),
        chain_forest([-5, -2, -3]),
        star_forest(-1, [-2, -3, -7]),
        star_forest(-2, [-3, -2, -2]),
        e8_forest(),
        parse_forest(""),
    ]
    graphs += list(census.enumerate_weighted(3, -4))
    for g in graphs:
        ctx = QFormContext(g)
        basics = engine.basic_vectors(ctx)
        count = len(basics.for_class(ctx.class_index(ctx.canonical_char())))
        assert engine.is_rational(ctx) == (count == 1), canonical_code(g)


# ----------------------------------------------------------------- records

def test_classify_star_record():
    r = census.classify(star_forest(-1, [-2, -3, -7]))
    assert r.n == 4
    assert r.det == 1 and r.spinc == 1
    assert r.basic == 2
    assert not r.rational and not r.lspace
    assert r.certified and r.minimal and r.negdef
    assert r.d == (Fraction(0),)


def test_record_to_obj_schema():
    r = census.classify(chain_forest([-2]))
    obj = census.record_to_obj(r)
    assert obj["lspace"] == "yes"
    assert obj["rational"] is True
    assert sorted(obj["d"]) == [["-1", "4"], ["1", "4"]]
    assert set(obj) == {
        "code",
        "n",
        "weights",
        "negdef",
        "det",
        "spinc",
        "basic",
        "rational",
        "lspace",
        "certified",
        "minimal",
        "d",
    }
    json.dumps(obj)  # serializable


def test_schema_header():
    h = census.schema_header()
    assert h == {"schema": "plumb-census", "version": 1}


# ------------------------------------------------------------------- scans

def test_census_scan_sorted_and_deterministic():
    a = census.census_scan(3, -3)
    b = census.census_scan(3, -3)
    assert a == b
    codes = [r.code for r in a]
    assert codes == sorted(codes)
    # the census corpus is connected trees, one record per isomorphism class
    assert all(r.n >= 1 for r in a)
    assert len(codes) == len(set(codes))


def test_census_scan_filters_conjunctive():
    recs = census.census_scan(4, -4, filters=("zhs", "minimal"))
    assert all(abs(r.det) == 1 and r.minimal for r in recs)
    with pytest.raises(ValueError, match="unknown filter"):
        census.census_scan(2, -2, filters=("nope",))


def test_census_forest_filters_run_before_classify(monkeypatch):
    """zhs and minimal are read off the forest: filtering the scan gives
    the records of an unfiltered scan filtered afterwards, and classify
    runs only on the graphs that pass them."""
    everything = census.census_scan(4, -4)
    post = {
        "zhs": lambda r: abs(r.det) == 1,
        "minimal": lambda r: r.minimal,
        "nonrational": lambda r: not r.rational,
    }
    for filters in (("zhs",), ("minimal",), ("zhs", "minimal"), ("minimal", "nonrational")):
        want = [r for r in everything if all(post[f](r) for f in filters)]
        assert census.census_scan(4, -4, filters=filters) == want, filters
    classified = []
    real = census.classify

    def counting(forest, budget):
        classified.append(forest)
        return real(forest, budget=budget)

    monkeypatch.setattr(census, "classify", counting)
    recs = census.census_scan(4, -7, filters=("zhs",))
    assert len(classified) == len(recs) == 16


def test_census_scan_threads_match_sequential():
    seq = census.census_scan(3, -3)
    par = census.census_scan(3, -3, threads=2)
    assert seq == par


def test_census_scan_contains_star_zhs_witness():
    recs = census.census_scan(4, -7, filters=("zhs", "nonrational"))
    codes = {r.code for r in recs}
    assert canonical_code(star_forest(-1, [-2, -3, -7])) in codes


# ---------------------------------------------------------------- verify

def test_verify_e8_at_8_and_9():
    for nmax in (8, 9):
        rep = census.verify_e8_unique(nmax)
        assert rep.ok
        assert rep.unimodular_codes == (census.e8_code(),)
        assert rep.trees_scanned == sum(
            census._FREE_TREE_COUNTS[n - 1] for n in range(1, nmax + 1)
        )


def test_verify_e8_requires_enough_vertices():
    with pytest.raises(ValueError):
        census.verify_e8_unique(7)


def test_verify_classification_small():
    rep = census.verify_classification(4, -7)
    assert rep.ok
    assert rep.counterexamples == ()
    # the Sigma(2,3,7) star is a minimal tree with a -1 vertex
    assert rep.case3_checked >= 1
    assert all(code == census.e8_code() for code in rep.unimodular_rational_codes)


def test_verify_classification_includes_e8_when_reachable():
    rep = census.verify_classification(8, -2)
    assert rep.ok
    assert census.e8_code() in rep.unimodular_rational_codes
