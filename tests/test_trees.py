import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import leaf_labels, reorient
from phylotope.errors import NotALeafError, ParseError, UnknownVertexError
from phylotope.trees import Tree, glue, parse_newick


def test_claw_shape():
    t = parse_newick("(a,b,c);")
    assert len(t.edges) == 3
    assert len(t.leaves) == 3
    assert t.inner == (t.root,)
    assert leaf_labels(t) == ("a", "b", "c")


def test_quartet_root_suppression():
    t = parse_newick("((a,b),(c,d));")
    assert len(t.edges) == 5
    assert len(t.inner) == 2
    assert sorted(leaf_labels(t)) == ["a", "b", "c", "d"]
    # the two inner vertices are joined by a single edge
    inner = set(t.inner)
    joining = [e for e in t.edges if set(e) <= inner]
    assert len(joining) == 1


def test_caterpillar():
    t = parse_newick("((a,b),c,(d,e));")
    assert len(t.leaves) == 5
    assert len(t.inner) == 3
    assert len(t.edges) == 7


def test_rooted_leaf_edge():
    # a degree-1 root is itself a leaf
    t = parse_newick("(r,(a,b));")
    assert len(t.leaves) == 3


def test_newick_round_trip():
    for text in ("(a,b,c);", "((a,b),(c,d));", "((a,b),c,(d,e));"):
        t = parse_newick(text)
        again = parse_newick(t.newick())
        assert again.newick() == t.newick()
        assert sorted(leaf_labels(again)) == sorted(leaf_labels(t))
        assert len(again.edges) == len(t.edges)


def test_parse_errors():
    for bad in ("((a,b);", "(a,,b);", "(a);", "(a,b,c)", "(a,b,c); junk",
                "(a,b,a);", ""):
        with pytest.raises(ParseError):
            parse_newick(bad)


def test_unsupported_newick_features_are_rejected_clearly():
    with pytest.raises(ParseError, match="branch lengths"):
        parse_newick("(a:0.1,b,c);")
    with pytest.raises(ParseError, match="quoted"):
        parse_newick("('a b',c,d);")
    with pytest.raises(ParseError, match="leaves"):
        parse_newick("((a,b)inner,c,d);")


def test_reorient_preserves_edge_positions():
    t = parse_newick("((a,b),(c,d));")
    other_inner = next(v for v in t.inner if v != t.root)
    r = reorient(t, other_inner)
    assert r.root == other_inner
    assert len(r.edges) == len(t.edges)
    assert {frozenset(e) for e in r.edges} == {frozenset(e) for e in t.edges}
    assert reorient(t, t.root) is t


def test_leaf_lookup():
    t = parse_newick("(a,b,c);")
    assert t.labels[t.leaf_by_label("b")] == "b"
    with pytest.raises(UnknownVertexError):
        t.leaf_by_label("nope")


def test_glue_claws_makes_quartet():
    t1 = parse_newick("(a,b,c);")
    t2 = parse_newick("(x,y,z);")
    res = glue(t1, "c", t2, "x")
    g = res.tree
    assert len(g.leaves) == 4
    assert len(g.edges) == 5
    assert sorted(leaf_labels(g)) == ["a", "b", "y", "z"]
    # merged edge sits at the position of t1's glued leaf edge
    glued_leaf_edge = next(i for i, (p, c) in enumerate(t1.edges)
                           if t1.labels[c] == "c")
    assert res.glued1 == glued_leaf_edge
    # and it joins the surviving neighbor vertices of the two glued leaves
    p, c = g.edges[res.glued1]
    assert g.labels[p] is None and g.labels[c] is None


def test_glue_counts_generic():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("(x,y,z);")
    res = glue(t1, "d", t2, "y")
    assert len(res.tree.leaves) == len(t1.leaves) + len(t2.leaves) - 2
    assert len(res.tree.edges) == len(t1.edges) + len(t2.edges) - 1
    assert len(res.tree.inner) == len(t1.inner) + len(t2.inner)


def test_glue_edge_to_edge():
    # two cherries glued at leaves: a single edge remains
    t1 = parse_newick("(p,q);")
    t2 = parse_newick("(u,v);")
    res = glue(t1, "q", t2, "u")
    assert len(res.tree.edges) == 1
    assert sorted(leaf_labels(res.tree)) == ["p", "v"]


def test_glue_rejects_inner_vertices():
    t1 = parse_newick("(a,b,c);")
    t2 = parse_newick("(x,y,z);")
    with pytest.raises(NotALeafError):
        glue(t1, t1.root, t2, "x")


def test_glue_maps_cover_edges():
    t1 = parse_newick("(a,b,c);")
    t2 = parse_newick("((x,y),(z,w));")
    res = glue(t1, "a", t2, "w")
    # t1's edges keep their positions
    mapped = list(range(len(t1.edges)))
    mapped += [res.edge_map2[i] for i in range(len(t2.edges))
               if res.edge_map2[i] is not None]
    assert sorted(mapped) == sorted(set(mapped))
    assert len(mapped) == len(res.tree.edges)
    assert res.edge_map2[res.glued2] is None


@pytest.mark.parametrize("tree1, leaf1, tree2, leaf2, want", [
    ("(a,b,c);", "c", "(a,b,c);", "a", ["a", "b", "b_2", "c"]),
    ("(a,b,c);", "b", "(a,b,c);", "a", ["a", "b", "c", "c_2"]),
    ("(a,b,b_2);", "a", "(b,b_2,x);", "x",
     ["b", "b_2", "b_2_2", "b_2_2_2"]),
])
def test_glue_renames_colliding_leaves(tree1, leaf1, tree2, leaf2, want):
    res = glue(parse_newick(tree1), leaf1, parse_newick(tree2), leaf2)
    assert sorted(leaf_labels(res.tree)) == want
    back = parse_newick(res.tree.newick())
    assert sorted(leaf_labels(back)) == want
    assert back.newick() == res.tree.newick()


labels = st.lists(st.sampled_from("abcdefgh"), min_size=3, max_size=6,
                  unique=True)


@settings(max_examples=30, deadline=None)
@given(labels)
def test_claw_of_any_width_round_trips(names):
    text = "(" + ",".join(names) + ");"
    t = parse_newick(text)
    assert leaf_labels(t) == tuple(names)
    assert leaf_labels(parse_newick(t.newick())) == tuple(names)
