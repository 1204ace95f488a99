import json
import os
import random
import subprocess
import sys

import pytest

from arglue import arquiver, gluing, selfglue, verifier
from arglue import fracture as fx
from arglue import replab
from arglue.core import (AlgebraError, BoundQuiverPresentation, KupischSeries,
                         kupisch_of, linear_a, nakayama, rename_presentation,
                         starlike)
from arglue.gluing import (GluingSpec, GluingSystemSpec, ar_isomorphic, glue,
                           glue_ar, glue_fracturings, glue_system,
                           push_forward, push_forward_system)
from conftest import (branched_ten, chain_four, double_gluing, left_ab,
                      rad2_chain, random_acyclic_series, right_ab)
from oracles import per_edge_glue_system


def test_glue_two_small_chains():
    A3, B3 = rad2_chain(3), rad2_chain(3)
    g = glue(GluingSpec(A3, left_ab(A3, "2"), B3, right_ab(B3, "2")))
    L = g.presentation
    assert sorted(L.quiver.vertices) == ["1", "1@A", "2", "3"]
    assert sorted(L.relations) == [("a1", "a2"), ("a1@A", "a1")]
    assert len(arquiver.indecomposables(L)) == 7
    assert kupisch_of(L) == KupischSeries([2, 2, 2, 1])


def test_push_forward_lands_on_renamed_vertex():
    A3, B3 = rad2_chain(3), rad2_chain(3)
    g = glue(GluingSpec(A3, left_ab(A3, "2"), B3, right_ab(B3, "2")))
    S = replab.simple(A3, "1")
    PS = push_forward(S, g, "A")
    assert PS.dim["1@A"] == 1 and PS.total_dim() == 1


def test_trivial_gluing_returns_host():
    B = branched_ten()
    P5 = left_ab(B, "5")
    assert P5.tail == ["5", "6", "7"] and P5.maximal
    H = linear_a(3)
    IH = right_ab(H, "3")
    g = glue(GluingSpec(B, P5, H, IH))
    vmap = {g.vertex_map_A[v]: v for v in B.quiver.vertices}
    amap = {g.arrow_map_A[a]: a for a, _, _ in B.quiver.arrows}
    assert rename_presentation(g.presentation, vmap, amap) == B


def test_amalgamation_counts_and_relations():
    A4, B = chain_four(), branched_ten()
    assert len(arquiver.indecomposables(A4)) == 9
    assert len(arquiver.indecomposables(B)) == 24
    P1 = left_ab(A4, "1")
    I3 = right_ab(B, "3")
    assert P1.tail == ["1", "2", "3"] and I3.tail == ["1", "2", "3"]
    g = glue(GluingSpec(A4, P1, B, I3))
    L = g.presentation
    assert len(L.quiver.vertices) == 11
    assert sorted(L.relations) == sorted(set(B.relations)
                                         | {("d0", "b1", "b2")})
    assert len(arquiver.indecomposables(L)) == 27


def test_amalgamated_ar_quiver_matches_fresh():
    A4, B = chain_four(), branched_ten()
    g = glue(GluingSpec(A4, left_ab(A4, "1"), B, right_ab(B, "3")))
    amalg = glue_ar(arquiver.ar_quiver(A4), arquiver.ar_quiver(B), g)
    assert amalg.node_count() == 24 + 9 - 6 == 27
    fresh = arquiver.ar_quiver(g.presentation)
    assert ar_isomorphic(amalg, fresh)
    assert arquiver.verify_mesh_identity(amalg) == []


def test_glued_trivial_fracturings_stay_trivial():
    A3, B3 = rad2_chain(3), rad2_chain(3)
    g = glue(GluingSpec(A3, left_ab(A3, "3"), B3, right_ab(B3, "1")))
    frL = glue_fracturings(fx.trivial_fracturing(A3),
                           fx.trivial_fracturing(B3), g)
    triv = fx.trivial_fracturing(g.presentation)
    assert frL.left == triv.left and frL.right == triv.right


def test_trivial_fracturings_incompatible_on_tall_seam():
    A4, B = chain_four(), branched_ten()
    g = glue(GluingSpec(A4, left_ab(A4, "1"), B, right_ab(B, "3")))
    with pytest.raises(AlgebraError, match="restricted fractures differ"):
        glue_fracturings(fx.trivial_fracturing(A4),
                         fx.trivial_fracturing(B), g)


def test_glue_system_chain_of_three():
    spec = GluingSystemSpec(
        ["x", "y", "z"],
        [("x", "y", "2", "2"), ("y", "z", "2", "2")],
        {"x": rad2_chain(3), "y": rad2_chain(3), "z": rad2_chain(3)})
    L, vmaps, amaps = glue_system(spec)
    assert len(L.quiver.vertices) == 5
    assert kupisch_of(L) == KupischSeries([2, 2, 2, 2, 1])


_FOUR_CHAIN = """
import json
from arglue.core import linear_a
from arglue.gluing import GluingSystemSpec, glue_system
tree = ["x", "y", "z", "w"]
spec = GluingSystemSpec(
    tree, [(u, v, "1", "3") for u, v in zip(tree, tree[1:])],
    {tv: linear_a(3) for tv in tree})
_L, vmaps, amaps = glue_system(spec)
print(json.dumps([list(vmaps), list(amaps)]))
"""


def test_glue_system_map_order_ignores_string_hashing():
    src = os.path.dirname(os.path.dirname(arquiver.__file__))
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _FOUR_CHAIN],
            capture_output=True, text=True, env=env, check=True)
        vkeys, akeys = json.loads(proc.stdout)
        assert vkeys == akeys == ["x", "y", "z", "w"], hashseed


_OVERLAP = """
from arglue.core import AlgebraError, linear_a
from arglue.gluing import GluingSystemSpec
tree = ["p", "q", "r", "s", "t"]
edges = [("p", "r", "2", "2"), ("q", "r", "2", "2"),
         ("s", "p", "2", "2"), ("s", "t", "2", "2")]
try:
    GluingSystemSpec(tree, edges, {tv: linear_a(3) for tv in tree})
except AlgebraError as e:
    print(e)
"""


def test_validate_names_the_first_dependent_vertex_in_tree_order():
    # the P's into r overlap, and so do the I's out of s
    src = os.path.dirname(os.path.dirname(arquiver.__file__))
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _OVERLAP],
            capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == ("incoming abutments at r are not "
                               "independent\n"), hashseed


_SHAPES = [[(3, "out")], [(4, "in")], [(3, "out"), (3, "out"), (2, "in")],
           [(2, "in"), (3, "in"), (3, "out")]]


def _random_block(rng, pool):
    """A block for a random tree; now and then one already used, so
    that tree vertices share an algebra object as in cover windows."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    kind = rng.randrange(4)
    if kind == 0:
        A = rad2_chain(rng.randint(2, 5))
    elif kind == 1:
        A = linear_a(rng.randint(1, 4))
    elif kind == 2:
        A = starlike(rng.choice(_SHAPES))
    else:
        A = nakayama(random_acyclic_series(rng, lmax=5, dmax=4))
    pool.append(A)
    return A


def _random_system(rng, names):
    """A random gluing system on a random tree over ``names``, or None
    when some edge finds no pair of equal height that keeps the
    abutments at each tree vertex and side independent."""
    pool = []
    blocks = {tv: _random_block(rng, pool) for tv in names}
    order = list(names)
    rng.shuffle(order)
    arrows, used = [], {}
    for i in range(1, len(order)):
        a, b = order[i], rng.choice(order[:i])
        u, v = (a, b) if rng.random() < 0.5 else (b, a)
        taken_I = used.setdefault((u, "right"), set())
        taken_P = used.setdefault((v, "left"), set())
        pairs = [(I, P) for I in fx.abutments(blocks[u], "right")
                 for P in fx.abutments(blocks[v], "left")
                 if I.height == P.height and not I.support() & taken_I
                 and not P.support() & taken_P]
        if not pairs:
            return None
        I, P = rng.choice(pairs)
        taken_I.update(I.tail)
        taken_P.update(P.tail)
        arrows.append((u, v, I.anchor, P.anchor))
    return GluingSystemSpec(names, arrows, blocks)


def _overlapping(spec):
    """Whether an incoming P and an outgoing I share a vertex somewhere."""
    return any(P.support() & I.support()
               for (_, w), (_, P) in spec.edge_data.items()
               for (x, _), (I, _) in spec.edge_data.items() if x == w)


def _outcome(fold, spec, check_orders):
    try:
        L, vmaps, amaps = fold(spec, check_orders=check_orders)
    except Exception as e:   # noqa: BLE001 -- compared, not handled
        return type(e), str(e)
    return (L.to_json(), [(tv, list(m.items())) for tv, m in vmaps.items()],
            [(tv, list(m.items())) for tv, m in amaps.items()])


def test_glue_system_matches_the_per_edge_fold(monkeypatch):
    rng = random.Random(20)
    specs = [GluingSystemSpec(
        ["x", "y", "z"], [("x", "y", "2", "2"), ("y", "z", "2", "2")],
        {tv: rad2_chain(3) for tv in "xyz"})]
    while len(specs) < 121:
        n = rng.randint(2, 6)
        names = (list(range(-1, n - 1)) if len(specs) % 2
                 else [f"x{i}" for i in range(n)])
        spec = _random_system(rng, names)
        if spec is not None:
            specs.append(spec)
    # the systems that cover windows and the generator glue
    seen = []
    real = gluing.glue_system

    def recorded(spec, check_orders=True):
        seen.append(spec)
        return real(spec, check_orders)

    monkeypatch.setattr(gluing, "glue_system", recorded)
    monkeypatch.setattr(selfglue, "glue_system", recorded)
    D = double_gluing()
    wit, _ = selfglue.self_glue_witness(D, fx.trivial_fracturing(D))
    for k in (2, 3):
        selfglue.cover_window(D, wit, k)
    verifier.generate_sinks_sources(3, 2, 2)
    assert len(seen) == 3
    specs += seen
    assert sum(map(_overlapping, specs)) >= 10
    for spec in specs:
        for check_orders in (True, False):
            assert (_outcome(glue_system, spec, check_orders)
                    == _outcome(per_edge_glue_system, spec, check_orders))


def test_gluing_systems_build_one_presentation(monkeypatch):
    counts = {"inside": False, "presentations": 0, "op_algebra": 0}
    init, op_algebra, real = (BoundQuiverPresentation.__init__,
                              replab.op_algebra, gluing.glue_system)

    def counted_init(self, *args):
        counts["presentations"] += counts["inside"]
        init(self, *args)

    def counted_op(A):
        counts["op_algebra"] += counts["inside"]
        return op_algebra(A)

    def inside(*args, **kwargs):
        counts["inside"] = True
        try:
            return real(*args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(BoundQuiverPresentation, "__init__", counted_init)
    monkeypatch.setattr(replab, "op_algebra", counted_op)
    monkeypatch.setattr(gluing, "glue_system", inside)
    monkeypatch.setattr(selfglue, "glue_system", inside)
    D = double_gluing()
    wit, _ = selfglue.self_glue_witness(D, fx.trivial_fracturing(D))
    selfglue.cover_window(D, wit, 3)
    assert counts["presentations"] == 1 and counts["op_algebra"] == 0
    verifier.generate_sinks_sources(3, 3, 2)
    assert counts["presentations"] == 2 and counts["op_algebra"] == 0
    A = rad2_chain(3)
    L, vmaps, amaps = glue_system(GluingSystemSpec(["x"], [], {"x": A}))
    assert L is A and counts["presentations"] == 2
    assert vmaps == {"x": {"1": "1", "2": "2", "3": "3"}}
    assert amaps == {"x": {"a1": "a1", "a2": "a2"}}


def test_push_forward_system():
    spec = GluingSystemSpec(
        ["x", "y"], [("x", "y", "2", "2")],
        {"x": rad2_chain(3), "y": rad2_chain(3)})
    L, vmaps, amaps = glue_system(spec)
    S = replab.simple(rad2_chain(3), "1")
    M = push_forward_system(S, "y", L, vmaps, amaps)
    assert M.total_dim() == 1 and M.dim[vmaps["y"]["1"]] == 1


def test_glue_rejects_nonmatching_heights():
    A3, B3 = rad2_chain(3), rad2_chain(3)
    with pytest.raises(AlgebraError):
        glue(GluingSpec(A3, left_ab(A3, "3"), B3, right_ab(B3, "2")))
