import json
import os
import subprocess
import sys

import pytest

from arglue import arquiver
from arglue import fracture as fx
from arglue import replab
from arglue.core import (AlgebraError, KupischSeries, kupisch_of, linear_a,
                         rename_presentation)
from arglue.gluing import (GluingSpec, GluingSystemSpec, ar_isomorphic, glue,
                           glue_ar, glue_fracturings, glue_system,
                           push_forward, push_forward_system)
from conftest import branched_ten, chain_four, left_ab, rad2_chain, right_ab


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
