"""Property-based invariants over randomly generated inputs."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arglue import arquiver
from arglue import fracture as fx
from arglue import linalg, replab
from arglue.core import (KupischSeries, kupisch_of, linear_a, nakayama,
                         opposite)
from arglue.gluing import GluingSpec, glue
from conftest import random_acyclic_series, random_cyclic_series

SLOW = settings(max_examples=25, deadline=None)


@st.composite
def acyclic_series(draw, lmax=8):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_acyclic_series(random.Random(seed), lmax=lmax)


@st.composite
def cyclic_series(draw, lmax=8):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_cyclic_series(random.Random(seed), lmax=lmax)


@SLOW
@given(acyclic_series())
def test_acyclic_round_trip_and_count(s):
    A = nakayama(s)
    assert kupisch_of(A) == s
    ind = arquiver.indecomposables(A)
    assert len(ind) == sum(s.entries)
    assert len(replab.uniserial_modules(A)) == sum(s.entries)


@SLOW
@given(cyclic_series())
def test_cyclic_round_trip_and_count(s):
    A = nakayama(s)
    assert kupisch_of(A) == s.normalized()
    assert len(arquiver.indecomposables(A)) == sum(s.entries)


@SLOW
@given(acyclic_series(lmax=7))
def test_mesh_identity_everywhere(s):
    A = nakayama(s)
    ar = arquiver.ar_quiver(A)
    assert arquiver.verify_mesh_identity(ar) == []


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 5))
def test_every_enumerated_tilting_module_is_ext_rigid(h):
    for T in fx.tilting_modules(h):
        assert fx.is_tilting(T)
        assert fx.verify_tilting_by_ext(T)


@SLOW
@given(acyclic_series(lmax=6), st.integers(0, 2**32 - 1))
def test_trivial_gluing_preserves_counts(s, seed):
    B = nakayama(s)
    if sum(s.entries) <= 1:
        return
    rng = random.Random(seed)
    Is = [ab for ab in fx.abutments(B, "right") if ab.maximal]
    I = rng.choice(Is)
    H = linear_a(I.height)
    P = next(ab for ab in fx.abutments(H, "left") if ab.height == I.height)
    L = glue(GluingSpec(H, P, B, I)).presentation
    assert len(arquiver.indecomposables(L)) \
        == len(arquiver.indecomposables(B))


@SLOW
@given(acyclic_series(lmax=6), acyclic_series(lmax=6),
       st.integers(0, 2**32 - 1))
def test_gluing_count_identity(sa, sb, seed):
    """|ind| of the glued algebra is |ind A| + |ind B| minus the triangle
    of modules supported on the identified seam."""
    A, B = nakayama(sa), nakayama(sb)
    rng = random.Random(seed)
    Ps = [ab for ab in fx.abutments(A, "left") if ab.maximal]
    P = rng.choice(Ps)
    Is = [ab for ab in fx.abutments(B, "right")
          if ab.maximal and ab.height == P.height]
    if not Is:
        return
    I = rng.choice(Is)
    L = glue(GluingSpec(A, P, B, I)).presentation
    h = P.height
    assert len(arquiver.indecomposables(L)) \
        == (len(arquiver.indecomposables(A))
            + len(arquiver.indecomposables(B)) - h * (h + 1) // 2)


@SLOW
@given(acyclic_series(lmax=7))
def test_opposite_swaps_abutment_sides(s):
    A = nakayama(s)
    B = opposite(A)
    left = sorted(len(ab.tail) for ab in fx.abutments(A, "left"))
    right_op = sorted(len(ab.tail) for ab in fx.abutments(B, "right"))
    assert left == right_op
    assert len(arquiver.indecomposables(A)) \
        == len(arquiver.indecomposables(B))


def _greedy_complement(cols, dim):
    """Reference: try each standard vector in turn, keep it when it raises
    the rank."""
    chosen, current = [], list(cols)
    for i in range(dim):
        e = [linalg.ONE if j == i else linalg.ZERO for j in range(dim)]
        if (linalg.rank(linalg.columns_to_matrix(current + [e], dim))
                > len(current)):
            chosen.append(i)
            current.append(e)
    return chosen, linalg.columns_to_matrix(current, dim)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_complement_basis_matches_greedy_rank_choice(dim, k, seed):
    rng = random.Random(seed)
    cols = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            for _ in range(k)]
    if cols:
        _, cols = linalg.column_space_basis(
            linalg.columns_to_matrix(cols, dim))
    assert linalg.complement_basis(cols, dim) == _greedy_complement(cols, dim)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_invert_exactly_when_full_rank(n, repeat, seed):
    rng = random.Random(seed)
    a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    if repeat and n > 1:
        a[-1] = list(a[0])
    x = linalg.invert(a)
    assert (x is None) == (linalg.rank(a) < n)
    if x is not None:
        unit = linalg.identity(n)
        assert linalg.matmul(a, x) == unit == linalg.matmul(x, a)
