"""Abutments, foundations, interval-coded tilting modules and fracturings.

An abutment is an indecomposable projective (left) or injective (right)
that is uniserial along a relation-free linearly oriented tail of the
quiver.  Tilting modules over the linearly oriented A_h quiver are kept
as multisets of intervals (a, b), the support of the uniserial module in
tail coordinates.
"""

from itertools import combinations

from . import arquiver, replab
from .core import AlgebraError, linear_a


class Abutment:
    def __init__(self, side, anchor, tail, maximal=False):
        self.side = side            # 'left' | 'right'
        self.anchor = anchor
        self.tail = list(tail)      # in arrow direction
        self.height = len(tail)
        self.maximal = maximal

    def support(self):
        return frozenset(self.tail)

    def __repr__(self):
        return (f"Abutment({self.side}, anchor={self.anchor}, "
                f"tail={self.tail}, maximal={self.maximal})")

    def __eq__(self, other):
        return (isinstance(other, Abutment) and self.side == other.side
                and self.tail == other.tail)

    def __hash__(self):
        return hash((self.side, tuple(self.tail)))


def _left_tail_from(A, v):
    """Walk the relation-free uniserial chain of P(v); None if invalid."""
    q = A.quiver
    tail = [v]
    arrows = []
    cur = v
    while q.out[cur]:
        if len(q.out[cur]) > 1:
            return None
        a = q.out[cur][0]
        nxt = q.tgt[a]
        if nxt in tail:
            return None
        # interior chain vertices may receive nothing except the chain arrow
        if len(q.inc[nxt]) != 1:
            return None
        # the chain so far is relation-free: only a relation ending in a
        # can appear
        if not A._extension_survives(tuple(arrows), a):
            return None
        arrows.append(a)
        tail.append(nxt)
        cur = nxt
    return tail


def abutments(A, side):
    """All abutments of one side in anchor order, with maximality flags:
    one tuple per algebra and side, built once and shared by every
    caller, so nothing may change its abutments."""
    return _table(A, side)[0]


def abutment_at(A, side, anchor):
    """The abutment of that side anchored at vertex ``anchor``, or None;
    a vertex anchors at most one abutment per side."""
    return _table(A, side)[1].get(anchor)


def maximal_abutments(A, side):
    """{anchor: abutment} of the maximal abutments of that side."""
    return {ab.anchor: ab for ab in abutments(A, side) if ab.maximal}


def _table(A, side):
    """(abutments in anchor order, {anchor: abutment}) of one side, kept
    on A.  A right abutment of A is a left one of its opposite algebra,
    read backwards, so each side's tails are walked once."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    def build():
        if side == "right":
            found = tuple(Abutment("right", ab.anchor, ab.tail[::-1],
                                   ab.maximal)
                          for ab in abutments(replab.op_algebra(A), "left"))
        else:
            tails = [_left_tail_from(A, v) for v in sorted(A.quiver.vertices)]
            tails = [t for t in tails if t is not None]
            supports = [frozenset(t) for t in tails]
            found = tuple(Abutment("left", t[0], t,
                                   not any(s < other for other in supports))
                          for t, s in zip(tails, supports))
        return found, {ab.anchor: ab for ab in found}

    return replab._memo(A, ("abutments", side), build)


def independent(abutment_list):
    sides = {ab.side for ab in abutment_list}
    if len(sides) > 1:
        raise ValueError("abutments of mixed sides")
    for x, y in combinations(abutment_list, 2):
        if x.support() & y.support():
            return False
    return True


def abutment_leq(P, W):
    """P <= W: same side, support containment."""
    return P.side == W.side and P.support() <= W.support()


class IntervalSet:
    """Multiset of intervals (a, b), 1 <= a <= b <= h."""

    def __init__(self, h, intervals):
        self.h = int(h)
        ivs = []
        for a, b in intervals:
            a, b = int(a), int(b)
            if not (1 <= a <= b <= self.h):
                raise ValueError(f"interval ({a},{b}) outside 1..{self.h}")
            ivs.append((a, b))
        self.intervals = tuple(sorted(ivs))

    def __eq__(self, other):
        return (isinstance(other, IntervalSet) and self.h == other.h
                and self.intervals == other.intervals)

    def __hash__(self):
        return hash((self.h, self.intervals))

    def __repr__(self):
        return f"IntervalSet(h={self.h}, {list(self.intervals)})"


def interval_module(A, tail, a, b):
    """Uniserial module supported on tail[a-1..b-1] (identity maps)."""
    dims = {tail[i]: 1 for i in range(a - 1, b)}
    mats = {}
    q = A.quiver
    for i in range(a - 1, b - 1):
        s, t = tail[i], tail[i + 1]
        for ar in q.out[s]:
            if q.tgt[ar] == t:
                mats[ar] = [[replab.ONE]]
    return replab.Representation(A, dims, mats, check=True)


def _ext1_interval(x, y, h):
    """Ext^1((a,b), (c,d)) over linearly oriented A_h (1 -> 2 -> ... -> h).

    From the projective resolution 0 -> P(b+1) -> P(a) -> [a,b] -> 0:
    nonzero exactly when a < c <= b+1 <= d.
    """
    a, b = x
    c, d = y
    return b < h and a < c <= b + 1 <= d


def tilting_modules(h):
    """All tilting modules over linearly oriented A_h, as interval sets."""
    if h < 1:
        raise ValueError("h must be >= 1")
    intervals = [(a, b) for a in range(1, h + 1) for b in range(a, h + 1)]
    out = []

    def compatible(iv, chosen):
        for other in chosen:
            if _ext1_interval(iv, other, h) or _ext1_interval(other, iv, h):
                return False
        return True

    def backtrack(start, chosen):
        if len(chosen) == h:
            out.append(IntervalSet(h, chosen))
            return
        remaining = len(intervals) - start
        if remaining < h - len(chosen):
            return
        for i in range(start, len(intervals)):
            iv = intervals[i]
            if compatible(iv, chosen):
                chosen.append(iv)
                backtrack(i + 1, chosen)
                chosen.pop()

    backtrack(0, [])
    return out


def is_tilting(T):
    """Multiplicity-free, h members, pairwise Ext^1-rigid."""
    if len(T.intervals) != T.h:
        return False
    if len(set(T.intervals)) != T.h:
        return False
    for x in T.intervals:
        for y in T.intervals:
            if _ext1_interval(x, y, T.h):
                return False
    return True


def is_mirrored(T):
    """Invariance under the reflection (a, b) -> (h+1-b, h+1-a)."""
    reflected = sorted((T.h + 1 - b, T.h + 1 - a) for a, b in T.intervals)
    return tuple(reflected) == T.intervals


def verify_tilting_by_ext(T):
    """Independent re-check on an actual A_h presentation."""
    A = linear_a(T.h)
    tail = [str(i) for i in range(1, T.h + 1)]
    mods = [interval_module(A, tail, a, b) for a, b in T.intervals]
    for X in mods:
        for Y in mods:
            if replab.ext_dim(X, Y, 1) != 0:
                return False
    return True


def foundation(A, ab, ardata):
    """The h(h+1)/2 interval modules of the abutment's triangle, as a dict
    (a, b) -> id of the matching node of the AR data."""
    index = arquiver._IsoIndex([node.rep for node in ardata.nodes],
                               dedupe=False)
    out = {}
    for a in range(1, ab.height + 1):
        for b in range(a, ab.height + 1):
            i = index.find(interval_module(A, ab.tail, a, b))
            if i is None:
                raise AlgebraError(
                    f"foundation module ({a},{b}) missing from AR data")
            out[(a, b)] = ardata.nodes[i].id
    return out


class Fracturing:
    """A fracture (tilting interval set) for each maximal abutment."""

    def __init__(self, A, left, right):
        self.algebra = A
        self.left = dict(left)    # anchor vertex -> IntervalSet
        self.right = dict(right)
        maxleft = maximal_abutments(A, "left")
        maxright = maximal_abutments(A, "right")
        for anchors, given, side in ((maxleft, self.left, "left"),
                                     (maxright, self.right, "right")):
            if set(anchors) != set(given):
                raise AlgebraError(
                    f"{side} fracturing must cover exactly the maximal "
                    f"abutments {sorted(anchors)}; got {sorted(given)}")
            for anchor, T in given.items():
                if T.h != anchors[anchor].height:
                    raise AlgebraError(
                        f"fracture at {anchor} has height {T.h}, abutment "
                        f"has height {anchors[anchor].height}")
                if not is_tilting(T):
                    raise AlgebraError(f"fracture at {anchor} is not tilting")
        self.max_left = maxleft
        self.max_right = maxright


def trivial_fracturing(A):
    """(Lambda, D(Lambda)): projective left fractures, injective right ones."""
    left = {anchor: projective_intervals(ab.height)
            for anchor, ab in maximal_abutments(A, "left").items()}
    right = {anchor: injective_intervals(ab.height)
             for anchor, ab in maximal_abutments(A, "right").items()}
    return Fracturing(A, left, right)


def projective_intervals(h):
    return IntervalSet(h, [(a, h) for a in range(1, h + 1)])


def injective_intervals(h):
    return IntervalSet(h, [(1, b) for b in range(1, h + 1)])


def _tail_position(P, W):
    """1-based position of the sub-abutment inside its maximal abutment."""
    if not abutment_leq(P, W):
        raise AlgebraError(f"{P} is not <= {W}")
    if P.side == "left":
        k = W.tail.index(P.tail[0]) + 1
        if W.tail[k - 1:] != P.tail:
            raise AlgebraError("left sub-abutment tail mismatch")
        return k
    m = W.tail.index(P.tail[-1]) + 1
    if W.tail[:m] != P.tail:
        raise AlgebraError("right sub-abutment tail mismatch")
    return m


def nonprojective_part_in_sub_triangle(T, P, W):
    """underline(T) lies in the foundation triangle of P <= W (left side)."""
    k = _tail_position(P, W)
    return all(a >= k for a, b in T.intervals if b < T.h)


def noninjective_part_in_sub_triangle(T, I, J):
    """overline(T) lies in the foundation triangle of I <= J (right side)."""
    m = _tail_position(I, J)
    return all(b <= m for a, b in T.intervals if a > 1)


def restrict_fracture(T, P, W):
    """Intervals of T lying in the sub-triangle of P <= W, re-coordinatized."""
    if P.side == "left":
        k = _tail_position(P, W)
        ivs = [(a - k + 1, b - k + 1) for a, b in T.intervals if a >= k]
        return IntervalSet(T.h - k + 1, ivs)
    m = _tail_position(P, W)
    ivs = [(a, b) for a, b in T.intervals if b <= m]
    return IntervalSet(m, ivs)


def maximal_above(fr, ab):
    """The maximal abutment of ``fr``'s algebra on ab's side that contains
    ab (unique, since overlapping abutment tails nest), or None."""
    maxima = fr.max_left if ab.side == "left" else fr.max_right
    return next((W for W in maxima.values() if abutment_leq(ab, W)), None)


def compatibility(frA, frB, P, I):
    """Can a left abutment P of frA's algebra glue onto a right abutment I
    of frB's?  None if so, otherwise the reason.

    With W >= P and J >= I the maximal abutments, the fracture T_W must
    have its non-projective part in F_P, T_J its non-injective part in
    G_I, and the two restricted fractures must agree.
    """
    W, J = maximal_above(frA, P), maximal_above(frB, I)
    if W is None or J is None:
        return "abutment not under a maximal one"
    TW, TJ = frA.left[W.anchor], frB.right[J.anchor]
    if not nonprojective_part_in_sub_triangle(TW, P, W):
        return "nonprojective part of the left fracture leaves F_P"
    if not noninjective_part_in_sub_triangle(TJ, I, J):
        return "noninjective part of the right fracture leaves G_I"
    TP, TI = restrict_fracture(TW, P, W), restrict_fracture(TJ, I, J)
    if TP != TI:
        return f"restricted fractures differ: {TP} vs {TI}"
    return None


def compatible_pair(fr, W, J, P, I):
    """Self-gluing compatibility of (P <= W, I <= J); (verdict, reason)."""
    if not (W.side == "left" and W.maximal):
        return False, "W is not a maximal left abutment"
    if not (J.side == "right" and J.maximal):
        return False, "J is not a maximal right abutment"
    if not abutment_leq(P, W):
        return False, "P is not a sub-abutment of W"
    if not abutment_leq(I, J):
        return False, "I is not a sub-abutment of J"
    why = compatibility(fr, fr, P, I)
    return why is None, why or "compatible"
