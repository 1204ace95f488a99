"""Module-by-module computations that the enumeration record replaced,
kept as the tests' references: each recomputes from the modules what
``arquiver``'s record and ``verifier``'s table walks read off.
"""

from arglue import arquiver, linalg, replab
from arglue.verifier import Subcategory


def radical_arrows(reps):
    """Irreducible-map multiplicities {(i, j): dim rad - dim rad^2} between
    pairwise non-isomorphic bricks, in sorted (i, j) order.

    rad(X, Y) = Hom(X, Y) here, and rad^2(X, Y) is spanned by the
    composites of Hom bases through every third node.
    """
    n = len(reps)
    homdims = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                d = replab.hom_dim(reps[i], reps[j])
                if d:
                    homdims[(i, j)] = d
    hom_bases = {}
    arrows = {}
    for (i, j), d in sorted(homdims.items()):
        vecs = []
        for k in range(n):
            if k == i or k == j:
                continue
            if (i, k) in homdims and (k, j) in homdims:
                if (i, k) not in hom_bases:
                    hom_bases[(i, k)] = replab.hom_basis(reps[i], reps[k])
                if (k, j) not in hom_bases:
                    hom_bases[(k, j)] = replab.hom_basis(reps[k], reps[j])
                for f in hom_bases[(i, k)]:
                    for g in hom_bases[(k, j)]:
                        comp = g.compose(f)
                        vec = []
                        # a vertex off either support adds no entries
                        for v in reps[i].algebra.quiver.vertices:
                            for row in comp.mats.get(v, ()):
                                vec.extend(row)
                        vecs.append(vec)
        rad2 = linalg.rank(vecs) if vecs else 0
        mult = d - rad2
        if mult:
            arrows[(i, j)] = mult
    return arrows


def translate_each(A, reps):
    """(tau_minus, projective) of a complete list of indecomposables,
    found by translating each module once and looking every image and
    every P(v) up in the list."""
    index = arquiver._IsoIndex(reps, dedupe=False)
    tau_minus = []
    for rep in reps:
        T = replab.ar_translate(rep, "-")
        j = None
        if not T.is_zero():
            j = index.find(T)
            assert j is not None, "tau image left the list"
        tau_minus.append(j)
    projective = {}
    for v in A.quiver.vertices:
        i = index.find(replab.projective(A, v))
        if i is not None:
            projective[v] = i
    return tau_minus, projective


def loop_candidate(A, n, cap=4096):
    """The orbit candidate for n >= 2 by translating and decomposing each
    member: the closure of the sorted P(v) under tau_n^-."""
    index = arquiver._IsoIndex(
        replab.projective(A, v) for v in sorted(A.quiver.vertices))
    out = index.reps
    # the queue is the member list itself, each member translated once
    for M in out:
        T = replab.tau_n(M, n, "-")
        if T.is_zero():
            continue
        for part in replab.decompose(T):
            if index.find(part) is None:
                if len(out) >= cap:
                    raise arquiver.EnumerationError(
                        f"orbit candidate exceeded cap {cap}")
                index.add(part)
    return Subcategory(A, out, dedupe=False)


def _is_indecomposable(M):
    if M.is_zero():
        return False
    return len(replab.decompose(M)) == 1


class ModuleSteps:
    """The steps of ``check_fractured`` on modules: a translate or a
    (co)syzygy gives the one indecomposable it yields, or None.  Patched
    in for ``verifier._NodeSteps``, it makes the check compute and
    decompose every translate and (co)syzygy itself."""

    def __init__(self, record, n):
        self.n = n

    def handles(self, modules):
        return modules

    def finder(self, modules):
        return arquiver._IsoIndex(modules, dedupe=False).find

    def translate(self, X, direction):
        T = replab.tau_n(X, self.n, direction)
        return T if _is_indecomposable(T) else None

    def inverts(self, T, X, direction):
        """Whether the translate of T in ``direction`` is X."""
        back = replab.tau_n(T, self.n, direction)
        return not back.is_zero() and replab.is_isomorphic(back, X)

    def syzygy(self, X, direction):
        S = replab.syzygy(X, direction, 1)
        return S if _is_indecomposable(S) else None


def eager_levels(M, depth, cap=32):
    """``Resolution.levels`` of M up to ``depth``, built with the kernel of
    every cover taken together with the cover."""
    levels = []
    if M.is_zero():
        return levels
    P, gens = replab.cover_data(M)
    K, E = replab._cover_kernel(M, P, gens)
    levels.append(([v for v, _ in gens], None))
    while len(levels) <= depth:
        if len(levels) > cap:
            raise replab.ResolutionCapError(
                f"projective resolution exceeds cap {cap}")
        if K.is_zero():
            break
        Pprev = P
        P, gens = replab.cover_data(K)
        K2, E2 = replab._cover_kernel(K, P, gens)
        pathmat = []
        for w, idx in gens:
            col = [E[w][r][idx] for r in range(len(E[w]))]
            entry = {}
            for r, c in enumerate(col):
                if c:
                    entry[Pprev.basis[w][r]] = c
            pathmat.append(entry)
        levels.append(([v for v, _ in gens], pathmat))
        K, E = K2, E2
    return levels
