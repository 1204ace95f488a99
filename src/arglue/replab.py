"""Exact quiver representations and the homological toolkit.

Modules over a bound quiver presentation are stored as one rational
matrix per arrow.  Projective resolutions are kept in "path
coordinates": the differential out of each cover is recorded as, per
generator, a linear combination of (block, path) basis labels of the
previous cover.  Hom complexes against any module then come straight
from evaluating that module along paths, with no equation solving.
"""

import random
from fractions import Fraction

from . import linalg
from .core import opposite as _opposite_presentation

ZERO = linalg.ZERO
ONE = linalg.ONE


class DecompositionError(RuntimeError):
    pass


class ResolutionCapError(RuntimeError):
    pass


def op_algebra(A):
    """Opposite presentation, cached and involutive on instances."""
    cached = getattr(A, "_op_cache", None)
    if cached is None:
        cached = _opposite_presentation(A)
        A._op_cache = cached
        cached._op_cache = A
    return cached


class Representation:
    def __init__(self, algebra, dim, mats, check=True):
        self.algebra = algebra
        q = algebra.quiver
        self.dim = {v: int(dim.get(v, 0)) for v in q.vertices}
        self.mats = {}
        for a, s, t in q.arrows:
            m = mats.get(a)
            if m is None:
                m = linalg.zeros(self.dim[t], self.dim[s])
            self.mats[a] = m
        self._path_cache = {}
        self._resolution = None
        if check:
            self._validate()

    def _validate(self):
        q = self.algebra.quiver
        for a, s, t in q.arrows:
            r, c = linalg.shape(self.mats[a])
            if r != self.dim[t] or (r > 0 and c != self.dim[s]):
                raise ValueError(f"matrix shape for arrow {a} does not match dims")
        for rel in self.algebra.relations:
            base = q.src[rel[0]]
            m = self.act(rel, base)
            if not linalg.is_zero_matrix(m):
                raise ValueError(f"relation {rel} does not annihilate module")

    # -- basics ----------------------------------------------------------
    def total_dim(self):
        return sum(self.dim.values())

    def dim_vector(self):
        return tuple(self.dim[v] for v in self.algebra.quiver.vertices)

    def support(self):
        return frozenset(v for v, d in self.dim.items() if d)

    def is_zero(self):
        return self.total_dim() == 0

    def act(self, path, base):
        """Matrix of the action along ``path`` starting at vertex ``base``."""
        if not path:
            return linalg.identity(self.dim[base])
        key = path
        m = self._path_cache.get(key)
        if m is None:
            q = self.algebra.quiver
            src = q.src[path[0]]
            tgt = q.tgt[path[-1]]
            # zero anywhere along the way forces the zero map (and keeps
            # matrix shapes honest: a 0-row matrix cannot carry its width)
            waypoints = [src] + [q.tgt[a] for a in path]
            if any(self.dim[w] == 0 for w in waypoints):
                m = linalg.zeros(self.dim[tgt], self.dim[src])
            else:
                m = self.mats[path[0]]
                for a in path[1:]:
                    m = linalg.matmul(self.mats[a], m)
            self._path_cache[key] = m
        return m

    def __repr__(self):
        sup = {v: d for v, d in self.dim.items() if d}
        return f"Rep({sup})"


def zero_rep(A):
    return Representation(A, {}, {}, check=False)


def simple(A, v):
    if v not in A.quiver.src and v not in set(A.quiver.vertices):
        raise ValueError(f"unknown vertex {v}")
    return Representation(A, {v: 1}, {}, check=False)


def _paths_rep(A, basis_by_vertex, step):
    """Common builder for projectives/injectives from labeled path bases.

    ``step(path, arrow)`` returns the label of the image basis path or
    None when the arrow action kills it.
    """
    dim = {v: len(b) for v, b in basis_by_vertex.items()}
    index = {v: {p: i for i, p in enumerate(b)} for v, b in basis_by_vertex.items()}
    mats = {}
    q = A.quiver
    for a, s, t in q.arrows:
        m = linalg.zeros(dim.get(t, 0), dim.get(s, 0))
        for p, col in index.get(s, {}).items():
            img = step(p, a)
            if img is not None and img in index.get(t, {}):
                m[index[t][img]][col] = ONE
        mats[a] = m
    return Representation(A, dim, mats, check=False)


def _memo(A, key, build):
    """build(), computed once per algebra A and key: for pieces that depend
    on A alone and that no caller mutates (modules are never changed after
    construction; their caches only fill)."""
    memo = getattr(A, "_memo", None)
    if memo is None:
        memo = A._memo = {}
    if key not in memo:
        memo[key] = build()
    return memo[key]


def projective(A, v):
    """P(v): basis = relation-free paths starting at v; arrows append."""
    return _memo(A, ("P", v), lambda: _projective(A, v))


def injective(A, v):
    """I(v): basis = relation-free paths ending at v; arrows strip in front."""
    return _memo(A, ("I", v), lambda: _injective(A, v))


def _projective(A, v):
    basis = {}
    for p in A.paths_from(v):
        basis.setdefault(A.path_target(p, v), []).append(p)
    for b in basis.values():
        b.sort(key=lambda p: (len(p), p))

    def step(p, a):
        return p + (a,) if A._extension_survives(p, a) else None

    return _paths_rep(A, basis, step)


def _injective(A, v):
    basis = {}
    for s, t, p in A.all_paths():
        if t == v:
            basis.setdefault(s, []).append(p)
    for b in basis.values():
        b.sort(key=lambda p: (len(p), p))

    def step(p, a):
        return p[1:] if p and p[0] == a else None

    return _paths_rep(A, basis, step)


def standard_module(A, vertex, kind):
    if vertex not in set(A.quiver.vertices):
        raise ValueError(f"unknown vertex {vertex}")
    if kind == "projective":
        return projective(A, vertex)
    if kind == "injective":
        return injective(A, vertex)
    if kind == "simple":
        return simple(A, vertex)
    raise ValueError(f"unknown kind {kind}")


def dual(M):
    """Standard duality: a module over the opposite presentation."""
    B = op_algebra(M.algebra)
    mats = {a: linalg.transpose(M.mats[a]) for a in M.mats}
    return Representation(B, dict(M.dim), mats, check=False)


def direct_sum(A, reps):
    reps = [r for r in reps if not r.is_zero()] or []
    dim = {v: sum(r.dim[v] for r in reps) for v in A.quiver.vertices}
    mats = {}
    for a, s, t in A.quiver.arrows:
        m = linalg.zeros(dim[t], dim[s])
        ro = co = 0
        for r in reps:
            blk = r.mats[a]
            for i in range(r.dim[t]):
                for j in range(r.dim[s]):
                    if blk[i][j]:
                        m[ro + i][co + j] = blk[i][j]
            ro += r.dim[t]
            co += r.dim[s]
        mats[a] = m
    return Representation(A, dim, mats, check=False)


# -- morphisms ---------------------------------------------------------

class Morphism:
    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = mats  # vertex -> matrix dim(target_v) x dim(source_v)

    def compose(self, other):
        """self after other (other: X->Y, self: Y->Z)."""
        mats = {}
        for v in self.mats:
            rows = self.target.dim[v]
            mid = self.source.dim[v]
            cols = other.source.dim[v]
            if rows == 0 or mid == 0 or cols == 0:
                mats[v] = linalg.zeros(rows, cols)
            else:
                mats[v] = linalg.matmul(self.mats[v], other.mats[v])
        return Morphism(other.source, self.target, mats)

    def is_invertible(self):
        for v, m in self.mats.items():
            r, c = linalg.shape(m)
            if r != c:
                return False
            if r and linalg.rank(m) != r:
                return False
        return True


def hom_basis(M, N):
    """Basis of Hom(M, N) by solving all naturality squares."""
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    A = M.algebra
    verts = A.quiver.vertices
    offs = {}
    total = 0
    for v in verts:
        offs[v] = total
        total += N.dim[v] * M.dim[v]
    if total == 0:
        return []
    rows = []
    for a, s, t in A.quiver.arrows:
        Ma, Na = M.mats[a], N.mats[a]
        # equation: f_t * Ma - Na * f_s = 0  (dim N_t x dim M_s entries)
        for i in range(N.dim[t]):
            for j in range(M.dim[s]):
                row = [ZERO] * total
                # (f_t * Ma)[i][j] = sum_k f_t[i][k] Ma[k][j]
                for k in range(M.dim[t]):
                    if Ma[k][j]:
                        row[offs[t] + i * M.dim[t] + k] += Ma[k][j]
                # (Na * f_s)[i][j] = sum_k Na[i][k] f_s[k][j]
                for k in range(N.dim[s]):
                    if Na[i][k]:
                        row[offs[s] + k * M.dim[s] + j] -= Na[i][k]
                if any(row):
                    rows.append(row)
    if rows:
        sols = linalg.nullspace(rows)
    else:
        sols = linalg.nullspace([[ZERO] * total])
    out = []
    for sol in sols:
        mats = {}
        for v in verts:
            m = linalg.zeros(N.dim[v], M.dim[v])
            for i in range(N.dim[v]):
                for j in range(M.dim[v]):
                    m[i][j] = sol[offs[v] + i * M.dim[v] + j]
            mats[v] = m
        out.append(Morphism(M, N, mats))
    return out


def is_isomorphic(M, N, seed=1729, tries=30):
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        return False
    if M.dim != N.dim:
        return False
    if M.total_dim() == 0:
        return True
    basis = hom_basis(M, N)
    if not basis:
        return False
    for f in basis:
        if f.is_invertible():
            return True
    if len(basis) == 1:
        return False
    rng = random.Random(seed)
    verts = M.algebra.quiver.vertices
    for _ in range(tries):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        mats = {}
        for v in verts:
            m = linalg.zeros(N.dim[v], M.dim[v])
            for c, f in zip(coeffs, basis):
                if c:
                    m = linalg.matadd(m, linalg.scale(f.mats[v], c))
            mats[v] = m
        if Morphism(M, N, mats).is_invertible():
            return True
    return False


# -- radical / top / covers --------------------------------------------

def radical_columns(M):
    """Per vertex: an independent set of columns spanning rad(M)_v."""
    out = {}
    for v in M.algebra.quiver.vertices:
        cols = []
        if M.dim[v] == 0:
            out[v] = cols
            continue
        for a in M.algebra.quiver.inc[v]:
            cols.extend(linalg.transpose(M.mats[a]))
        if cols:
            _, basis = linalg.column_space_basis(
                linalg.columns_to_matrix(cols, M.dim[v]))
        else:
            basis = []
        out[v] = basis
    return out


def top_generators(M):
    """Generators of M as (vertex, coordinate-index) with standard vectors
    completing rad(M)_v to M_v."""
    gens = []
    rad = radical_columns(M)
    for v in M.algebra.quiver.vertices:
        if M.dim[v] == 0:
            continue
        chosen, _ = linalg.complement_basis(rad[v], M.dim[v])
        for i in chosen:
            gens.append((v, i))
    return gens


class LabeledProjective:
    """Direct sum of projectives P(w_j) with (block, path) labeled basis."""

    def __init__(self, A, blocks):
        self.algebra = A
        self.blocks = list(blocks)
        self.basis = {v: [] for v in A.quiver.vertices}
        for j, w in enumerate(self.blocks):
            for p in sorted(A.paths_from(w), key=lambda p: (len(p), p)):
                self.basis[A.path_target(p, w)].append((j, p))
        self.index = {v: {lab: i for i, lab in enumerate(b)}
                      for v, b in self.basis.items()}
        dim = {v: len(b) for v, b in self.basis.items()}
        mats = {}
        for a, s, t in A.quiver.arrows:
            m = linalg.zeros(dim[t], dim[s])
            for (j, p), col in self.index[s].items():
                if A._extension_survives(p, a):
                    m[self.index[t][(j, p + (a,))]][col] = ONE
            mats[a] = m
        self.rep = Representation(A, dim, mats, check=False)


# labeled projectives kept per algebra before the store starts afresh
_LP_MEMO_SIZE = 64


def _labeled_projective(A, blocks):
    """LabeledProjective(A, blocks), shared between covers of different
    modules with the same block list.  The store is emptied when full:
    deep resolutions over cyclic algebras meet ever new block lists, and
    their labeled projectives are large."""
    blocks = tuple(blocks)
    store = getattr(A, "_lp_memo", None)
    if store is None or len(store) >= _LP_MEMO_SIZE:
        store = A._lp_memo = {}
    P = store.get(blocks)
    if P is None:
        P = store[blocks] = LabeledProjective(A, blocks)
    return P


def cover_data(M):
    """Minimal projective cover of M with labels, plus the kernel.

    Returns (P: LabeledProjective, gens, K: Representation, E) where E
    maps each vertex to the embedding matrix of K_v into P_v (columns in
    P's labeled coordinates).
    """
    A = M.algebra
    gens = top_generators(M)
    P = _labeled_projective(A, [v for v, _ in gens])
    # kernel of the cover map, vertex by vertex
    E = {}
    kdim = {}
    for x in A.quiver.vertices:
        if P.rep.dim[x] == 0:
            cols = []
        elif M.dim[x] == 0:
            cols = linalg.transpose(linalg.identity(P.rep.dim[x]))
        else:
            # cover map at x: labeled path (j, p) goes to p times generator j
            pi = linalg.zeros(M.dim[x], P.rep.dim[x])
            for col, (j, p) in enumerate(P.basis[x]):
                w, idx = gens[j]
                vec_matrix = M.act(p, w)  # M_w -> M_x
                for i in range(M.dim[x]):
                    if vec_matrix[i][idx]:
                        pi[i][col] = vec_matrix[i][idx]
            cols = linalg.nullspace(pi)
        E[x] = linalg.columns_to_matrix(cols, P.rep.dim[x])
        kdim[x] = len(cols)
    kmats = {}
    for a, s, t in A.quiver.arrows:
        if kdim[s] == 0 or P.rep.dim[t] == 0:
            kmats[a] = linalg.zeros(kdim[t], kdim[s])
            continue
        rhs = linalg.matmul(P.rep.mats[a], E[s])
        sol = linalg.solve(E[t], rhs) if kdim[t] else linalg.zeros(0, kdim[s])
        if sol is None:
            raise RuntimeError("kernel is not a subrepresentation (bug)")
        kmats[a] = sol
    K = Representation(A, kdim, kmats, check=False)
    return P, gens, K, E


# -- minimal projective resolutions in path coordinates -----------------

class Resolution:
    """Lazy minimal projective resolution of a module.

    ``levels[i]`` is (blocks, pathmat): blocks are the cover vertices of
    the i-th syzygy, and for i >= 1 pathmat[j] expresses the image of
    generator j as {(block_of_level_{i-1}, path): coefficient}.
    """

    def __init__(self, M):
        self.module = M
        self.levels = []
        self.finished = False
        self._state = None  # (K, E, prev LabeledProjective)
        self._step0()

    def _step0(self):
        M = self.module
        if M.is_zero():
            self.finished = True
            return
        P, gens, K, E = cover_data(M)
        self.levels.append(([v for v, _ in gens], None))
        self._state = (K, E, P)

    def extend_to(self, depth, cap=32):
        while len(self.levels) <= depth and not self.finished:
            if len(self.levels) > cap:
                raise ResolutionCapError(
                    f"projective resolution exceeds cap {cap}")
            K, E, Pprev = self._state
            if K.is_zero():
                self.finished = True
                return
            gens = top_generators(K)
            pathmat = []
            for w, idx in gens:
                col = [E[w][r][idx] for r in range(len(E[w]))]
                entry = {}
                for r, c in enumerate(col):
                    if c:
                        entry[Pprev.basis[w][r]] = c
                pathmat.append(entry)
            P, gens2, K2, E2 = cover_data(K)
            # cover_data recomputes generators; order matches top_generators
            if gens2 != gens:
                raise RuntimeError(
                    "cover generators differ from the top generators (bug)")
            self.levels.append(([v for v, _ in gens], pathmat))
            self._state = (K2, E2, P)

    def blocks(self, i):
        return self.levels[i][0] if i < len(self.levels) else []


def resolution_of(M):
    if M._resolution is None:
        M._resolution = Resolution(M)
    return M._resolution


def _hom_space_dim(blocks, N):
    return sum(N.dim[v] for v in blocks)


def _differential(res, i, N):
    """Matrix of Hom(P_{i-1}, N) -> Hom(P_i, N), i >= 1."""
    blocks_prev = res.blocks(i - 1)
    if i >= len(res.levels):
        return linalg.zeros(0, _hom_space_dim(blocks_prev, N))
    blocks, pathmat = res.levels[i]
    rows = _hom_space_dim(blocks, N)
    cols = _hom_space_dim(blocks_prev, N)
    out = linalg.zeros(rows, cols)
    roffs = []
    o = 0
    for v in blocks:
        roffs.append(o)
        o += N.dim[v]
    coffs = []
    o = 0
    for v in blocks_prev:
        coffs.append(o)
        o += N.dim[v]
    for j, entry in enumerate(pathmat):
        vj = blocks[j]
        for (jprev, p), c in entry.items():
            w = blocks_prev[jprev]
            act = N.act(p, w)  # N_w -> N_{vj}
            for r in range(N.dim[vj]):
                for s in range(N.dim[w]):
                    if act[r][s]:
                        out[roffs[j] + r][coffs[jprev] + s] += c * act[r][s]
    return out


def hom_dim(M, N):
    """dim Hom(M, N) via the start of the Hom complex (no solving)."""
    if M.is_zero() or N.is_zero():
        return 0
    res = resolution_of(M)
    res.extend_to(1)
    d0 = _differential(res, 1, N)
    cols = _hom_space_dim(res.blocks(0), N)
    return cols - linalg.rank(d0)


def ext_dim(M, N, i, cap=32):
    """dim Ext^i(M, N) from the minimal projective resolution of M."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return hom_dim(M, N)
    if M.is_zero() or N.is_zero():
        return 0
    res = resolution_of(M)
    res.extend_to(i + 1, cap=cap)
    if i >= len(res.levels):
        return 0
    d_i = _differential(res, i + 1, N)
    d_prev = _differential(res, i, N)
    dim_i = _hom_space_dim(res.blocks(i), N)
    return (dim_i - linalg.rank(d_i)) - linalg.rank(d_prev)


# -- syzygies -----------------------------------------------------------

def _syzygy_once(M):
    if M.is_zero():
        return M
    _, _, K, _ = cover_data(M)
    return K


def syzygy(M, direction, steps):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return M
    if direction == "+":
        cur = M
    elif direction == "-":
        cur = dual(M)  # the cosyzygy is D Omega D; the inner D D cancel
    else:
        raise ValueError("direction must be '+' or '-'")
    for _ in range(steps):
        cur = _syzygy_once(cur)
    return cur if direction == "+" else dual(cur)


# -- transpose and AR translation ---------------------------------------

def transpose_module(M):
    """Tr(M) over the opposite algebra, from the minimal presentation."""
    A = M.algebra
    B = op_algebra(A)
    if M.is_zero():
        return zero_rep(B)
    res = resolution_of(M)
    res.extend_to(1)
    blocks0 = res.blocks(0)
    if len(res.levels) < 2:
        return zero_rep(B)  # projective module
    blocks1, pathmat = res.levels[1]
    Q = _labeled_projective(B, blocks1)
    # generator images of g: (+)P^op(w_i) -> Q, e_{w_i} -> sum c * (j, rev p)
    gen_vecs = []
    for i, w in enumerate(blocks0):
        vec = [ZERO] * Q.rep.dim[w]
        for j, entry in enumerate(pathmat):
            for (iprev, p), c in entry.items():
                if iprev == i:
                    vec[Q.index[w][(j, tuple(reversed(p)))]] += c
        gen_vecs.append((w, vec))
    # full matrices of g per vertex: domain basis = (i, q) op-paths from w_i
    D = _labeled_projective(B, blocks0)
    g = {}
    for x in B.quiver.vertices:
        m = linalg.zeros(Q.rep.dim[x], D.rep.dim[x])
        for col, (i, q) in enumerate(D.basis[x]):
            w, vec = gen_vecs[i]
            act = Q.rep.act(q, w)  # Q_w -> Q_x over B
            for r in range(Q.rep.dim[x]):
                s = ZERO
                for kk in range(Q.rep.dim[w]):
                    if act[r][kk] and vec[kk]:
                        s += act[r][kk] * vec[kk]
                m[r][col] = s
        g[x] = m
    # cokernel of g as a quotient representation of Q
    sel = {}
    proj = {}
    qdim = {}
    for x in B.quiver.vertices:
        n = Q.rep.dim[x]
        _, im_cols = linalg.column_space_basis(g[x])
        chosen, T = linalg.complement_basis(im_cols, n)
        qdim[x] = len(chosen)
        sel[x] = chosen
        if n:
            Tinv = linalg.invert(T)
            proj[x] = [Tinv[len(im_cols) + r] for r in range(len(chosen))]
        else:
            proj[x] = []
    mats = {}
    for a, s, t in B.quiver.arrows:
        m = linalg.zeros(qdim[t], qdim[s])
        if qdim[s] and qdim[t]:
            incl = linalg.zeros(Q.rep.dim[s], qdim[s])
            for c, i in enumerate(sel[s]):
                incl[i][c] = ONE
            mid = linalg.matmul(Q.rep.mats[a], incl)
            m = linalg.matmul(proj[t], mid)
        mats[a] = m
    return Representation(B, qdim, mats, check=False)


def ar_translate(M, direction):
    if direction == "+":
        return dual(transpose_module(M))
    if direction == "-":
        return transpose_module(dual(M))
    raise ValueError("direction must be '+' or '-'")


def tau_n(M, n, direction):
    if n < 1:
        raise ValueError("n must be >= 1")
    if direction == "-":
        # Tr D (D Omega^(n-1) D M), with the middle D D cancelled
        return transpose_module(syzygy(dual(M), "+", n - 1))
    return ar_translate(syzygy(M, direction, n - 1), direction)


# -- decomposition ------------------------------------------------------

def subrepresentation(M, cols_by_vertex):
    """Abstract representation on a subspace given by embedding columns."""
    A = M.algebra
    dim = {v: len(cols_by_vertex.get(v, [])) for v in A.quiver.vertices}
    E = {v: linalg.columns_to_matrix(cols_by_vertex.get(v, []), M.dim[v])
         for v in A.quiver.vertices}
    mats = {}
    for a, s, t in A.quiver.arrows:
        if dim[s] == 0 or M.dim[t] == 0:
            mats[a] = linalg.zeros(dim[t], dim[s])
            continue
        rhs = linalg.matmul(M.mats[a], E[s])
        sol = linalg.solve(E[t], rhs) if dim[t] else (
            linalg.zeros(0, dim[s]) if linalg.is_zero_matrix(rhs) else None)
        if sol is None:
            raise ValueError("columns do not span a subrepresentation")
        mats[a] = sol
    return Representation(A, dim, mats, check=False)


def _endo_power(f, n):
    mats = {v: linalg.copy_matrix(m) for v, m in f.mats.items()}
    result = mats
    # binary powering per vertex
    out = {}
    for v, m in mats.items():
        r, _ = linalg.shape(m)
        acc = linalg.identity(r)
        base = m
        e = n
        while e:
            if e & 1:
                acc = linalg.matmul(acc, base)
            base = linalg.matmul(base, base)
            e >>= 1
        out[v] = acc
    return out


def _try_split(M, endo):
    n = M.total_dim()
    pw = _endo_power(endo, n)
    kcols = {}
    icols = {}
    kdim = 0
    for v in M.algebra.quiver.vertices:
        if M.dim[v] == 0:
            kcols[v] = []
            icols[v] = []
            continue
        kcols[v] = linalg.nullspace(pw[v])
        _, icols[v] = linalg.column_space_basis(pw[v])
        kdim += len(kcols[v])
    if kdim == 0 or kdim == n:
        return None
    return subrepresentation(M, kcols), subrepresentation(M, icols)


def _split_candidates(M, endos, seed):
    """Endomorphisms to try in turn: the basis, its pairwise sums, then 60
    seeded random combinations, each built only when reached."""
    yield from endos
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            yield Morphism(M, M, {
                v: linalg.matadd(endos[i].mats[v], endos[j].mats[v])
                for v in endos[i].mats})
    rng = random.Random(seed)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in endos]
        mats = {}
        for v in M.algebra.quiver.vertices:
            m = linalg.zeros(M.dim[v], M.dim[v])
            for c, f in zip(coeffs, endos):
                if c:
                    m = linalg.matadd(m, linalg.scale(f.mats[v], c))
            mats[v] = m
        yield Morphism(M, M, mats)


def decompose(M, seed=1729):
    """List of indecomposable summands (with repetition) by Fitting splits."""
    if M.is_zero():
        return []
    endos = hom_basis(M, M)
    if len(endos) == 1:
        return [M]
    for endo in _split_candidates(M, endos, seed):
        split = _try_split(M, endo)
        if split is not None:
            k, im = split
            return decompose(k, seed=seed) + decompose(im, seed=seed)
    raise DecompositionError(
        "Fitting decomposition failed: endomorphism ring resists splitting")


def decompose_with_multiplicity(M, seed=1729):
    parts = decompose(M, seed=seed)
    out = []
    for p in parts:
        for i, (q, mult) in enumerate(out):
            if is_isomorphic(p, q, seed=seed):
                out[i] = (q, mult + 1)
                break
        else:
            out.append((p, 1))
    return out


def rep_to_json(M):
    """Dump format: dimension vector plus matrices of rational strings."""
    dims = {v: d for v, d in M.dim.items() if d}
    mats = {}
    for a, m in M.mats.items():
        if m and any(x for row in m for x in row):
            mats[a] = [[str(x) for x in row] for row in m]
    return {"dims": dims, "mats": mats}


def rep_from_json(A, doc):
    dims = {str(v): int(d) for v, d in doc.get("dims", {}).items()}
    mats = {}
    for a, m in doc.get("mats", {}).items():
        mats[str(a)] = [[Fraction(x) for x in row] for row in m]
    return Representation(A, dims, mats, check=True)


def uniserial_modules(A):
    """All indecomposables of a Nakayama algebra (chain or cycle)."""
    q = A.quiver
    if any(len(q.out[v]) > 1 or len(q.inc[v]) > 1 for v in q.vertices):
        raise ValueError("not a Nakayama quiver")
    mods = []
    for v in sorted(q.vertices):
        for path in sorted(A.paths_from(v), key=len):
            mods.append(_uniserial(A, v, path))
    return mods


def _uniserial(A, v, path):
    """Uniserial module with top S(v) and radical layers along ``path``."""
    q = A.quiver
    verts = [v]
    for a in path:
        verts.append(q.tgt[a])
    pos_at = {}
    for j, w in enumerate(verts):
        pos_at.setdefault(w, []).append(j)
    dims = {w: len(ps) for w, ps in pos_at.items()}
    mats = {}
    for a, s, t in q.arrows:
        if s in pos_at and t in pos_at:
            m = [[0 * linalg.ONE] * dims[s] for _ in range(dims[t])]
            for j, arr in enumerate(path):
                if arr == a:
                    m[pos_at[t].index(j + 1)][pos_at[s].index(j)] = linalg.ONE
            mats[a] = m
    return Representation(A, dims, mats, check=True)
