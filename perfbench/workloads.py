"""The three benchmark workloads.

Each workload turns a seed into a list of *rounds*.  A round is a short
list of item specs drawn so that every round has the same cost profile:
one draw from each cost stratum of the workload's input population, in a
seeded order.  A run measures the workload's first ``rounds_per_run``
rounds, so two seeds send the program the same mix of cheap and
expensive items and differ only in which members of each stratum they
draw, and a run's inputs do not depend on how fast the program is.

Item specs are plain tuples; the program builds its algebras from them
inside the timed region.  ``run`` calls the program; ``check`` compares
its answer with an independent reference: a closed form, an identity the
answer must satisfy, or a second criterion that must agree.
"""

import contextlib
import io
import itertools


def _strata(population, cost, sizes):
    """Consecutive slices of ``population`` ranked by ``cost``, with the
    given sizes (which must add up to the population)."""
    ranked = sorted(population, key=cost)
    if sum(sizes) != len(ranked):
        raise ValueError("strata sizes do not cover the population")
    out, start = [], 0
    for size in sizes:
        out.append(ranked[start:start + size])
        start += size
    return out


def _equal_sizes(total, count):
    size, extra = divmod(total, count)
    return [size + (i < extra) for i in range(count)]


def _stratified_rounds(rng, strata, rounds, fixed=()):
    """Each round: one member of every stratum plus the ``fixed`` specs,
    shuffled.  A stratum is drawn without replacement until exhausted."""
    pools = [[] for _ in strata]
    out = []
    for _ in range(rounds):
        items = list(fixed)
        for i, stratum in enumerate(strata):
            if not pools[i]:
                pools[i] = list(stratum)
                rng.shuffle(pools[i])
            items.append(pools[i].pop())
        rng.shuffle(items)
        out.append(items)
    return out


def _acyclic_series(rng, length, dmax):
    """Random valid non-cyclic Kupisch series of the given length."""
    d = [rng.randint(2, dmax) for _ in range(length - 1)] + [1]
    for i in range(length - 2, -1, -1):
        if d[i] - 1 > d[i + 1]:
            d[i] = d[i + 1] + 1
    return tuple(d)


# -- starlike-sweep ------------------------------------------------------

class StarlikeSweep:
    """Criterion-02 traffic: the representation-finite starlike shapes,
    each checked at levels 2..5 against the closed-form classifier.
    Build-heavy: most time goes to translate orbits and decompositions."""

    name = "starlike-sweep"
    strata = 16
    rounds_per_run = 4
    levels = range(2, 6)

    def generate(self, m, rng, rounds):
        opts = [(k, d) for k in range(2, 10) for d in ("out", "in")]
        shapes = [tuple(c) for k in (1, 3, 4)
                  for c in itertools.combinations_with_replacement(opts, k)]
        finite = [s for s in shapes if m.verifier.starlike_rep_finite(s)]
        # cost grows with the vertex count, then with the number of arms
        strata = _strata(finite, lambda s: (sum(k for k, _ in s), len(s), s),
                         _equal_sizes(len(finite), self.strata))
        return _stratified_rounds(rng, strata, rounds)

    def run(self, m, rays):
        A = m.core.starlike(rays)
        ind = m.arquiver.indecomposables(A, cap=1024)
        return [m.verifier.check_nct(
            A, m.verifier.tau_orbit_candidate(A, n, cap=1024), n,
            indecs=ind).verdict for n in self.levels]

    def check(self, m, rays, verdicts):
        return verdicts == [m.verifier.starlike_classify(rays, n)[0]
                            for n in self.levels]


# -- ar-knit -------------------------------------------------------------

class ARKnit:
    """AR quivers of acyclic Nakayama algebras with roughly 50-150
    nodes, including the relation-free linear A_h.  Exercises the
    rad/rad^2 Hom-composition loop of ``ar_quiver``."""

    name = "ar-knit"
    rounds_per_run = 1
    # every round knits all of these, so that seeds differ only in the
    # random series; the cost of A_h grows steeply with h
    linear_heights = (10, 11, 12)
    # node-count bands of the random Nakayama algebras in one round.  The
    # cost of a quiver grows as about the 1.6th power of its node count,
    # so narrow bands keep the seeds' costs close
    bands = tuple((lo, lo + 4) for lo in range(50, 131, 5))

    def _series_in_band(self, rng, lo, hi):
        """A random acyclic Kupisch series whose entries add up to at
        least a node count drawn from [lo, hi], and to less than its
        largest entry more, built from its last entry back."""
        dmax = rng.randint(3, 7)
        target = rng.randint(lo, hi)
        d = [1]
        while sum(d) < target:
            d.append(min(rng.randint(2, dmax), d[-1] + 1))
        return tuple(reversed(d))

    def generate(self, m, rng, rounds):
        out = []
        for _ in range(rounds):
            items = [("linear", h) for h in self.linear_heights]
            items += [("nakayama", self._series_in_band(rng, lo, hi))
                      for lo, hi in self.bands]
            rng.shuffle(items)
            out.append(items)
        return out

    def run(self, m, spec):
        kind, arg = spec
        if kind == "linear":
            A = m.core.linear_a(arg)
        else:
            A = m.core.nakayama(m.core.KupischSeries(arg))
        return m.arquiver.ar_quiver(A)

    def check(self, m, spec, ar):
        kind, arg = spec
        # the Kupisch series of A_h is h, h-1, ..., 1
        nodes = arg * (arg + 1) // 2 if kind == "linear" else sum(arg)
        if ar.node_count() != nodes:
            return False
        if m.arquiver.verify_mesh_identity(ar):
            return False
        # A_h has h(h-1) irreducible maps, all of multiplicity one
        return kind != "linear" or sum(ar.arrows.values()) == arg * (arg - 1)


# -- glued-nct -----------------------------------------------------------

def _kupisch_pipeline(m):
    """Criterion 03: n = 3 candidate of a Nakayama algebra, folded."""
    A = m.core.nakayama(m.core.KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
    M = m.verifier.tau_orbit_candidate(A, 3)
    before = m.verifier.check_nct(A, M, 3).verdict
    wit, _ = m.selfglue.self_glue_witness(A, m.fracture.trivial_fracturing(A))
    rep, sg, pushed = m.selfglue.tilde_nct(A, wit, M.modules, 3)
    return before and rep.verdict, len(pushed), \
        len(sg.presentation.quiver.vertices)


def _folding_example(m):
    """Criterion 07: a fractured n = 2 subcategory, folded."""
    Q = m.core.Quiver(
        ["1", "2", "3", "4", "5", "6", "7", "8", "1p", "2p"],
        [("c1", "1", "2"), ("c2", "2", "3"), ("c3", "3", "4"),
         ("c4", "4", "5"), ("c5", "5", "6"), ("c6", "6", "7"),
         ("c7", "7", "8"), ("b1", "1p", "2p"), ("b2", "2p", "6")])
    A = m.core.BoundQuiverPresentation(
        Q, [("c1", "c2", "c3"), ("c2", "c3", "c4"), ("c4", "c5"),
            ("b1", "b2"), ("c5", "c6"), ("b2", "c6")])
    fx = m.fracture
    T = fx.IntervalSet(3, [(1, 3), (1, 2), (2, 2)])
    fr = fx.Fracturing(A, {"6": T}, {"3": T, "2p": fx.injective_intervals(2)})
    supports = [{"6", "7", "8"}, {"7"}, {"6", "7"}, {"2p", "6"}, {"5", "6"},
                {"2p", "5", "6"}, {"4", "5"}, {"1p", "2p"}, {"3", "4", "5"},
                {"4"}, {"1p"}, {"2", "3", "4"}, {"1", "2", "3"}, {"2"},
                {"1", "2"}]
    ind = m.arquiver.indecomposables(A)
    M = m.verifier.Subcategory(
        A, [next(X for X in ind if X.support() == frozenset(s))
            for s in supports])
    before = m.verifier.check_fractured(A, fr, M, 2).verdict
    wit, _ = m.selfglue.self_glue_witness(A, fr)
    rep, sg, pushed = m.selfglue.tilde_nct(A, wit, M.modules, 2)
    return before and rep.verdict, len(pushed), \
        len(sg.presentation.quiver.vertices)


def _double_gluing(m):
    """Criterion 11: two opposite three-ray stars glued along two seams,
    then folded onto themselves."""
    SA = m.core.starlike([(4, "out"), (4, "out"), (3, "in")])
    SB = m.core.starlike([(4, "in"), (4, "in"), (3, "out")])

    def ab(A, side, anchor):
        return next(x for x in m.fracture.abutments(A, side)
                    if x.anchor == anchor and x.height == 1)

    pairs = [(ab(SA, "left", a), ab(SB, "right", a)) for a in ("4_1", "4_2")]
    D = m.selfglue.simultaneous_glue(SA, SB, pairs).presentation
    M = m.verifier.tau_orbit_candidate(D, 3)
    before = m.verifier.check_nct(D, M, 3).verdict
    wit, _ = m.selfglue.self_glue_witness(D, m.fracture.trivial_fracturing(D))
    rep, sg, pushed = m.selfglue.tilde_nct(D, wit, M.modules, 3)
    return before and rep.verdict, len(pushed), \
        len(sg.presentation.quiver.vertices)


class GluedNCT:
    """Glued and folded algebras: the sinks/sources generator through the
    command line, the three fold pipelines of criteria 03, 07 and 11, and
    fractured-versus-NCT verdicts on glued Nakayama algebras.  The only
    workload that reaches gluing, selfglue, fracture and cli; Ext queries
    over a fixed candidate set dominate."""

    name = "glued-nct"
    rounds_per_run = 1
    # generator points reach past criterion 10's 4 x 4 x 3 grid
    generator_points = [(s, t, n) for s in range(1, 6) for t in range(1, 6)
                        for n in range(2, 5)]
    # strata shrink towards the expensive end; the last holds only the
    # largest algebra, which sets the memory peak, so every round has it
    generator_strata = (30, 20, 13, 8, 3, 1)
    # three glued Nakayama inputs per series length in every round; these
    # many cheap items put the median item inside a dense cost range
    fractured_lengths = tuple(range(4, 16)) * 3
    levels = range(2, 5)
    # fold name -> (pushed module count, folded vertex count); None where
    # the criterion states no count
    folds = {"kupisch": (10, None), "figure": (12, None),
             "double": (None, 15)}

    def generate(self, m, rng, rounds):
        gen = _strata(self.generator_points,
                      lambda p: ((p[0] + p[1]) * p[2] ** 2, p),
                      self.generator_strata)
        # glued Nakayama inputs: a series, and which maximal left
        # abutment absorbs a linear chain; cost grows with the length
        frac = [[("fractured", _acyclic_series(rng, length, 4),
                  rng.randrange(1 << 16)) for _ in range(8)]
                for length in self.fractured_lengths]
        strata = [[("generate",) + p for p in s] for s in gen] + frac
        fixed = [("fold", name) for name in self.folds]
        return _stratified_rounds(rng, strata, rounds, fixed)

    def run(self, m, spec):
        kind = spec[0]
        if kind == "generate":
            _, s, t, n = spec
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code, report = m.cli.run(
                    ["generate", "-s", str(s), "-t", str(t), "-n", str(n)])
            return code, report.data["verdicts"], out.getvalue()
        if kind == "fold":
            return {"kupisch": _kupisch_pipeline, "figure": _folding_example,
                    "double": _double_gluing}[spec[1]](m)
        _, series, pick = spec
        fx = m.fracture
        A = m.core.nakayama(m.core.KupischSeries(series))
        maximal = [ab for ab in fx.abutments(A, "left") if ab.maximal]
        P = maximal[pick % len(maximal)]
        H = m.core.linear_a(P.height)
        I = next(ab for ab in fx.abutments(H, "right")
                 if ab.height == P.height)
        G = m.gluing.glue(m.gluing.GluingSpec(A, P, H, I)).presentation
        ind = m.arquiver.indecomposables(G)
        fr = fx.trivial_fracturing(G)
        out = []
        for n in self.levels:
            M = m.verifier.tau_orbit_candidate(G, n)
            out.append((m.verifier.check_nct(G, M, n, indecs=ind).verdict,
                        m.verifier.check_fractured(G, fr, M, n).verdict))
        return out

    def check(self, m, spec, result):
        kind = spec[0]
        if kind == "generate":
            _, s, t, n = spec
            code, verdicts, text = result
            return (code == 0 and verdicts.get("sources") == s
                    and verdicts.get("sinks") == t
                    and verdicts.get("verdict") is True
                    and f"sources: {s}\n" in text and f"sinks: {t}\n" in text)
        if kind == "fold":
            ok, pushed, vertices = result
            want_pushed, want_vertices = self.folds[spec[1]]
            return (ok and want_pushed in (None, pushed)
                    and want_vertices in (None, vertices))
        # the fractured criterion must agree with the direct NCT check
        return all(nct == fractured for nct, fractured in result)


WORKLOADS = {w.name: w for w in (StarlikeSweep(), ARKnit(), GluedNCT())}
