"""The benchmark's workloads: inputs from a seed, timed passes, known answers.

Each workload has a ``setup(seed, quick)`` that builds the inputs, a
``parts(inputs)`` list of callables that together make one timed pass,
each storing its results under record names in the ``observed`` dict it is
given, and an ``expected(inputs, quick)`` table of known answers for those
records.  bench/run.py times each pass as a whole.  A pass in which a part
raises keeps the records already stored; the missing ones count as failed.
``quick`` selects a genus-2 (or small) variant for the benchmark's own
wiring tests.

The program is called through module attributes (``builders.build_U``,
``homology.cohen_macaulay_check``, ...) so that the tracing wrappers see
the calls.
"""

from __future__ import annotations

import random

from symposet import builders, homology, posets, trees
from symposet.rings import PrimeField
from symposet.symplectic import SymplecticModule

F2, F3 = PrimeField(2), PrimeField(3)


def _verdict(v):
    return (v.status, v.basis)


def _sweep(v):
    return (v.status, v.basis, v.detail.get("links_checked"))


class LargeG3:
    """Big complexes: the tree-forget map TD -> D+ and O(g, F3).

    Its set-up carries the genus-g builders D+ (strict), TD and O(g, F3).
    """

    name = "large-g3"
    setup_reps = 2  # each set-up takes about ten seconds at genus 3

    def setup(self, seed, quick):
        g = 2 if quick else 3
        L = SymplecticModule.standard(F2, g)
        DP = builders.build_D(L, strict=True)
        forget = trees.tree_forget_map(L, trees.build_TD(L, DP), DP)
        cylinder, _, _ = posets.mapping_cylinder(forget)
        return {"forget": forget, "n": cylinder.dim(),
                "O": builders.build_O(g, F3), "d": g - 2}

    def parts(self, inputs):
        forget, O = inputs["forget"], inputs["O"]

        def forget_map(observed):
            observed["D+.elements"] = len(forget.target)
            observed["TD.elements"] = len(forget.source)
            observed["forget.connectivity"] = _verdict(
                homology.map_connectivity(forget, inputs["n"]))

        def partial_bases(observed):
            observed["O.elements"] = len(O)
            observed["O.connectivity"] = _verdict(
                homology.homologically_connected(O, inputs["d"]))

        return [forget_map, partial_bases]

    def expected(self, inputs, quick):
        if quick:
            return {"D+.elements": 10, "TD.elements": 10, "O.elements": 56,
                    "forget.connectivity": ("verified", "homology+pi1"),
                    "O.connectivity": ("verified", "homology-only")}
        return {"D+.elements": 1456, "TD.elements": 4816, "O.elements": 11882,
                "forget.connectivity": ("verified", "homology+pi1"),
                "O.connectivity": ("verified", "homology+pi1")}


class LinksG3:
    """The Cohen-Macaulay link sweep over U (genus g) and I (genus g-1,
    radical 1): many tiny, mostly empty links.  Its set-up carries the
    builders of U and I."""

    name = "links-g3"
    setup_reps = 3

    def setup(self, seed, quick):
        g = 2 if quick else 3
        U = builders.build_U(SymplecticModule.standard(F2, g))
        I = builders.build_I(SymplecticModule.standard(F2, g - 1, r=1))
        return {"g": g, "U": U, "I": I}

    def parts(self, inputs):
        g, U, I = inputs["g"], inputs["U"], inputs["I"]

        def unimodular(observed):
            observed["U.elements"] = len(U)
            observed["U.cm"] = _sweep(homology.cohen_macaulay_check(U, g))

        def isotropic(observed):
            observed["I.elements"] = len(I)
            observed["I.cm"] = _sweep(homology.cohen_macaulay_check(I, g - 2))

        return [unimodular, isotropic]

    def expected(self, inputs, quick):
        if quick:
            return {"U.elements": 22, "I.elements": 6,
                    "U.cm": ("verified", "homology-only", 86),
                    "I.cm": ("verified", "homology-only", 13)}
        return {"U.elements": 674, "I.elements": 390,
                "U.cm": ("verified", "homology-only", 9414),
                "I.cm": ("verified", "homology-only", 1501)}


def _chains(P):
    """Number of nonempty chains of P: the simplices of its order complex."""
    up = {}
    for x in reversed(P.linear_extension()):
        up[x] = 1 + sum(up[y] for y in P.above(x))
    return sum(up.values())


class RandomProps:
    """Four homotopy identities on seeded random pairs, drawn until their
    posets hold a fixed number of simplices."""

    name = "random-props"
    setup_reps = 9  # each set-up takes about a tenth of a second
    # pairs are drawn until their posets hold pass_simplices simplices, so
    # every seed does about the same work; a pair whose posets hold more
    # than max_pair_simplices is skipped, so that work is a sum of many
    # comparable pieces rather than a few heavy-tailed ones
    max_pair_simplices = 4_000
    pass_simplices = 100_000
    quick_pass_simplices = 2_000

    def setup(self, seed, quick):
        rng = random.Random(seed)
        target = self.quick_pass_simplices if quick else self.pass_simplices
        pairs, total = [], 0
        while total < target:
            # the size and density choices of the core-props suite
            X = posets.random_poset(rng, rng.randint(1, 8),
                                    p=rng.choice((0.15, 0.3, 0.5)))
            Yraw = posets.random_poset(rng, rng.randint(1, 8),
                                       p=rng.choice((0.15, 0.3, 0.5)))
            Y = posets.FinitePoset([("q", y) for y in Yraw.elements],
                                   [(("q", a), ("q", b))
                                    for a, b in Yraw.relation_pairs()])
            f = posets.random_monotone_map(rng, X, Y)
            P = X if len(pairs) % 2 else Y
            size = sum(_chains(Q) for Q in (
                posets.thick_join(X, Y), posets.join(X, Y),
                posets.mapping_cylinder(f)[0], Y,
                posets.barycentric_subdivision(P), P))
            if size <= self.max_pair_simplices:
                pairs.append((X, Y, f, P))
                total += size
        return {"pairs": pairs}

    def parts(self, inputs):
        return [lambda observed, i=i, pair=pair: self.check(i, pair, observed)
                for i, pair in enumerate(inputs["pairs"])]

    @staticmethod
    def check(i, pair, observed):
        X, Y, f, P = pair
        betti = lambda Q: homology.reduced_homology(Q).betti
        observed[f"{i}.join"] = (betti(posets.thick_join(X, Y))
                                 == betti(posets.join(X, Y)))
        M, _, _ = posets.mapping_cylinder(f)
        observed[f"{i}.cylinder"] = betti(M) == betti(Y)
        observed[f"{i}.cylinder-links"] = all(
            posets.cylinder_link_check(f, y) for y in Y)
        observed[f"{i}.subdivision"] = (
            betti(posets.barycentric_subdivision(P)) == betti(P))

    def expected(self, inputs, quick):
        return {f"{i}.{k}": True for i in range(len(inputs["pairs"]))
                for k in ("join", "cylinder", "cylinder-links", "subdivision")}


WORKLOADS = {w.name: w for w in (LargeG3(), LinksG3(), RandomProps())}

# layers each workload must reach, checked by the wiring self-test
HITS = {
    "large-g3": ["builders.build_D", "builders.build_O", "trees.build_TD",
                 "trees.tree_forget_map", "symplectic.contains_submodule",
                 "symplectic.intersect", "linalg.rref_with_transform",
                 "posets.mapping_cylinder",
                 "posets.mapping_cone", "complexes.order_complex",
                 "complexes.boundary_rows", "complexes.relative_boundary_rows",
                 "snf.smith_invariants", "homology.map_connectivity",
                 "homology.homologically_connected",
                 "homology.reduced_homology", "homology.relative_homology",
                 "pi1.pi1_probe", "pi1.edge_path_presentation",
                 "pi1.tietze_reduce"],
    "links-g3": ["builders.build_U", "builders.build_I",
                 "symplectic.contains_submodule", "linalg.rref_with_transform",
                 "homology.cohen_macaulay_check",
                 "homology.homology_spherical", "posets.induced",
                 "homology.reduced_homology", "complexes.order_complex",
                 "complexes.boundary_rows", "complexes.dd_zero_check",
                 "snf.smith_invariants"],
    "random-props": ["posets.thick_join", "posets.barycentric_subdivision",
                     "posets.mapping_cylinder", "posets.induced",
                     "homology.reduced_homology", "complexes.order_complex",
                     "complexes.boundary_rows", "complexes.dd_zero_check",
                     "snf.smith_invariants"],
}
