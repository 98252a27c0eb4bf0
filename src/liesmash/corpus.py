"""Named Lie algebras used by the examples, the self-check and the test-suite."""

from __future__ import annotations

from .exactnum import GaussianRational
from .lie import LieAlgebra


def abelian(k: int) -> LieAlgebra:
    return LieAlgebra([f"e{i + 1}" for i in range(k)], {})


def heisenberg() -> LieAlgebra:
    """3-dimensional Heisenberg algebra, [e1, e2] = e3."""
    return LieAlgebra(["e1", "e2", "e3"], {(0, 1): {2: GaussianRational(1)}})


def solv2() -> LieAlgebra:
    """2-dimensional solvable non-nilpotent algebra, [e1, e2] = e2."""
    return LieAlgebra(["e1", "e2"], {(0, 1): {1: GaussianRational(1)}})


def filiform4() -> LieAlgebra:
    """4-dimensional filiform nilpotent: [e1,e2]=e3, [e1,e3]=e4."""
    return LieAlgebra(
        ["e1", "e2", "e3", "e4"],
        {(0, 1): {2: GaussianRational(1)}, (0, 2): {3: GaussianRational(1)}})


def upper_triangular3() -> LieAlgebra:
    """Upper triangular 3x3 matrices; brackets computed from matrix units."""
    units = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    names = [f"E{i + 1}{j + 1}" for i, j in units]
    index = {u: k for k, u in enumerate(units)}

    def bracket(u, v):
        # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
        out = {}
        (a, b), (c, d) = u, v
        if b == c:
            out[(a, d)] = out.get((a, d), 0) + 1
        if d == a:
            out[(c, b)] = out.get((c, b), 0) - 1
        return {k: v2 for k, v2 in out.items() if v2}

    table = {}
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            comps = {}
            for u, c in bracket(units[i], units[j]).items():
                comps[index[u]] = GaussianRational(c)
            if comps:
                table[(i, j)] = comps
    return LieAlgebra(names, table)


CORPUS = {
    "abelian1": lambda: abelian(1),
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "abelian4": lambda: abelian(4),
    "heisenberg": heisenberg,
    "solv2": solv2,
    "filiform4": filiform4,
    "uppertri3": upper_triangular3,
}
