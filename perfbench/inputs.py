"""Seeded benchmark inputs, generated without liesmash.

Gaussian rationals are (re, im) pairs of Fractions here, so that the inputs
handed to liesmash never depend on the code being measured.  The files are
written in liesmash's Lie algebra JSON format and its coefficient syntax.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

DATA_DIR = "data"
CORPUS = ("abelian2", "solv2", "heisenberg", "filiform4", "uppertri3")
MAX_SUM_DIM = 5


def load_source(name: str) -> dict:
    with open(os.path.join(DATA_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- Gaussian rationals as (re, im) Fraction pairs ---------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _parse(text: str):
    """The coefficient strings of data/*.json: rationals, optionally with i."""
    text = text.replace(" ", "")
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1].rstrip("*")
    cut = max(body.rfind("+"), body.rfind("-"))
    re_part, im_part = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    im_part = {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)
    return (Fraction(re_part), Fraction(im_part))


def _fmt(z) -> str:
    re, im = z
    if im == 0:
        return str(re)
    return f"{re}+{im}*i" if im > 0 else f"{re}-{-im}*i"


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _inverse(mat):
    """Inverse by Gauss-Jordan elimination."""
    n = len(mat)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != ZERO)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _div(ONE, aug[col][col])
        aug[col] = [_mul(inv, v) for v in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != ZERO:
                aug[r] = [_add(a, _mul((-f[0], -f[1]), b))
                          for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- structure constants -----------------------------------------------------

def structure(data: dict):
    """(names, {(i, j): {k: coeff}}) with i < j, from the JSON format."""
    names = list(data["basis"])
    index = {n: i for i, n in enumerate(names)}
    table = {}
    for entry in data.get("brackets", []):
        i, j = index[entry["x"]], index[entry["y"]]
        table[(i, j)] = {index[k]: _parse(c) for k, c in entry["value"]}
    return names, table


def direct_sum(first: dict, second: dict) -> dict:
    """g1 + g2 with basis a1.., b1.. and no brackets between the summands."""
    n1, t1 = structure(first)
    n2, t2 = structure(second)
    off = len(n1)
    table = dict(t1)
    for (i, j), comps in t2.items():
        table[(i + off, j + off)] = {k + off: c for k, c in comps.items()}
    names = [f"a{i + 1}" for i in range(off)] + \
            [f"b{i + 1}" for i in range(len(n2))]
    return to_json(names, table)


def to_json(names, table) -> dict:
    brackets = []
    for (i, j) in sorted(table):
        comps = {k: c for k, c in table[(i, j)].items() if c != ZERO}
        if comps:
            brackets.append({"x": names[i], "y": names[j],
                             "value": [[names[k], _fmt(c)]
                                       for k, c in sorted(comps.items())]})
    return {"dim": len(names), "basis": names, "brackets": brackets}


_SCALARS = [(Fraction(a), Fraction(b)) for a, b in
            ((1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (1, 1))] + \
           [(Fraction(1, 2), Fraction(0)), (Fraction(-1, 3), Fraction(0)),
            (Fraction(1, 2), Fraction(-1, 2)), (Fraction(2, 3), Fraction(1))]


def random_basis_change(n: int, rng: random.Random):
    """(P, P^-1) for a random invertible Gaussian-rational n x n matrix.

    P is a scaled permutation followed by n row operations row_i += c row_j
    (i != j), all with small nonzero Gaussian-rational scalars, so P is
    invertible and the copies mix basis vectors without blowing up the
    coefficient sizes.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[rng.choice(_SCALARS) if j == perm[i] else ZERO for j in range(n)]
           for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(_SCALARS)
        mat[i] = [_add(a, _mul(c, b)) for a, b in zip(mat[i], mat[j])]
    return mat, _inverse(mat)


def change_basis(data: dict, mat, inv) -> dict:
    """The same algebra on the basis f_i = sum_a mat[i][a] e_a.

    [f_i, f_k] = sum_{a,b} mat[i][a] mat[k][b] [e_a, e_b], and e_c is
    sum_l inv[c][l] f_l, so the result is an isomorphic copy.
    """
    _, table = structure(data)
    n = len(mat)
    full = {}
    for (a, b), comps in table.items():
        full[(a, b)] = comps
        full[(b, a)] = {k: (-c[0], -c[1]) for k, c in comps.items()}
    out = {}
    for i in range(n):
        for k in range(i + 1, n):
            in_e = [ZERO] * n
            for (a, b), comps in full.items():
                coef = _mul(mat[i][a], mat[k][b])
                if coef == ZERO:
                    continue
                for c, v in comps.items():
                    in_e[c] = _add(in_e[c], _mul(coef, v))
            in_f = {}
            for c, v in enumerate(in_e):
                if v == ZERO:
                    continue
                for l in range(n):
                    in_f[l] = _add(in_f.get(l, ZERO), _mul(v, inv[c][l]))
            out[(i, k)] = in_f
    return to_json([f"f{i + 1}" for i in range(n)], out)


def basis_sources() -> dict:
    """Corpus algebras and the direct sums of two of them up to dimension 5."""
    single = {name: load_source(name) for name in CORPUS}
    sources = dict(single)
    for x, first in enumerate(CORPUS):
        for second in CORPUS[x:]:
            if single[first]["dim"] + single[second]["dim"] <= MAX_SUM_DIM:
                sources[f"{first}+{second}"] = direct_sum(single[first],
                                                          single[second])
    return sources


def random_bases(seed: int, per_source: int, out_dir: str, names):
    """Write `per_source` seeded isomorphic copies of each named source, in
    a seeded order; returns [(path, source)]."""
    rng = random.Random(seed)
    sources = basis_sources()
    order = sorted(names) * per_source
    rng.shuffle(order)
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for idx, name in enumerate(order):
        data = sources[name]
        mat, inv = random_basis_change(data["dim"], rng)
        path = os.path.join(out_dir, f"copy{idx:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(change_basis(data, mat, inv), fh)
        jobs.append((path, name))
    return jobs


def probe_matrices(seed: int, count: int, dim: int):
    """Basis-change matrices as coefficient strings, for the rref probe."""
    rng = random.Random(seed)
    return [[[_fmt(z) for z in row]
             for row in random_basis_change(dim, rng)[0]]
            for _ in range(count)]
