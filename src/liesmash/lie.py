"""Exact structure theory of finite-dimensional complex Lie algebras.

Covers structure-constant algebras over the Gaussian rationals, canonical
subspaces, the two radicals used by the decomposition pipeline, the lower
central series of a subquotient top/bottom of g and its adapted bases, both
in g's own coordinates, and the construction of the iterated semidirect
chain with its per-factor weights and one-variable factor labels.

Brackets run on adjoint rows built once per algebra from the structure
constants (de Graaf, Lie Algebras: Theory and Algorithms, 2000, ch. 1).
The chain's brackets in chain coordinates (chain_bracket_matrix) come from
one inverse of the chain-vector matrix per model, and the prefix-ideal
property is read off that table.  The smash is built from it
(adjoint_action_matrices); its commutators are checked against brackets
computed in g, not against the table.  Both index the chain's generators
by position; factor names are for display only.
"""

from __future__ import annotations

from . import weights as weight_mod
from .errors import InputError, PreconditionError, VerificationError
from .exactnum import GaussianRational, ONE, ZERO
from .linalg import (Vector, in_span, inverse, pivot_columns, reduce_mod,
                     rref, unit_vector)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of the coordinate space of a LieAlgebra, in canonical RREF,
    with the rows' pivot columns, which every reduction modulo it reads."""

    def __init__(self, parent: "LieAlgebra", rows):
        self.parent = parent
        self.rows = rref(rows)
        self.pivots = pivot_columns(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, x: Vector) -> bool:
        return in_span(self.rows, self.pivots, x)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def basis_strings(self) -> list[str]:
        """Rows as coordinate-vector strings, echelon order."""
        return ["(" + ", ".join(str(c) for c in row) + ")" for row in self.rows]

    def combo_strings(self) -> list[str]:
        names = self.parent.basis_names
        out = []
        for row in self.rows:
            terms = []
            for c, name in zip(row, names):
                if not c:
                    continue
                if c == ONE:
                    terms.append(name)
                else:
                    terms.append(f"({c})*{name}")
            out.append(" + ".join(terms) if terms else "0")
        return out

    def __repr__(self):
        return f"Subspace(dim={self.dim}, rows={self.basis_strings()})"


def _until_stable(first: Subspace, step) -> list[Subspace]:
    """The series first, step(first), ... up to the first term that step
    leaves as it is."""
    terms = [first]
    while (nxt := step(terms[-1])) != terms[-1]:
        terms.append(nxt)
    return terms


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}
_MISSING = object()     # a field the file leaves out


def _check_file_shape(data) -> None:
    """Refuse a loaded Lie algebra file whose shape is not

        {"dim": <integer>, "basis": [<string>, ...],
         "brackets": [{"x": <string>, "y": <string>,
                       "value": [[<string>, <coefficient>], ...]}, ...]}

    ("brackets" may be left out) with an InputError naming the first field
    out of shape.  Coefficients are checked where they are parsed."""
    def want(where, kind, value, holds):
        if not holds:
            got = ("nothing" if value is _MISSING
                   else _JSON_KINDS.get(type(value), type(value).__name__))
            raise InputError(f"Lie algebra file: {where} must be {kind}, "
                             f"got {got}")

    want("the file", "an object", data, isinstance(data, dict))
    dim, basis = data.get("dim", _MISSING), data.get("basis", _MISSING)
    want('"dim"', "an integer", dim, type(dim) is int)
    want('"basis"', "a list", basis, isinstance(basis, list))
    for i, name in enumerate(basis, 1):
        want(f'"basis" item {i}', "a string", name, isinstance(name, str))
    brackets = data.get("brackets", [])
    want('"brackets"', "a list", brackets, isinstance(brackets, list))
    for k, entry in enumerate(brackets, 1):
        want(f"bracket {k}", "an object", entry, isinstance(entry, dict))
        for key in ("x", "y"):
            value = entry.get(key, _MISSING)
            want(f'bracket {k} "{key}"', "a string", value,
                 isinstance(value, str))
        value = entry.get("value", _MISSING)
        want(f'bracket {k} "value"', "a list", value, isinstance(value, list))
        for i, pair in enumerate(value, 1):
            want(f'bracket {k} "value" item {i}', "a [name, coefficient] "
                 "pair", pair, isinstance(pair, list) and len(pair) == 2)
            want(f'bracket {k} "value" item {i} name', "a string", pair[0],
                 isinstance(pair[0], str))


def _bracket_coefficient(x: str, y: str, name: str, coeff):
    """The coefficient of name in the bracket [x, y] of a Lie algebra file:
    a string GaussianRational.parse reads, else an InputError."""
    if isinstance(coeff, str):
        try:
            return GaussianRational.parse(coeff)
        except InputError:
            pass
    raise InputError(
        f"bracket [{x}, {y}]: bad coefficient {coeff!r} of {name}; want a "
        "string such as \"-1/2\" or \"1/2+3*i\" with nonzero denominators")


class LieAlgebra:
    """A complex Lie algebra given by exact structure constants.

    brackets maps (i, j) with i < j to a sparse coordinate map
    {k: coefficient} describing [e_i, e_j]; antisymmetry is implied and
    omitted pairs bracket to zero.  The table is kept only as adjoint rows:
    ad[i][j] is the tuple of nonzero terms (k, c) of [e_i, e_j], for i < j
    and for i > j.
    """

    def __init__(self, basis_names, brackets):
        self.basis_names = list(basis_names)
        self.dim = len(self.basis_names)
        self.ad = ad = [{} for _ in range(self.dim)]
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < self.dim):
                raise InputError(
                    f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            cleaned = {k: v for k, c in comps.items()
                       if (v := GaussianRational.coerce(c))}
            for k in cleaned:
                if not 0 <= k < self.dim:
                    raise InputError(f"bracket target index {k} out of range")
            if cleaned:
                ad[i][j] = tuple(cleaned.items())
                ad[j][i] = tuple((k, -c) for k, c in cleaned.items())
        self._full = Subspace(self, [unit_vector(self.dim, i)
                                     for i in range(self.dim)])
        self._derived = None

    # -- basic bracket machinery -------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y], one product x_i y_j per nonzero pair of coordinates."""
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("bracket arguments must have length dim")
        acc = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, terms in self.ad[i].items():
                if yj := y[j]:
                    f = xi * yj
                    for k, c in terms:
                        acc[k] = acc[k] + f * c
        return tuple(acc)

    def full_subspace(self) -> Subspace:
        """g itself, row-reduced once per algebra."""
        return self._full

    def derived_algebra(self) -> Subspace:
        """[g, g], computed once per algebra: the nilpotent radical of a
        solvable g and the first step of the derived series are both it."""
        if self._derived is None:
            self._derived = self.bracket_spans(self._full, self._full)
        return self._derived

    def bracket_spans(self, a: Subspace, b: Subspace) -> Subspace:
        prods = [self.bracket(x, y) for x in a.rows for y in b.rows]
        return Subspace(self, prods)

    def is_ideal(self, s: Subspace):
        """None if s is an ideal, else a witness (basis index, row index)."""
        for i in range(self.dim):
            e_i = unit_vector(self.dim, i)
            for r, row in enumerate(s.rows):
                if not s.contains(self.bracket(e_i, row)):
                    return (i, r)
        return None

    # -- validation ---------------------------------------------------------

    def jacobi_check(self):
        """(ok, violations); each violation is (i, j, k, defect vector).

        The defect of i < j < k is the cyclic sum of [e_a, [e_b, e_c]]: ad(e_a)
        applied to the table's [e_b, e_c]."""
        ad, n = self.ad, self.dim
        violations = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    defect = [ZERO] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in ad[b].get(c, ()):
                            for t, y in ad[a].get(m, ()):
                                defect[t] = defect[t] + x * y
                    if any(defect):
                        violations.append((i, j, k, tuple(defect)))
        return (not violations, violations)

    # -- series and radicals --------------------------------------------------

    def lower_central_series(self, top: Subspace | None = None,
                             bottom: Subspace | None = None) -> list[Subspace]:
        """Lower central series of the subquotient top/bottom, default g/0,
        up to the stable term: t_1 = top, t_{k+1} = [top, t_k], modulo bottom.

        bottom must be an ideal of g inside top.  Each term is a subspace
        of g: the echelon span of its vectors reduced modulo bottom, so it
        is zero in bottom's pivot coordinates and meets bottom only in 0.
        """
        if top is None:
            top = self.full_subspace()
        rows, pivots = ((bottom.rows, bottom.pivots) if bottom is not None
                        else ((), ()))

        def reduced(vectors):
            return Subspace(self, [reduce_mod(rows, pivots, x) for x in vectors])

        first = reduced(top.rows)
        # bottom is an ideal, so bracketing the reduced rows of top spans
        # the same term modulo bottom as bracketing top's own rows
        return _until_stable(first, lambda term: reduced(
            self.bracket(x, y) for x in first.rows for y in term.rows))

    def nilpotency_degree(self):
        """Smallest c with g_{c+1} = 0, or None when not nilpotent."""
        series = self.lower_central_series()
        if series[-1].dim != 0:
            return None
        return len(series) - 1

    def is_nilpotent(self) -> bool:
        return self.nilpotency_degree() is not None

    def is_solvable(self) -> bool:
        """Whether the derived series g, [g, g], ... reaches 0 (it does
        exactly when the one from [g, g] on does)."""
        derived = _until_stable(self.derived_algebra(),
                                lambda term: self.bracket_spans(term, term))
        return derived[-1].dim == 0

    def nilpotent_radical(self, solvable_part: Subspace) -> Subspace:
        """[g, rad g] for a caller-supplied radical (= [g, g] when g is solvable).

        A proper subspace is checked to be an ideal first; the whole algebra
        always is one, and gives the kept derived algebra."""
        if solvable_part.dim == self.dim:
            return self.derived_algebra()
        witness = self.is_ideal(solvable_part)
        if witness is not None:
            raise PreconditionError(
                f"solvable part is not an ideal: bracket of basis vector "
                f"{self.basis_names[witness[0]]} with row {witness[1]} escapes")
        return self.bracket_spans(self.full_subspace(), solvable_part)

    def exponential_radical(self, nilradical: Subspace) -> Subspace:
        """Stable term of r^(1) = [g, r], r^(k+1) = [g, r^(k)], given the
        nilpotent radical r^(1)."""
        full = self.full_subspace()
        return _until_stable(
            nilradical, lambda term: self.bracket_spans(full, term))[-1]

    # -- adapted bases ----------------------------------------------------------

    def f_basis(self, top: Subspace | None = None,
                bottom: Subspace | None = None):
        """Basis of the subquotient top/bottom (default g/0) adapted to its
        lower central series, with its depth weights, in g's coordinates.

        Returns (vectors, weights): weights w_k are nondecreasing, w_k is the
        deepest series term containing x_k, and for every j the vectors with
        w_k >= j span the j-th term of lower_central_series(top, bottom).
        Deterministic: each extension step takes the rows of the canonical
        echelon form of the deeper term, in order.  The rows taken so far are
        kept in one echelon form, which a candidate is reduced against and
        which is row-reduced again only when the candidate is taken.
        """
        series = self.lower_central_series(top, bottom)  # ends with 0
        if series[-1].dim != 0:
            raise PreconditionError("f_basis needs a nilpotent algebra")
        groups: dict[int, list[Vector]] = {}
        taken: tuple[Vector, ...] = ()
        pivots: list[int] = []
        for depth in range(len(series) - 2, -1, -1):  # deepest proper term first
            group = []
            for row in series[depth].rows:
                if not in_span(taken, pivots, row):
                    group.append(row)
                    taken = rref(taken + (row,))
                    pivots = pivot_columns(taken)
            groups[depth + 1] = group
        vectors_: list[Vector] = []
        ws: list[int] = []
        for depth in sorted(groups):  # shallow first, echelon order inside a depth
            vectors_.extend(groups[depth])
            ws.extend([depth] * len(groups[depth]))
        return vectors_, ws

    # -- I/O ---------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for i, row in enumerate(self.ad):
            for j in sorted(j for j in row if j > i):
                entries.append({
                    "x": self.basis_names[i],
                    "y": self.basis_names[j],
                    "value": [[self.basis_names[k], str(c)]
                              for k, c in sorted(row[j])],
                })
        return {"dim": self.dim, "basis": self.basis_names, "brackets": entries}

    @classmethod
    def from_json_dict(cls, data) -> "LieAlgebra":
        """The algebra of a loaded Lie algebra file (see _check_file_shape)."""
        _check_file_shape(data)
        names, dim = data["basis"], data["dim"]
        if dim != len(names):
            raise InputError(f"dim={dim} but {len(names)} basis names given")
        if len(set(names)) != len(names):
            raise InputError("duplicate basis names")
        for name in names:
            if " # " in name:  # factor labels are joined by " # "
                raise InputError(f"basis name {name!r} contains the "
                                 "factorization separator ' # '")
        index = {n: i for i, n in enumerate(names)}
        table = {}
        for entry in data.get("brackets", []):
            x, y = entry["x"], entry["y"]
            for name in (x, y):
                if name not in index:
                    raise InputError(f"unknown basis name {name!r} in "
                                     f"bracket [{x}, {y}]")
            i, j = index[x], index[y]
            if i >= j:
                raise InputError(
                    f"bracket [{x}, {y}] out of order: "
                    "only pairs with x before y are allowed")
            if (i, j) in table:
                raise InputError(f"duplicate bracket for [{x}, {y}]")
            comps = {}
            for name, coeff in entry["value"]:
                if name not in index:
                    raise InputError(f"unknown basis name {name!r} in bracket value")
                comps[index[name]] = _bracket_coefficient(x, y, name, coeff)
            table[(i, j)] = comps
        return cls(names, table)


# ---------------------------------------------------------------------------
# Semidirect chains
# ---------------------------------------------------------------------------

DELTA_BLOCK = "delta-block"
EXP_BLOCK = "exp-block"
REDUCTIVE_TAIL = "reductive-tail"


class ChainFactor:
    def __init__(self, name: str, kind: str, weight: object, label: str,
                 vector: tuple = (), w: int | None = None):
        self.name = name
        self.kind = kind
        self.weight = weight
        self.label = label
        self.vector = vector
        self.w = w


class DecompositionChain:
    def __init__(self, factors: list[ChainFactor], p: int, m: int,
                 w_exponents: list[int], tail_dim: int = 0):
        self.factors = factors
        self.p = p
        self.m = m
        self.w_exponents = w_exponents
        self.tail_dim = tail_dim

    def labels(self) -> list[str]:
        return [f.label for f in self.factors]

    def basis_vectors(self) -> list[tuple]:
        return [f.vector for f in self.factors if f.kind != REDUCTIVE_TAIL]

    def generator_names(self) -> list[str]:
        """Names of the factors that become smash generators, in chain order."""
        return [f.name for f in self.factors if f.kind != REDUCTIVE_TAIL]

    def factorization_string(self) -> str:
        labels = self.labels()
        if not labels:
            return "1"
        out = labels[0]
        for lab in labels[1:]:
            out = f"({out} # {lab})"
        return out


def parse_factorization(text: str) -> list[str]:
    """Inverse of DecompositionChain.factorization_string (round-trip check).

    The rendering is left-nested, "((L1 # L2) # L3)", and factor labels never
    contain the " # " separator, so the last factor peels off the right.
    """
    s = text.strip()
    if not s:
        raise InputError("empty factorization string")
    if not s.startswith("("):
        if " # " in s or s.endswith(")") and "(" not in s:
            raise InputError(f"cannot parse factorization string {text!r}")
        return [s]
    if not s.endswith(")"):
        raise InputError(f"unbalanced factorization string {text!r}")
    inner = s[1:-1]
    if " # " not in inner:
        raise InputError(f"cannot parse factorization string {text!r}")
    left, label = inner.rsplit(" # ", 1)
    return parse_factorization(left) + [label.strip()]


def _exp_label(w: int) -> str:
    return "O(C)" if w == 1 else f"A_{w - 1}"


def semidirect_chain(g: LieAlgebra, nprime: Subspace,
                     radicals: tuple[Subspace, Subspace],
                     reductive_tail_dim: int = 0) -> DecompositionChain:
    """Iterated semidirect chain of a solvable algebra through the ideal nprime.

    The first p = dim(nprime) factors are delta-blocks (weight 1+|z|,
    power-series factor labels); the rest are exp-blocks carrying the depth
    exponents of g/nprime, deepest first, so that every prefix of the chain
    basis is an ideal in the next prefix (verified by chain_bracket_matrix,
    which reads it off the chain's bracket table).  The containment
    exponential radical <= nprime <= nilpotent radical is checked against
    radicals = (nilpotent, exponential).

    A factor is named after its vector's pivot; a repeated pivot name gets
    primes (e2, e2', ...) so names stay unique, and labels keep the pivot.
    Names are for display: the smash and its checks take the factors by
    position.
    """
    if not g.is_solvable():
        raise PreconditionError("semidirect_chain needs a solvable algebra")
    witness = g.is_ideal(nprime)
    if witness is not None:
        i, r = witness
        raise PreconditionError(
            f"nprime is not an ideal: [{g.basis_names[i]}, row {r}] escapes the span")
    nilrad, exprad = radicals
    if not nprime.contains_subspace(exprad):
        raise PreconditionError("containment violated: E <= N' fails")
    if not nilrad.contains_subspace(nprime):
        raise PreconditionError("containment violated: N' <= N fails")

    factors: list[ChainFactor] = []

    # delta blocks: nprime's own F-basis, deepest first
    for v in reversed(g.f_basis(nprime)[0]):
        name = g.basis_names[pivot_columns([v])[0]]
        factors.append(ChainFactor(
            name=name, kind=DELTA_BLOCK,
            weight=weight_mod.Poly(), label=f"C[[{name}]]", vector=v))

    # exp blocks: F-basis of g/nprime, deepest first, its vectors zero in
    # nprime's pivot coordinates; nprime was checked to be an ideal above
    qvecs, ws = g.f_basis(bottom=nprime)
    for v, w in zip(reversed(qvecs), reversed(ws)):
        name = g.basis_names[pivot_columns([v])[0]]
        factors.append(ChainFactor(
            name=name, kind=EXP_BLOCK,
            weight=weight_mod.ExpPower(w), label=_exp_label(w), vector=v, w=w))

    taken: set[str] = set()
    for f in factors:
        while f.name in taken:
            f.name += "'"
        taken.add(f.name)

    if reductive_tail_dim:
        factors.append(ChainFactor(
            name="L", kind=REDUCTIVE_TAIL,
            weight=weight_mod.Const(), label="AhatL"))

    return DecompositionChain(factors=factors, p=nprime.dim,
                              m=max(ws, default=0), w_exponents=ws,
                              tail_dim=reductive_tail_dim)


def chain_bracket_matrix(g: LieAlgebra, chain: DecompositionChain):
    """Brackets of the chain basis, expressed in chain coordinates.

    Returns {(i, j): {k: coeff}} for i < j with [v_i, v_j] = sum_k c_k v_k.
    The chain vectors V are inverted once (linalg.inverse: one rref of
    [V | I]), and each bracket's coordinates are read as [v_i, v_j] V^-1.
    Every prefix of the chain is an ideal in the next exactly when
    k < max(i, j) throughout; a VerificationError names the first prefix
    that is not.
    """
    vecs = chain.basis_vectors()
    n = len(vecs)
    if g.dim != n or (inv := inverse(vecs)) is None:
        raise VerificationError("chain basis does not span its brackets")
    inv = [tuple((k, c) for k, c in enumerate(row) if c) for row in inv]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = [ZERO] * n
            for m, p in enumerate(g.bracket(vecs[i], vecs[j])):
                if p:
                    for k, c in inv[m]:
                        coords[k] = coords[k] + p * c
            out[(i, j)] = {k: c for k, c in enumerate(coords) if c}
    for j in range(1, n):
        if any(k >= j for i in range(j) for k in out[(i, j)]):
            raise VerificationError(
                f"chain prefix of length {j} is not an ideal under "
                f"{chain.factors[j].name}")
    return out


def adjoint_action_matrices(brackets, n: int):
    """Derivation images for the iterated smash of n generators, one list
    per chain step.

    Step i (adjoining generator i, 1 <= i < n) acts on each earlier
    generator j by the adjoint, v_j -> [v_i, v_j] = -[v_j, v_i]; its list
    holds one image {chain index: coefficient} per j < i, read from
    brackets, the table of chain_bracket_matrix.
    """
    return [[{k: -c for k, c in brackets[(j, step)].items()}
             for j in range(step)]
            for step in range(1, n)]
