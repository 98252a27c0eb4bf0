"""Exact truncated Hopf models and analytic smash products.

Algebras live on a finite monomial basis (total degree <= D).  Products and
coproducts of basis elements are computed in the graded-complete model and
the result is truncated; therefore every identity is asserted only on the
overflow-free set of inputs, where no intermediate term of degree > D can
fold back into low degree.  For an identity combining inputs of degrees
d_1, ..., d_k the overflow-free condition is d_1 + ... + d_k <= D, and the
verification report records how many inputs were covered.

Every model keys its basis by position: basis == tuple(range(B)), and
degree[k] is the degree of basis element k.  Tables are keyed by positions
and pairs of positions at any depth of an iterated smash: a smash numbers
its pairs (A position, H position) in A-major order, and keeps that map
(pairs) and its inverse (position[a][h]) to read its factors' tables.

Actions are derivations (and their powers) of the underlying algebra whose
generator images have degree <= 1; this makes truncation commute with the
action, keeps the module-algebra axioms decidable exactly, and covers all
actions arising from a Lie chain's adjoint representation.  A model's
generators are a list of (display name, basis position); derivation images
and the commutator check take them by position, and the names only render
keys and witnesses.

A smash's mult, comult and antipode are LazyTables: each entry is computed
on its first lookup and kept, so a check or a dump pays only for the
entries it reads (a mult dump computes no antipode entry, a comult dump no
top-level product or antipode).  An entry reads the factors' tables and
the action as they are at that first lookup, so a table changed after the
smash is built reaches every entry not read before.  The primitive-series
and group-like tables, and every counit and factorization, are built
eagerly.  Elements are sparse dicts keyed by basis position that never
hold a zero coefficient, so two elements are equal exactly when their
dicts are.  A table is
applied to elements by one linear rule (el_map: comultiply, antipode, a
derivation) and one bilinear rule (el_product: multiply).  Every sparse
sum out += c*y follows one accumulate rule: c == 0 adds nothing; a factor
that is the ONE object is not multiplied; a key absent from out takes c*v
as it is, since y never holds a zero (el_axpy relies on that); a present
key is summed, and dropped if the sum is zero.  The rule is written out in
four places: el_axpy (called by el_map, el_product, smash_antipode and
the associativity and antipode-convolution sweeps, which read the table
entries of their products straight into their two sides), _accumulate
(one key at a time, for the coassociativity and counit sweeps),
smash_product and _tensor_square_product.

An action of H on A is a plain table, (H position, A position) -> element
of A, that SmashAlgebra(A, H, action) takes.  A derivation action is
checked as it is built (derivation_to_action): the derivation against A's
multiplication table (Leibniz), and H's coproduct against the binomial one,
which with Leibniz gives h.(ab) = sum (h1.a)(h2.b) on the overflow-free
set.  The unit axiom h.1 = eps(h)1 and the module axiom (hg).a = h.(g.a)
are not swept: the table holds the powers of one linear map that kills 1,
so both hold by construction, whatever the map.

Every model has an antipode: each acting factor is a primitive series
C[[y]], which is cocommutative, and then A # H has one (Molnar, J. Algebra
47, 1977).  Over a hand-made H that is not, the antipode-convolution sweep
fails.

Every exact check is one sweep over its cases (errors.sweep), which counts
them up to and including the first failure and skips none.  Degree-filtered
sweeps enumerate exactly their overflow-free cases, in basis order, from
the degree buckets each model keeps: upto[m] holds the basis positions of
degree <= m, so k2 runs over upto[D - deg k1] and k3 over
upto[D - deg k1 - deg k2], and a remainder below 0 has no bucket and yields
no cases.
"""

from __future__ import annotations

import functools
import itertools
import math
from .exactnum import GaussianRational, ONE, ZERO
from .errors import CheckResult, PreconditionError, sweep

Element = dict  # basis position -> GaussianRational, never holding a zero

# Most Hopf-axiom cases a chain model's checks may plan (planned_cases);
# more are refused before any factor is built.  The count bounds memory, the
# time only in order: 18 us a case on uppertri3 at D=7 (1,166,996 cases, 21 s,
# 319 MB), 154 us on smash2 at D=20 (242,893, 37 s) and 127 us on series at
# D=225 (1,976,031, 251 s, 50 MB), Python 3.11 on a 2-core shared host.
MAX_PLANNED_CASES = 2_000_000


# ---------------------------------------------------------------------------
# sparse element helpers
# ---------------------------------------------------------------------------

def el_axpy(out: Element, c, y: Element) -> Element:
    """out += c*y in place, by the accumulate rule; y must hold no zero."""
    if not c:
        return out
    one = c is ONE
    get = out.get
    for k, v in y.items():
        if not one:
            v = c * v
        acc = get(k)
        if acc is None:
            out[k] = v
        else:
            acc += v
            if acc:
                out[k] = acc
            else:
                del out[k]
    return out


def _accumulate(out: dict, key, v) -> None:
    """out[key] += v in place, by the accumulate rule, for a nonzero v."""
    acc = out.get(key)
    if acc is None:
        out[key] = v
    else:
        acc += v
        if acc:
            out[key] = acc
        else:
            del out[key]


def el_map(table, u: Element) -> Element:
    """The linear map with table (position -> element) applied to u."""
    out: Element = {}
    for k, c in u.items():
        el_axpy(out, c, table[k])
    return out


def el_product(table, u: Element, v: Element) -> Element:
    """The bilinear map with table ((position, position) -> element)
    applied to (u, v)."""
    out: Element = {}
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            el_axpy(out, c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2,
                    table[(k1, k2)])
    return out


class TruncatedHopf:
    """A Hopf algebra model on an explicit finite basis with exact tables."""

    def __init__(self, *, kind, name, generators, truncation, degree,
                 unit, mult, comult, counit, antipode, factorization):
        self.kind = kind
        self.name = name
        self.generators = list(generators)      # (display name, position)
        self.generator_name = {k: n for n, k in self.generators}
        self.truncation = truncation
        self.degree = tuple(degree)             # position -> degree
        self.basis = tuple(range(len(self.degree)))
        self.unit = unit
        self.mult = mult                        # (pos, pos) -> Element
        self.comult = comult                    # pos -> {(pos, pos): coeff}
        self.counit = counit                    # pos -> coeff
        self.antipode = antipode                # pos -> Element
        self.factorization = factorization     # pos -> generator positions
        # upto[m]: the positions of degree <= m, for 0 <= m <= truncation
        self.upto = {m: tuple(k for k in self.basis if self.degree[k] <= m)
                     for m in range(truncation + 1)}

    # -- elements ----------------------------------------------------------

    def multiply(self, u: Element, v: Element) -> Element:
        return el_product(self.mult, u, v)

    # -- display -----------------------------------------------------------

    def key_str(self, key) -> str:
        factors = self.factorization[key]
        if not factors:
            return "1"
        counts: list[tuple[str, int]] = []
        for f in factors:
            label = self.generator_name[f]
            if counts and counts[-1][0] == label:
                counts[-1] = (label, counts[-1][1] + 1)
            else:
                counts.append((label, 1))
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in counts)

    def el_str(self, u: Element) -> str:
        if not u:
            return "0"
        parts = []
        degree = self.degree
        for k in sorted(u, key=lambda k: (degree[k], k)):
            c = u[k]
            ks = self.key_str(k)
            if ks == "1":
                parts.append(str(c))
            elif c == ONE:
                parts.append(ks)
            else:
                parts.append(f"({c})*{ks}")
        return " + ".join(parts)

    def __repr__(self):
        return (f"<{self.kind} {self.name}: {len(self.basis)} basis elements, "
                f"D={self.truncation}>")


# ---------------------------------------------------------------------------
# atomic models
# ---------------------------------------------------------------------------

def make_primitive_series_hopf(name: str, truncation: int) -> TruncatedHopf:
    """One-variable truncated power-series Hopf algebra with x primitive."""
    if truncation < 1:
        raise PreconditionError("truncation degree must be >= 1")
    d = truncation
    basis = tuple(range(d + 1))
    mult = {(a, b): ({a + b: ONE} if a + b <= d else {})
            for a in basis for b in basis}
    # every coefficient 1 is the ONE object, which products skip
    comult = {n: {(k, n - k): (ONE if k in (0, n)
                               else GaussianRational(math.comb(n, k)))
                  for k in range(n + 1)} for n in basis}
    counit = {n: (ONE if n == 0 else ZERO) for n in basis}
    antipode = {n: {n: -ONE if n % 2 else ONE} for n in basis}
    factorization = {n: (1,) * n for n in basis}
    return TruncatedHopf(
        kind="primitive-series", name=f"C[[{name}]]", generators=[(name, 1)],
        truncation=d, degree=basis, unit=0,
        mult=mult, comult=comult, counit=counit, antipode=antipode,
        factorization=factorization)


def cyclic_group_hopf(name: str, order: int, truncation: int = 4) -> TruncatedHopf:
    """Group algebra of Z/order on the residues 0..order-1: every basis
    element is group-like, and 0 is the unit."""
    elems = range(order)
    mult = {(g, h): {(g + h) % order: ONE} for g in elems for h in elems}
    comult = {g: {(g, g): ONE} for g in elems}
    counit = {g: ONE for g in elems}
    antipode = {g: {(-g) % order: ONE} for g in elems}
    factorization = {g: (g,) if g else () for g in elems}
    return TruncatedHopf(
        kind="group-like", name=name,
        generators=[(f"d[{g}]", g) for g in elems if g],
        truncation=truncation, degree=(0,) * order, unit=0,
        mult=mult, comult=comult, counit=counit, antipode=antipode,
        factorization=factorization)


# ---------------------------------------------------------------------------
# module-algebra actions: (H position, A position) -> element of A
# ---------------------------------------------------------------------------

def trivial_action(H: TruncatedHopf, A: TruncatedHopf) -> dict:
    """h.a = eps(h) a."""
    table = {}
    for hk in H.basis:
        eps = H.counit[hk]
        for ak in A.basis:
            table[(hk, ak)] = {ak: eps} if eps else {}
    return table


def derivation_to_action(H: TruncatedHopf, A: TruncatedHopf, images) -> dict:
    """The action table of a primitive-series H through a derivation of A.

    images holds one element of A of degree <= 1 (a constant plus a linear
    combination of generators) per entry of A.generators, in that order; the
    generator of H then acts as the derivation der sending each generator of
    A to its image, and y^n acts as der applied n times.

    A's basis must be prefix-closed, as every model here is (primitive
    series, group-like, and each level of a chain model's iterated smash):
    basis element k is the product p*f of its factorization, where p, the
    position of all factors but the last, f, comes before k.  One Leibniz
    step per element then gives der(k) = der(p)*f + p*der(f), with der(1) =
    0.  der is checked against A's multiplication table (Leibniz) on the
    overflow-free set, and H's coproduct against the binomial one.  That is
    all h.(ab) = sum (h1.a)(h2.b) needs: by Leibniz, der^n(ab) = sum C(n, k)
    der^k(a) der^(n-k)(b), and der does not raise degree.  An H whose
    coproduct is not binomial, such as a group algebra, is refused.
    """
    for n in H.basis:
        if H.comult[n] != {(k, n - k): math.comb(n, k) for k in range(n + 1)}:
            raise PreconditionError(
                f"module-algebra axiom fails: the coproduct of {H.key_str(n)} "
                f"in {H.name} is not binomial")
    if len(images) != len(A.generators):
        raise PreconditionError(
            f"{len(images)} images for the {len(A.generators)} generators "
            f"of {A.name}")
    gen_image: dict = {}
    for (gname, gkey), img in zip(A.generators, images):
        img = {k: v for k, c in img.items()
               if (v := GaussianRational.coerce(c))}
        for k in img:
            if k not in range(len(A.basis)):
                raise PreconditionError(
                    f"image of {gname} uses unknown basis position {k!r}")
            if A.degree[k] > 1:
                raise PreconditionError(
                    f"image of {gname} has degree {A.degree[k]} > 1; only "
                    "affine derivation images keep truncation exact")
        gen_image[gkey] = img

    der: dict = {}
    position_of: dict = {}      # factorization -> position
    for key in A.basis:
        factors = A.factorization[key]
        position_of[factors] = key
        if not factors:
            der[key] = {}
            continue
        p, f = position_of[factors[:-1]], factors[-1]
        der[key] = el_axpy(A.multiply(der[p], {f: ONE}), ONE,
                           A.multiply({p: ONE}, gen_image[f]))

    # Leibniz against the multiplication table (catches maps that are not
    # derivations of A's actual relations)
    for k1 in A.basis:
        for k2 in A.upto.get(A.truncation - A.degree[k1], ()):
            lhs = el_map(der, A.mult[(k1, k2)])
            rhs = el_axpy(A.multiply(der[k1], {k2: ONE}), ONE,
                          A.multiply({k1: ONE}, der[k2]))
            if lhs != rhs:
                raise PreconditionError(
                    f"not a derivation: Leibniz fails on "
                    f"({A.key_str(k1)}, {A.key_str(k2)})")

    table = {}
    for ak in A.basis:
        current: Element = {ak: ONE}
        for n in H.basis:  # 0..D
            table[(n, ak)] = current
            current = el_map(der, current)
    return table


# ---------------------------------------------------------------------------
# the smash product
# ---------------------------------------------------------------------------

class LazyTable(dict):
    """A table whose entries are computed on first lookup and kept.

    ``table[key]`` computes ``rule(key)`` for a key it does not hold yet,
    keeps the result and returns it; ``in``, ``get``, ``len`` and iteration
    see only the entries computed so far, and an entry set by hand is kept
    as it is.  A smash's mult, comult and antipode are LazyTables whose
    rules (smash_product, smash_coproduct, smash_antipode) read the
    factors' tables and the action when an entry is first looked up, not
    when the smash is built.  A rule holds the factors and tables, not its
    SmashAlgebra, so a dropped model is freed without a cycle.
    """

    __slots__ = ("rule",)

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        value = self[key] = self.rule(key)
        return value


def smash_product(A, H, action, pairs, position, key) -> Element:
    """(a # h)(b # g) = sum a (h_(1) . b) # h_(2) g for the pair of positions
    key, truncated at degree D: a term a' # h' is kept at position[a'][h'],
    which holds exactly the h' of degree <= D - deg a'."""
    (a, h), (b, g) = pairs[key[0]], pairs[key[1]]
    out: Element = {}
    get = out.get
    for (h1, h2), c in H.comult[h].items():
        acted = action[(h1, b)]
        if not acted:
            continue
        hg = H.mult[(h2, g)]
        if not hg:
            continue
        for bk, cb in acted.items():
            ccb = cb if c is ONE else c if cb is ONE else c * cb
            for ak, ca in A.mult[(a, bk)].items():
                cc = ca if ccb is ONE else ccb if ca is ONE else ccb * ca
                row = position[ak]
                for hk, chg in hg.items():
                    k = row.get(hk)
                    if k is None:
                        continue
                    v = chg if cc is ONE else cc if chg is ONE else cc * chg
                    acc = get(k)
                    if acc is None:
                        out[k] = v
                    else:
                        acc += v
                        if acc:
                            out[k] = acc
                        else:
                            del out[k]
    return out


def smash_coproduct(A, H, pairs, position, k) -> dict:
    """Delta(a # h) = sum (a_(1) # h_(1)) (x) (a_(2) # h_(2)) for the
    position k of a # h."""
    a, h = pairs[k]
    out: dict = {}
    for (a1, a2), ca in A.comult[a].items():
        row1, row2 = position[a1], position[a2]
        for (h1, h2), ch in H.comult[h].items():
            out[(row1[h1], row2[h2])] = ca * ch
    return out


def smash_antipode(A, H, action, pairs, position, k) -> Element:
    """S(a # h) = (1 # S h)(S a # 1) = sum (S h)_(1) . S a # (S h)_(2) for
    the position k of a # h."""
    a, h = pairs[k]
    out: Element = {}
    sa = A.antipode[a]
    for hk, ch in H.antipode[h].items():
        for (h1, h2), c2 in H.comult[hk].items():
            chc2 = ch * c2
            for sk, cs in sa.items():
                el_axpy(out, chc2 * cs,
                        {p: ca for ak, ca in action[(h1, sk)].items()
                         if (p := position[ak].get(h2)) is not None})
    return out


class SmashAlgebra(TruncatedHopf):
    """A # H, with the smash product multiplication, for an action table
    (H position, A position) -> element of A.

    Basis position k stands for the pair pairs[k] = (A position, H
    position), numbered in A-major order over the pairs of total degree
    <= D; position[a][h] is its inverse.  mult, comult and antipode are
    LazyTables of the rules smash_product, smash_coproduct and
    smash_antipode, each entry computed from A, H and the action on its
    first lookup; counit and factorization are built here.  S(a # h) =
    (1 # S h)(S a # 1) is the antipode, as H is cocommutative (Molnar 1977).
    """

    def __init__(self, A: TruncatedHopf, H: TruncatedHopf, action):
        if A.truncation != H.truncation:
            raise PreconditionError("factors must share the truncation degree")
        d = A.truncation
        pairs = tuple((a, h) for a in A.basis for h in H.basis
                      if A.degree[a] + H.degree[h] <= d)
        position = [{} for _ in A.basis]
        for k, (a, h) in enumerate(pairs):
            position[a][h] = k
        i_pos = [row[H.unit] for row in position]
        j_pos = position[A.unit]

        counit = {k: A.counit[a] * H.counit[h] for k, (a, h) in enumerate(pairs)}

        factorization = {
            k: (tuple(i_pos[f] for f in A.factorization[a])
                + tuple(j_pos[f] for f in H.factorization[h]))
            for k, (a, h) in enumerate(pairs)}

        generators = [(n, i_pos[k]) for n, k in A.generators]
        generators += [(n, j_pos[k]) for n, k in H.generators]

        super().__init__(
            kind="smash", name=f"({A.name} # {H.name})", generators=generators,
            truncation=d, degree=[A.degree[a] + H.degree[h] for a, h in pairs],
            unit=j_pos[H.unit],
            mult=LazyTable(functools.partial(
                smash_product, A, H, action, pairs, position)),
            comult=LazyTable(functools.partial(
                smash_coproduct, A, H, pairs, position)),
            counit=counit,
            antipode=LazyTable(functools.partial(
                smash_antipode, A, H, action, pairs, position)),
            factorization=factorization)
        self.A = A
        self.H = H
        self.action = action        # (H position, A position) -> A element
        self.pairs = pairs          # position -> (A position, H position)
        self.position = position    # position[a][h] -> position
        self.i_pos = i_pos          # a -> position of a # 1
        self.j_pos = j_pos          # h -> position of 1 # h

    def embed_a(self, u: Element) -> Element:
        return {self.i_pos[k]: c for k, c in u.items()}

    def embed_h(self, u: Element) -> Element:
        return {self.j_pos[k]: c for k, c in u.items()}


def planned_cases(n: int, truncation: int) -> dict:
    """The cases verify_hopf_axioms counts in each check of a passing chain
    model of n generators at truncation D; B = C(n + D, D) is the unit's."""
    d, b = truncation, math.comb(n + truncation, truncation)
    cases = {"unit": b, "associativity": math.comb(d + 3 * n, d),
             "coassociativity": b, "counit": b,
             "bialgebra": math.comb(d + 2 * n, d), "antipode-convolution": b}
    if n >= 2:
        cases["module-intertwining"] = b
        cases["factor-embeddings"] = math.comb(d + n - 1, d) ** 2 + (d + 1) ** 2
    return cases


def iterated_smash(chain, truncation: int, actions) -> SmashAlgebra:
    """Left-nested smash of a decomposition chain's one-dimensional factors.

    actions[i] holds the derivation images of step i+1 on the prefix, one
    {chain index: coefficient} per earlier generator (as
    lie.adjoint_action_matrices gives them); chain index k is the prefix
    model's generator k.  Each step is verified as a module-algebra action
    before the smash is formed.  A reductive tail stays symbolic and
    contributes no generator.  A model whose checks plan more than
    MAX_PLANNED_CASES cases is refused before any step is built.
    """
    names = chain.generator_names()
    if len(names) < 1:
        raise PreconditionError("iterated smash needs at least one factor")
    if len(actions) != len(names) - 1:
        raise PreconditionError(
            f"need {len(names) - 1} action matrices, got {len(actions)}")
    # a truncation below 1 is planned as 0, and left to the series builder
    plan = planned_cases(len(names), max(truncation, 0))
    if (cases := sum(plan.values())) > MAX_PLANNED_CASES:
        raise PreconditionError(
            f"truncation {truncation} over {len(names)} generators gives a "
            f"smash basis of {plan['unit']} elements whose checks would take "
            f"about {cases} cases, more than the {MAX_PLANNED_CASES} allowed")
    current = make_primitive_series_hopf(names[0], truncation)
    for step, gen_name in enumerate(names[1:]):
        H = make_primitive_series_hopf(gen_name, truncation)
        keys = [key for _, key in current.generators]
        images = [{keys[k]: c for k, c in image.items()}
                  for image in actions[step]]
        current = SmashAlgebra(current, H,
                               derivation_to_action(H, current, images))
    return current


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class HopfReport:
    def __init__(self, model: str, results: list | None = None):
        self.model = model
        self.results = [] if results is None else results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [f"[{self.model}] {r.line()}" for r in self.results]

    def first_failure(self):
        for r in self.results:
            if not r.passed:
                return r
        return None


def _tensor_square_product(X: TruncatedHopf, u_pairs: dict, v_pairs: dict) -> dict:
    mult = X.mult
    out: dict = {}
    get = out.get
    for (a1, a2), c1 in u_pairs.items():
        for (b1, b2), c2 in v_pairs.items():
            left = mult[(a1, b1)]
            if not left:
                continue
            right = mult[(a2, b2)].items()
            c12 = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
            for k1, d1 in left.items():
                c = d1 if c12 is ONE else c12 if d1 is ONE else c12 * d1
                for k2, d2 in right:
                    v = d2 if c is ONE else c if d2 is ONE else c * d2
                    key = (k1, k2)
                    acc = get(key)
                    if acc is None:
                        out[key] = v
                    else:
                        acc += v
                        if acc:
                            out[key] = acc
                        else:
                            del out[key]
    return out


def verify_hopf_axioms(X: TruncatedHopf) -> HopfReport:
    """Exhaustive exact verification of the Hopf axioms at truncation.

    Degree-filtered identities (associativity, the bialgebra law, the smash
    intertwining property) run on the overflow-free input set; the purely
    coalgebraic identities and the antipode convolutions run on the whole
    basis.
    """
    d, mult, degree, comult = X.truncation, X.mult, X.degree, X.comult
    upto, antipode = X.upto, X.antipode

    def unit():
        for k in X.basis:
            u = {k: ONE}
            ok = mult[(X.unit, k)] == u == mult[(k, X.unit)]
            yield None if ok else X.key_str(k)

    def associativity():
        # (k1 k2) k3 = k1 (k2 k3) on the overflow-free set
        for k1 in X.basis:
            room = d - degree[k1]
            for k2 in upto.get(room, ()):
                p12 = mult[(k1, k2)]
                for k3 in upto.get(room - degree[k2], ()):
                    # the axpys of p12 * k3 and k1 * (k2 k3), read straight
                    # from the table
                    lhs: Element = {}
                    for k, c in p12.items():
                        el_axpy(lhs, c, mult[(k, k3)])
                    rhs: Element = {}
                    for k, c in mult[(k2, k3)].items():
                        el_axpy(rhs, c, mult[(k1, k)])
                    yield None if lhs == rhs else (
                        f"({X.key_str(k1)}, {X.key_str(k2)}, {X.key_str(k3)})")

    def coassociativity():
        for k in X.basis:
            left: dict = {}
            right: dict = {}
            for (k1, k2), c in comult[k].items():
                if not c:
                    continue
                for (k11, k12), c2 in comult[k1].items():
                    _accumulate(left, (k11, k12, k2),
                                c2 if c is ONE else c * c2)
                for (k21, k22), c2 in comult[k2].items():
                    _accumulate(right, (k1, k21, k22),
                                c2 if c is ONE else c * c2)
            yield None if left == right else X.key_str(k)

    def counit():
        for k in X.basis:
            left: Element = {}
            right: Element = {}
            for (k1, k2), c in comult[k].items():
                if e := c * X.counit[k1]:
                    _accumulate(left, k2, e)
                if e := c * X.counit[k2]:
                    _accumulate(right, k1, e)
            yield None if left == {k: ONE} == right else X.key_str(k)

    def bialgebra():
        # on the overflow-free set
        for k1 in X.basis:
            for k2 in upto.get(d - degree[k1], ()):
                prod = mult[(k1, k2)]
                if len(prod) == 1 and ONE in prod.values():
                    # the table's own entry: only compared, never changed
                    lhs = comult[next(iter(prod))]
                else:
                    lhs = el_map(comult, prod)
                rhs = _tensor_square_product(X, comult[k1], comult[k2])
                if lhs != rhs:
                    yield f"({X.key_str(k1)}, {X.key_str(k2)})"
                elif sum((c * X.counit[k] for k, c in prod.items()), ZERO) \
                        != X.counit[k1] * X.counit[k2]:
                    yield f"counit at ({X.key_str(k1)}, {X.key_str(k2)})"
                else:
                    yield None

    def antipode_convolution():
        for k in X.basis:
            eps = X.counit[k]
            expected = {X.unit: eps} if eps else {}
            left: Element = {}
            right: Element = {}
            for (k1, k2), c in comult[k].items():
                # the axpys of S(k1) k2 and k1 S(k2), each scaled by c
                for s, cs in antipode[k1].items():
                    el_axpy(left, cs if c is ONE else c if cs is ONE
                            else c * cs, mult[(s, k2)])
                for s, cs in antipode[k2].items():
                    el_axpy(right, cs if c is ONE else c if cs is ONE
                            else c * cs, mult[(k1, s)])
            yield None if left == expected == right else X.key_str(k)

    report = HopfReport(model=X.name, results=[
        sweep("unit", unit()),
        sweep("associativity", associativity()),
        sweep("coassociativity", coassociativity()),
        sweep("counit", counit()),
        sweep("bialgebra", bialgebra()),
        sweep("antipode-convolution", antipode_convolution()),
    ])
    if not isinstance(X, SmashAlgebra):
        return report
    A, H, action, i_pos, j_pos = X.A, X.H, X.action, X.i_pos, X.j_pos

    def module_intertwining():
        # i(h . a) = sum j(h_(1)) i(a) j(S h_(2)) on the overflow-free set
        for hk in H.basis:
            for ak in A.upto.get(d - H.degree[hk], ()):
                lhs = X.embed_a(action[(hk, ak)])
                rhs: Element = {}
                for (h1, h2), c in H.comult[hk].items():
                    term = X.multiply(mult[(j_pos[h1], i_pos[ak])],
                                      X.embed_h(H.antipode[h2]))
                    el_axpy(rhs, c, term)
                yield None if lhs == rhs else f"({H.key_str(hk)}, {A.key_str(ak)})"

    def factor_embeddings():
        # i and j are algebra maps
        for k1 in A.basis:
            for k2 in A.basis:
                lhs = mult[(i_pos[k1], i_pos[k2])]
                yield None if lhs == X.embed_a(A.mult[(k1, k2)]) else (
                    f"i on ({A.key_str(k1)}, {A.key_str(k2)})")
        for k1 in H.basis:
            for k2 in H.basis:
                lhs = mult[(j_pos[k1], j_pos[k2])]
                yield None if lhs == X.embed_h(H.mult[(k1, k2)]) else (
                    f"j on ({H.key_str(k1)}, {H.key_str(k2)})")

    report.results += [sweep("module-intertwining", module_intertwining()),
                       sweep("factor-embeddings", factor_embeddings())]
    return report


def commutator_table_check(s: TruncatedHopf, g, vectors, names) -> CheckResult:
    """Assert each commutator [gen_i, gen_j], i < j, of the smash is the Lie
    bracket of the chain vectors v_i, v_j, computed in g.

    The commutator's degree-1 part sum c_k gen_k maps to g as sum c_k v_k;
    every other degree must be empty.  The expected bracket comes from g's
    structure constants, not from the chain's bracket table the smash was
    built from.  Generator i is s.generators[i], not looked up by name as
    the smash was built; names only render the witness.  A count of names
    or chain vectors that differs from the generators' fails as one case.
    """
    gens = [{key: ONE} for _, key in s.generators]
    index = {key: k for k, (_, key) in enumerate(s.generators)}

    def cases():
        for count, what in ((len(names), "names"),
                            (len(vectors), "chain vectors")):
            if count != len(gens):
                yield f"{len(gens)} generators for {count} {what}"
        for i, j in itertools.combinations(range(len(gens)), 2):
            u, v = gens[i], gens[j]
            comm = el_axpy(s.multiply(u, v), -ONE, s.multiply(v, u))
            image = [ZERO] * g.dim
            for key, c in comm.items():
                if s.degree[key] != 1 or key not in index:
                    image = None
                    break
                for t, x in enumerate(vectors[index[key]]):
                    if x:
                        image[t] = image[t] + c * x
            yield None if image is not None and \
                tuple(image) == g.bracket(vectors[i], vectors[j]) else (
                f"[{names[i]}, {names[j]}] = {s.el_str(comm)}")

    return sweep("commutator-recovery", cases())


def tensor_degeneration_check(s: SmashAlgebra) -> CheckResult:
    """For the trivial action the smash table is the tensor-product table."""
    A, H, position = s.A, s.H, s.position

    def cases():
        for k1, (a, h) in enumerate(s.pairs):
            for k2, (b, g) in enumerate(s.pairs):
                expected: Element = {}
                for ak, ca in A.mult[(a, b)].items():
                    row = position[ak]
                    for hk, ch in H.mult[(h, g)].items():
                        if hk in row:
                            expected[row[hk]] = ca * ch
                yield None if s.mult[(k1, k2)] == expected else (
                    f"({s.key_str(k1)}, {s.key_str(k2)})")

    return sweep("tensor-degeneration", cases())
