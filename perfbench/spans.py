"""Spans around liesmash's public calls, installed from outside the package.

Each wrapped callable records one span: its name, its duration and the time
its child spans covered.  Spans are folded into totals as they close, since
the linear-algebra calls number in the hundreds of thousands.  A span's self
time is its duration minus that of its children; a named metric is the self
time of all spans of that name, and a layer's self time the sum over its
names.  The wrappers also collect the work and coverage counts from the
values the calls return.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.stack = []                       # [child time] per open span
        self.self_s = collections.Counter()   # span name -> self time
        self.calls = collections.Counter()
        self.counts = collections.Counter()   # counts of the current job
        self.models = []                      # Hopf models built by the current job
        self.tables = {}                      # id -> (word table, elements looked up)
        self.coefficients = []                # sample of Hopf table coefficients

    def wrap(self, name, fn, on_result=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[name] += elapsed - frame[0]
                self.calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- count hooks -----------------------------------------------------------

    def _hopf_report(self, result):
        self.counts["hopf.cases_checked"] += sum(r.checked for r in result.results)

    def _checked(self, key):
        def hook(result):
            self.counts[key] += result.checked
        return hook

    def _majorize(self, result):
        self.counts["weights.samples"] += len(result.samples)

    def _decompose_check(self, result):
        self.counts["weights.samples"] += \
            len(result.forward.samples) + len(result.backward.samples)

    def _growth(self, result):
        self.counts["cayley.fit_points"] += len(result)

    def _word_table(self, table):
        if id(table) in self.tables:
            return
        seen = set()
        lookup = table.length

        def length(g):
            seen.add(g)
            return lookup(g)
        table.length = length
        self.tables[id(table)] = (table, seen)
        self.counts["cayley.ball_elements"] += len(table.lengths)

    def finish_job(self):
        """Fold the current job's Hopf models into counts; return its counts."""
        for model in self.models:
            degrees = collections.Counter(model.degree[k] for k in model.basis)
            free = sum(c1 * c2 for d1, c1 in degrees.items()
                       for d2, c2 in degrees.items() if d1 + d2 <= model.truncation)
            self.counts["hopf.basis_elements"] += len(model.basis)
            self.counts["hopf.mult_entries"] += len(model.mult)
            self.counts["hopf.overflow_free_pairs"] += free
            for out in model.mult.values():
                if len(self.coefficients) >= 4096:
                    break
                self.coefficients.extend(out.values())
        self.models.clear()
        counts, self.counts = self.counts, collections.Counter()
        return dict(counts)

    def ball_lookups(self):
        """(distinct ball elements looked up, ball elements) over all tables."""
        used = sum(len(seen & table.lengths.keys())
                   for table, seen in self.tables.values())
        return used, sum(len(table.lengths) for table, _ in self.tables.values())

    # -- installation ------------------------------------------------------------

    def install(self):
        """Replace each public callable by its wrapper wherever liesmash holds it."""
        from liesmash import cayley, cli, hopf, lie, linalg, report, weights

        def method(cls, attr, name):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

        functions = [
            (linalg.rref, "linalg.rref", None),
            (linalg.solve_in_basis, "linalg.solve", None),
            (lie.semidirect_chain, "lie.chain", None),
            (lie.chain_bracket_matrix, "lie.chain", None),
            (report.resolve_nprime, "lie.chain", None),
            (lie.adjoint_action_matrices, "lie.adjoint", None),
            (hopf.iterated_smash, "hopf.smash_build", None),
            (hopf.make_primitive_series_hopf, "hopf.smash_build", None),
            (hopf.cyclic_group_hopf, "hopf.smash_build", None),
            (hopf.derivation_to_action, "hopf.smash_build", None),
            (hopf.trivial_action, "hopf.smash_build", None),
            (hopf.verify_hopf_axioms, "hopf.verify", self._hopf_report),
            (hopf.tensor_degeneration_check, "hopf.verify",
             self._checked("hopf.cases_checked")),
            (hopf.commutator_table_check, "hopf.commutator",
             self._checked("hopf.commutator_pairs")),
            (weights.decompose_check, "weights.decompose_check",
             self._decompose_check),
            (weights.chain_weight, "weights.decompose_check", None),
            (weights.chain_factor_weights, "weights.decompose_check", None),
            (weights.majorizes, "weights.majorize", self._majorize),
            (weights.equivalent, "weights.majorize", None),
            (cayley.word_table, "cayley.bfs", self._word_table),
            (cayley.growth_table, "cayley.fit", self._growth),
            (cayley.distortion_fit, "cayley.fit", None),
            (cayley.delta_smash_check, "cayley.smash_check",
             self._checked("cayley.smash_checked")),
            (report.roundtrip_factorization, "report.render", None),
            (cli.cmd_smash_table, "cli.table_render", None),
        ]
        wrapped = {id(fn): self.wrap(name, fn, hook) for fn, name, hook in functions}
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("liesmash"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]

        method(lie.LieAlgebra, "from_json_dict", "report.parse")
        method(lie.LieAlgebra, "jacobi_check", "lie.jacobi")
        for attr in ("full_subspace", "nilpotent_radical", "exponential_radical"):
            method(lie.LieAlgebra, attr, "lie.radicals")
        method(hopf.SmashAlgebra, "__init__", "hopf.smash_build")
        for attr in ("text_lines", "to_dict", "csv_lines"):
            method(report.DecompositionReport, attr, "report.render")
        init = hopf.TruncatedHopf.__init__

        def counted_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            self.models.append(model)
        hopf.TruncatedHopf.__init__ = counted_init
