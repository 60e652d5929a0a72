"""Per-module spans for the traced benchmark runs.

The tracer rebinds, from outside the package, the module attributes and
methods that callers look up at call time (for example
`classifying.validate` or `homology.smith_normal_form`), so the package
itself carries no instrumentation.  Only calls made once per level, table,
matrix or space are wrapped, never per-simplex calls such as `face`.
`algebra`, `gammacat` and `ggamma` are not wrapped: their time lands in the
self time of their callers.  The `cli.cmd_*` command functions are wrapped
too, so the time of an op that no span covers is what `cli.main` spends on
argument parsing and dispatch.

Every entry point named here must exist: `install` raises if one is missing,
so a renamed or removed entry point fails the traced run instead of reading
as a drop to zero.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict

def _defining_classes(classes, attr):
    """The classes, among the MROs of `classes`, that define `attr` themselves."""
    owners = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in vars(klass):
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def _identity_checks(level_sizes):
    """Identity comparisons an exhaustive `validate` makes on a space with
    these level sizes: d_i d_j (i < j), s_i s_j (i <= j) and the three mixed
    d_i s_j identities, one comparison per simplex each.

    Derived from the level sizes, not counted: counting real comparisons
    would mean wrapping per-simplex calls.  It moves only with the level
    sizes, never with a change to how `validate` works."""
    d = len(level_sizes) - 1
    faces = sum(p * (p + 1) // 2 * level_sizes[p] for p in range(2, d + 1))
    degens = sum((p + 1) * (p + 2) // 2 * level_sizes[p] for p in range(d - 1))
    mixed = sum((p + 1) * (p + 2) * level_sizes[p] for p in range(d))
    return faces + degens + mixed


def _cells(matrix) -> int:
    """Entries of a dense list-of-rows matrix."""
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    """Records spans around the wrapped calls and folds them into per-op
    totals; `take_op` hands the totals of the finished op over and resets."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._undo: list = []
        self.op = None
        self._reset_totals()

    def _reset_totals(self):
        self.layer_self_ns = defaultdict(int)
        self.name_total_ns = defaultdict(int)
        self.name_self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.span_count = 0
        self.covered_ns = 0     # time inside outermost spans

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, layer: str) -> None:
        self._active[name] += 1
        self._stack.append([len(self.spans), name, layer, time.perf_counter_ns(), 0])
        self.spans.append(None)

    def exit(self) -> int:
        end = time.perf_counter_ns()
        index, name, layer, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        else:
            self.covered_ns += duration
        self.spans[index] = (self.op, name, start, end, parent[0] if parent else -1)
        self.span_count += 1
        self.layer_self_ns[layer] += duration - child_ns
        self.name_self_ns[name] += duration - child_ns
        self._active[name] -= 1
        if not self._active[name]:     # inclusive time counts the outermost span only
            self.name_total_ns[name] += duration
        return duration

    def take_op(self) -> dict:
        ns = 1e-9
        summary = {
            "layer_self_s": {k: v * ns for k, v in self.layer_self_ns.items()},
            "total_s": {k: v * ns for k, v in self.name_total_ns.items()},
            "self_s": {k: v * ns for k, v in self.name_self_ns.items()},
            "counts": dict(self.counts),
            "spans": self.span_count,
            "covered_s": self.covered_ns * ns,
        }
        self._reset_totals()
        return summary

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, layer, after=None, skip=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _rebind(self, owner, attr, name, layer, after=None, skip=None):
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner.__name__} has no {attr} to trace as {name}; "
                                 "update perfbench/tracing.py")
        setattr(owner, attr, self._wrap(original, name, layer, after, skip))
        self._undo.append((owner, attr, original))

    def _rebind_method(self, classes, attr, name, layer, after=None, skip=None):
        owners = _defining_classes(classes, attr)
        if not owners:
            raise AttributeError(f"no class among {[c.__name__ for c in classes]} defines "
                                 f"{attr} to trace as {name}; update perfbench/tracing.py")
        for klass in owners:
            self._rebind(klass, attr, name, layer, after, skip)

    def install(self) -> None:
        from gammaspaces import classifying, cli, homology, presheaves, simplicial

        tracer = self
        ps_classes = [presheaves.TruncatedGammaSet, presheaves.TruncatedGGammaSet]

        for attr in ("cmd_build", "cmd_check", "cmd_roundtrip", "cmd_classify"):
            self._rebind(cli, attr, "cli.command", "cli")

        for attr in ("build_gamma_set", "build_ggamma_set"):
            self._rebind(presheaves, attr, "presheaves.build", "presheaves")
        for attr in ("presheaf_to_json", "presheaf_from_json"):
            self._rebind(presheaves, attr, "presheaves.json", "presheaves")
        for attr in ("check_strict_segal", "check_strict_bousfield"):
            self._rebind(presheaves, attr, "presheaves.check", "presheaves")
        for attr in ("extract_monoid", "extract_g_monoid", "extract_group_bousfield",
                     "extract_g_group_bousfield"):
            self._rebind(presheaves, attr, "presheaves.extract", "presheaves")

        tables_seen = weakref.WeakKeyDictionary()   # presheaf -> morphism keys tabulated

        def after_table(args, table):
            keys = tables_seen.setdefault(args[0], set())
            key = args[1].key()
            if key in keys:
                tracer.counts["presheaves.table_hits"] += 1
            else:
                keys.add(key)
                tracer.counts["presheaves.table_misses"] += 1
                tracer.counts["presheaves.table_entries"] += len(table)

        self._rebind_method(ps_classes, "action_table", "presheaves.action_table", "presheaves",
                            after=after_table)

        levels_seen = weakref.WeakKeyDictionary()   # presheaf -> levels built

        def level_built(args):
            return args[1] in levels_seen.get(args[0], ())

        def after_level(args, _):
            levels_seen.setdefault(args[0], set()).add(args[1])

        self._rebind_method(ps_classes, "level", "presheaves.level", "presheaves",
                            after=after_level, skip=level_built)

        def after_validate(args, _):
            sizes = [len(level) for level in args[0].levels]
            tracer.counts["simplicial.simplices"] += sum(sizes)
            tracer.counts["simplicial.identity_checks"] += _identity_checks(sizes)

        self._rebind(classifying, "validate", "simplicial.validate", "simplicial",
                     after=after_validate)
        for attr in ("suspension", "skeleton", "skeleton_inclusion"):
            self._rebind(classifying, attr, "simplicial.build", "simplicial")
        self._rebind_method([simplicial.TruncatedSimplicialSet], "__init__",
                            "simplicial.construct", "simplicial")
        self._rebind_method([simplicial.TruncatedSimplicialSet], "nondegenerate",
                            "simplicial.nondegenerate", "simplicial")
        self._rebind_method([simplicial.SimplicialMap], "check", "simplicial.map_check",
                            "simplicial")

        self._rebind(classifying, "delooping_report", "classifying.delooping_report", "classifying")
        self._rebind(classifying, "iterate_bar", "classifying.bar", "classifying")
        self._rebind(classifying, "structure_map", "classifying.structure_map", "classifying")
        self._rebind(classifying, "g_action_on_bar", "classifying.g_action", "classifying")

        def after_chain(args, chain):
            for p in range(1, chain.top + 1):
                boundary = chain.boundary(p)
                tracer.counts["homology.boundary_cells"] += _cells(boundary)
                tracer.counts["homology.boundary_nnz"] += sum(1 for row in boundary for x in row if x)

        def after_snf(args, _):
            tracer.counts["homology.snf_calls"] += 1
            tracer.counts["homology.snf_cells"] += _cells(args[0])

        def after_solve(args, _):
            tracer.counts["homology.solve_calls"] += 1

        self._rebind(classifying, "normalized_chain_complex", "homology.chain", "homology",
                     after=after_chain)
        self._rebind(classifying, "induced_map_on_homology", "homology.induced", "homology")
        self._rebind_method([homology.HomologyPresentation], "__init__", "homology.presentation",
                            "homology")
        self._rebind(homology, "smith_normal_form", "homology.snf", "homology", after=after_snf)
        self._rebind(homology, "solve_exact", "homology.solve", "homology", after=after_solve)
        self._rebind(homology, "invert_unimodular", "homology.invert", "homology")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._undo)
