"""Batch verification driver.

Subcommands: build (algebra file -> presheaf file), check (strict Segal or
Bousfield condition), roundtrip (build, extract, compare tables), classify
(deloopings, homology, structure-map verdict).  JSON output is the
contract and is byte-stable for a fixed config and seed; it has the layout
of ``json.dumps(report, sort_keys=True, indent=2)``, written by an exact
emitter (``_dumps``) that formats each integer table in one step.  Text output
is a human summary.

Exit codes: 0 pass, 1 condition-check failure, 2 input error, 3 algebra
or extraction error, 4 resource or truncation error or exhausted memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import random
import sys

from . import __version__
from . import algebra as alg
from . import classifying as cb
from . import gammacat as gc
from . import ggamma as gg
from . import presheaves as ps
from .errors import (AxiomError, BudgetError, CompositionError,
                     DisjointnessError, InputError, StrictnessError,
                     TruncationError)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_ALGEBRA = 3
EXIT_RESOURCE = 4

DEFAULT_BUDGET_ENV = "GAMMASPACES_BUDGET"


def _default_budget() -> int:
    value = os.environ.get(DEFAULT_BUDGET_ENV, str(cb.DEFAULT_BUDGET))
    try:
        budget = int(value)
    except ValueError:
        raise InputError(f"${DEFAULT_BUDGET_ENV} must be an integer, got {value!r}") from None
    if budget < 1:
        raise InputError(f"${DEFAULT_BUDGET_ENV} must be positive, got {budget}")
    return budget


def _load_json(path: str) -> tuple[dict, str]:
    """The parsed file, which must hold a JSON object, and the sha256 of its
    bytes, read once.  The bytes must be strict UTF-8; a byte-order mark is
    a JSON error."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return data, hashlib.sha256(raw).hexdigest()


def _build_presheaf(algebra, N: int):
    if isinstance(algebra, alg.GMonoid):
        return ps.build_ggamma_set(algebra, N)
    return ps.build_gamma_set(algebra, N)


def _meta(args, digest: str, **config) -> dict:
    """Report metadata: the config, which holds the command, input, seed and
    format of every command beside its own options, and the input's sha256."""
    config = {"command": args.command, "input": args.input, **config,
              "seed": args.seed, "format": args.format}
    return {"version": __version__, "config": config, "seed": args.seed,
            "inputs": {args.input: digest}}


def _layout(count: int, item: str, inner: str, outer: str) -> str:
    """The indented json layout of a list of ``count`` copies of ``item``."""
    return "[" + inner + ("," + inner).join([item] * count) + outer + "]"


def _dumps(node, depth: int = 0) -> str:
    """``json.dumps(node, sort_keys=True, indent=2)`` byte for byte, at the
    indentation of ``depth``.  A list of plain ints (bools excluded) and a
    level of equal-length plain-int labels are each one ``%d`` format over
    the whole table; dicts with str keys recurse in sorted key order; any
    other node is encoded by json itself and re-indented."""
    nl = "\n" + "  " * depth
    inner = nl + "  "
    if type(node) is list and node:
        types = set(map(type, node))
        if types == {int}:
            return _layout(len(node), "%d", inner, nl) % tuple(node)
        if types == {list} and node[0] and len(set(map(len, node))) == 1:
            flat = tuple(itertools.chain.from_iterable(node))
            if set(map(type, flat)) == {int}:
                label = _layout(len(node[0]), "%d", inner + "  ", inner)
                return _layout(len(node), label, inner, nl) % flat
        return "[" + inner + ("," + inner).join([_dumps(v, depth + 1) for v in node]) + nl + "]"
    if type(node) is dict and node and set(map(type, node)) == {str}:
        return "{" + inner + ("," + inner).join(
            [json.dumps(k) + ": " + _dumps(node[k], depth + 1) for k in sorted(node)]) + nl + "}"
    if node and isinstance(node, (dict, list, tuple)):
        return json.dumps(node, sort_keys=True, indent=2).replace("\n", nl)
    return json.dumps(node)  # scalars and empty containers do not depend on indent


def _emit(report: dict, fmt: str, out: str | None, text_summary: str) -> None:
    if fmt == "json":
        payload = _dumps(report) + "\n"
    else:
        payload = text_summary if text_summary.endswith("\n") else text_summary + "\n"
    if out:
        tmp, opened = out + ".tmp", False
        try:
            with open(tmp, "w") as fh:
                opened = True
                fh.write(payload)
            os.replace(tmp, out)
        except OSError as exc:
            if opened:
                os.remove(tmp)
            raise InputError(f"cannot write {out}: {exc}") from exc
    elif sys.stdout is None:  # file descriptor 1 was closed when the run began
        raise InputError("cannot write stdout: file descriptor 1 is closed")
    else:
        try:
            sys.stdout.write(payload)
            sys.stdout.flush()  # a short report would fail only at exit otherwise
        except OSError as exc:
            # what stays buffered goes to the null device at exit, not into a second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InputError(f"cannot write stdout: {exc}") from exc


def _functoriality_probe(X, seed: int, pairs: int = 50) -> dict:
    """Seeded spot check that the derived action is functorial; presheaves
    backed only by stored tables cannot serve arbitrary composites."""
    if X.table_backed:
        return {"passed": None, "pairs": 0,
                "witness": "skipped: presheaf stores only the canonical morphism family"}
    rng = random.Random(seed)
    upper = min(X.N, 3)
    checked = 0
    for _ in range(pairs):
        m, n, p = (rng.randint(0, upper) for _ in range(3))
        f = gc.GammaOpMap(m, n, (0,) + tuple(rng.randint(0, n) for _ in range(m)))
        g = gc.GammaOpMap(n, p, (0,) + tuple(rng.randint(0, p) for _ in range(n)))
        if X.group is not None:
            f = gg.GGammaMap(f, rng.randrange(X.group.size), X.group)
            g = gg.GGammaMap(g, rng.randrange(X.group.size), X.group)
            composite = gg.compose(g, f)
        else:
            composite = gc.compose(g, f)
        after = X.action_table(g)
        direct = X.action_table(composite)
        via = [after[y] for y in X.action_table(f)]
        if direct != via:
            x = X.level(m)[next(k for k, (a, b) in enumerate(zip(direct, via)) if a != b)]
            return {"passed": False, "pairs": checked,
                    "witness": f"{composite.key()} on {x!r}"}
        checked += 1
    return {"passed": True, "pairs": checked, "witness": None}


def _require_positive(**bounds) -> None:
    for name, value in bounds.items():
        if value is not None and value < 1:
            raise InputError(f"--{name} must be positive, got {value}")


def cmd_build(args) -> int:
    _require_positive(levels=args.levels)
    data, digest = _load_json(args.input)
    algebra = alg.from_json(data)
    X = _build_presheaf(algebra, args.levels)
    budget = _default_budget()
    # the report holds every label at once, and a table of |X_n| entries for
    # each map it stores out of level n: the 2n - 1 Segal and Bousfield maps
    # of a level n >= 2, each also named by its n + 1 values, the group
    # actions (or, at --levels 1, the fold) on level 1, and the unit's
    entries, actions = 0, X.group.size if X.group is not None else args.levels == 1
    for n in range(args.levels + 1):
        maps = (1, actions)[n] if n < 2 else 2 * n - 1
        entries += (n + maps) * X.level_size(n) + (n >= 2) * maps * (n + 1)
        if entries > budget:
            raise BudgetError(f"--levels {args.levels}: predicted {entries} label, key "
                              f"and table entries exceeds budget {budget}")
    report = ps.presheaf_to_json(X)
    report["meta"] = _meta(args, digest, levels=args.levels)
    report["functoriality_probe"] = _functoriality_probe(X, args.seed)
    sizes = [len(level) for level in report["levels"]]
    _emit(report, args.format, args.out,
          f"built {report['kind']} presheaf, levels {sizes}")
    return EXIT_PASS


def cmd_check(args) -> int:
    if args.upto is not None and args.upto < 0:
        raise InputError(f"--upto must be nonnegative, got {args.upto}")
    data, digest = _load_json(args.input)
    X = ps.presheaf_from_json(data)
    kind = "bousfield" if args.bousfield else "segal"
    upto = args.upto if args.upto is not None else X.N
    check = (ps.check_strict_bousfield if args.bousfield else ps.check_strict_segal)(X, upto)
    report = {"meta": _meta(args, digest, condition=kind, upto=upto), "check": check.as_dict()}
    verdict = "pass" if check.passed else f"FAIL at n={check.failed_at}: {check.witness}"
    _emit(report, args.format, args.out, f"strict {kind} up to {upto}: {verdict}")
    return EXIT_PASS if check.passed else EXIT_CHECK_FAILED


def _roundtrip(X, reference) -> dict:
    """Extract the algebra again, through Segal and, when it holds, through
    Bousfield, and compare its tables (and action) with the reference."""
    equivariant = X.group is not None

    def tables(algebra):
        return (algebra.monoid.index_table(), algebra.action) if equivariant \
            else algebra.index_table()

    extracted = (ps.extract_g_monoid if equivariant else ps.extract_monoid)(X)
    segal = ps.check_strict_segal(X, min(X.N, 2))
    bousfield = ps.check_strict_bousfield(X, min(X.N, 2))
    result = {"segal": segal.as_dict(), "bousfield": bousfield.as_dict(),
              "tables_identical": tables(extracted) == tables(reference)}
    if bousfield.passed:
        regroup = (ps.extract_g_group_bousfield if equivariant else ps.extract_group_bousfield)(X)
        result["bousfield_roundtrip_identical"] = tables(regroup) == tables(reference)
    return result


def cmd_roundtrip(args) -> int:
    data, digest = _load_json(args.input)
    if "kind" in data and data["kind"] in ("gamma", "ggamma"):
        X = ps.presheaf_from_json(data)
        reference = X.algebra
        if reference is None:
            raise InputError("presheaf file carries no source algebra to compare against")
    else:
        reference = alg.from_json(data)
        _require_positive(levels=args.levels)
        X = _build_presheaf(reference, args.levels)
    result = _roundtrip(X, reference)
    result["functoriality_probe"] = _functoriality_probe(X, args.seed)
    report = {"meta": _meta(args, digest, levels=args.levels), "roundtrip": result}
    identical = result["tables_identical"]
    _emit(report, args.format, args.out,
          "roundtrip exact" if identical else "roundtrip MISMATCH")
    return EXIT_PASS if identical else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    _require_positive(iterate=args.iterate, dim=args.dim, budget=args.budget)
    if args.homology < 0 or args.at < 0:
        raise InputError("--homology and --at must be nonnegative")
    if args.at > 1:
        raise InputError(f"--at must be 0 or 1, got {args.at}")
    data, digest = _load_json(args.input)
    if not ("kind" in data and data["kind"] in ("gamma", "ggamma")):
        raise InputError("classify expects a presheaf file produced by build")
    stored = ps.presheaf_from_json(data)
    if stored.algebra is None:
        raise InputError("presheaf file carries no source algebra; rebuild it with build")
    budget = args.budget if args.budget is not None else _default_budget()
    if args.at and args.homology + 1 > args.dim:
        raise TruncationError(f"homology through degree {args.homology} needs dimension "
                              f"{args.homology + 1}, given {args.dim}", required=args.homology + 1)
    # at the zero object every level is the point, whatever the iteration count
    k = args.iterate if args.at else 1
    # lazy; a walked bar reads no level m >= 1 past budget: 2**m simplices or m label entries
    X = _build_presheaf(stored.algebra, max(stored.N, budget))
    B = cb.iterate_bar(X, k, args.dim, n=args.at, budget=budget)
    ps.verify_stored(stored, data, X)

    report: dict = {"meta": _meta(args, digest, iterate=args.iterate, dim=args.dim,
                                  homology=args.homology, at=args.at, budget=budget)}

    if args.at == 0:
        sizes = B.space.level_sizes()
        report["evaluation_at_zero"] = {"is_point": sizes == [1] * (args.dim + 1), "levels": sizes}
        _emit(report, args.format, args.out,
              f"evaluation at the zero object: point with levels {sizes}")
        return EXIT_PASS

    deloop = cb.delooping_report(B, args.homology, budget)
    report["delooping"] = deloop.as_dict()
    if args.iterate == 1 and args.dim >= 2:
        report["structure_map"] = cb.structure_map(B).as_dict()
    homology_text = ", ".join(f"H_{q}={h}" for q, h in enumerate(deloop.homology))
    _emit(report, args.format, args.out,
          f"{args.iterate}-fold delooping at dim {args.dim}: {homology_text}")
    return EXIT_PASS


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaspaces",
        description="verify strictness conditions, algebra equivalences, and "
                    "delooping homology for finite presheaves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized probes")

    p_build = sub.add_parser("build", help="build a presheaf file from a monoid, group, or action file")
    common(p_build)
    p_build.add_argument("--levels", type=int, default=3, help="level bound N")

    p_check = sub.add_parser("check", help="check a strict condition on a presheaf file")
    common(p_check)
    cond = p_check.add_mutually_exclusive_group()
    cond.add_argument("--segal", action="store_true", help="check the strict Segal condition (default)")
    cond.add_argument("--bousfield", action="store_true", help="check the strict Bousfield condition")
    p_check.add_argument("--upto", type=int, default=None, help="largest level to check")

    p_round = sub.add_parser("roundtrip", help="build, extract, and compare Cayley tables")
    common(p_round)
    p_round.add_argument("--levels", type=int, default=3, help="level bound N when input is an algebra file")

    p_classify = sub.add_parser("classify", help="delooping homology and structure-map verdict")
    common(p_classify)
    p_classify.add_argument("--iterate", type=int, default=1, help="number of deloopings")
    p_classify.add_argument("--dim", type=int, default=3, help="simplicial truncation of the bar space")
    p_classify.add_argument("--homology", type=int, default=1, help="largest homology degree")
    p_classify.add_argument("--at", type=int, default=1, help="evaluation object: 0 (point report) or 1")
    p_classify.add_argument("--budget", type=int, default=None,
                            help=f"simplex and nonzero budget (default from ${DEFAULT_BUDGET_ENV} or {cb.DEFAULT_BUDGET})")
    return parser


def _fail(kind: str, exc: Exception | str, code: int) -> int:
    """Report a failure on one stderr line; a line break in the message,
    say from an element label read from the input, is written as \\n."""
    print(f"{kind}: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* takes effect
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        return _fail("input error", exc, EXIT_INPUT)
    except (AxiomError, StrictnessError, CompositionError, DisjointnessError) as exc:
        return _fail("algebra/extraction error", exc, EXIT_ALGEBRA)
    except (TruncationError, BudgetError) as exc:
        return _fail("resource error", exc, EXIT_RESOURCE)
    except MemoryError:
        pass  # the line is written once its traceback, and what filled memory, are freed
    return _fail("resource error", "out of memory", EXIT_RESOURCE)


if __name__ == "__main__":
    sys.exit(main())
