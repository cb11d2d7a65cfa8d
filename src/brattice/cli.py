"""Command-line front end.

Verbs: validate, telescope, dilate, reduce, pathspace, k0 (chain, phi,
member, positive, probe), corpus.  Inputs are bdspec files, bare matrix
files (integer rows), or corpus:NAME references.  Exit codes: 0 success,
1 domain verdict (not a member, rank deficient, ...), 2 usage or parse
error.  Valid command lines are read straight off the verb table; argparse
is loaded only for help, usage and errors.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import corpus as corpus_lib
from .config import read_uint
from .diagram import (
    dilate_step,
    format_bdspec,
    normalize_type2,
    read_input,
    telescope,
    validate_diagram,
    write_dot,
    zero_lines,
)
from .errors import BratticeError, NotUniqueMinimal, ParseError, RankDeficient
from .k0 import (
    Auto,
    Broken,
    ExplicitColumn,
    K0Witness,
    NotPositive,
    Positive,
    Realizer,
    WeightScheme,
    automorphism_probe,
    complete_chain,
    first_square,
    format_chain_dump,
)
from .pathspace import (
    LocallyConstantFunction,
    UserMap,
    build_minimal_diagram,
    compare_invariants,
    end_census,
    format_tree_dump,
    parse_tree_dump,
    strategy_from_string,
    write_tree_dot,
)
from .reduction import (
    first_minimal_reductions,
    minimal_reduce,
    minimal_reduce_square,
)


class UsageError(Exception):
    pass


def _parse_file(path, parse):
    """parse(text) of the file at `path`; a ParseError learns the path."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        exc.path = path
        raise


def _load_input(ref):
    """Returns ('diagram', BratteliDiagram) or ('matrix', MultiplicityMatrix)."""
    if ref.startswith("corpus:"):
        name = ref[len("corpus:"):]
        try:
            entry = corpus_lib.get(name)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        return entry.kind, entry.build()
    return _parse_file(ref, read_input)


def _need_diagram(ref, verb):
    kind, obj = _load_input(ref)
    if kind != "diagram":
        raise UsageError(f"{verb} needs a diagram, {ref} is a bare matrix")
    return obj


def _strategy(text):
    if text.startswith("map:"):
        return UserMap(_parse_file(text[len("map:"):], parse_tree_dump))
    try:
        return strategy_from_string(text)
    except ValueError as exc:
        raise UsageError(f"bad --strategy value: {exc}") from None


def _parse_func(text, diagram):
    head, sep, rest = text.partition(":")
    key, eq, depth = head.strip().partition("=")
    depth = _values(depth, "--func", integer) if sep and eq and key == "depth" else ()
    if len(depth) != 1:
        raise UsageError(f"--func must look like 'depth=N: v1 v2 ...', got {text!r}")
    (depth,) = depth
    values = _values(rest, "--func")
    if depth < 0:
        raise UsageError(f"--func depth must be >= 0, got {depth}")
    # depths past the diagram keep their DepthExceeded verdict
    if depth <= diagram.level_bound():
        width = diagram.level_count(depth)
        if len(values) != width:
            raise UsageError(
                f"--func at depth {depth} needs {width} values, got {len(values)}"
            )
    return LocallyConstantFunction(depth, values)


def integer(tok):
    """An optional '-', then the ASCII digits read_uint takes."""
    try:
        return -read_uint(tok[1:]) if tok[:1] == "-" else read_uint(tok)
    except ValueError:
        raise ValueError(f"{tok!r} is not an integer") from None


def rational(tok):
    """[-]N or [-]N/D, the denominator unsigned and nonzero."""
    num, slash, den = tok.partition("/")
    num, den = integer(num), read_uint(den) if slash else 1
    if not den:
        raise ValueError(f"{tok!r} has a zero denominator")
    return Fraction(num, den)


def _values(text, flag, convert=rational):
    """The comma- or space-separated values of a flag, each through convert;
    a bad one is a usage error naming the flag."""
    try:
        return tuple(map(convert, text.replace(",", " ").split()))
    except ValueError as exc:
        raise UsageError(f"bad {flag} value: {exc}") from None


def _depth(args, diagram):
    """--depth when it is given, 0 included; else the diagram's default,
    six levels of a tail."""
    if args.depth is not None:
        return args.depth
    return diagram.default_depth(6)


def _write_file(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {path}")


def _emit(args, payload, *lines):
    """The payload as one JSON line under --json, else the text lines."""
    if args.json:
        import json  # only the --json verbs pay for loading it

        print(json.dumps(payload, sort_keys=True))
    else:
        print(*lines, sep="\n")


def _fmt_vec(vec):
    return " ".join(str(x) for x in vec)


# ---------------------------------------------------------------------------
# verbs


def cmd_validate(args):
    kind, obj = _load_input(args.input)
    if kind == "matrix":
        _refuse(args, "a diagram input", "--dot", "--depth")
        issues = zero_lines(obj)
    else:
        issues = validate_diagram(obj, args.depth)
        if args.dot:
            _write_file(args.dot, write_dot(obj, _depth(args, obj)))
    lines = [f"violation: {issue}" for issue in issues] or ["valid"]
    _emit(args, {"input": args.input, "issues": issues, "valid": not issues}, *lines)
    return 1 if issues else 0


def cmd_telescope(args):
    diagram = _need_diagram(args.input, "telescope")
    return _write_bdspec(args, telescope(diagram, _values(args.levels, "--levels", integer)))


def cmd_dilate(args):
    diagram = _need_diagram(args.input, "dilate")
    if args.level is not None:
        _refuse(args, "a normalized diagram, which --level does not build", "--dot")
        order, factors = dilate_step(diagram.matrix(args.level))
        print(f"row order: {_fmt_vec(order)}")
        for k, fac in enumerate(factors, start=1):
            print(f"factor {k}:")
            for row in fac.rows:
                print("  " + _fmt_vec(row))
        return 0
    return _write_bdspec(args, normalize_type2(diagram))


def _write_bdspec(args, diagram):
    """A built diagram as bdspec on stdout, and drawn under --dot."""
    sys.stdout.write(format_bdspec(diagram))
    if args.dot:
        _write_file(args.dot, write_dot(diagram, diagram.explicit_depth))
    return 0


def _refuse(args, needs, *options):
    """A usage error for the first of these options (`--dest`) or actions
    (`k0 name`) that the line gives, when the input at hand cannot use it."""
    for option in options:
        value = args.action == option[3:] if option.startswith("k0 ") else getattr(args, option[2:], None)
        if value is not None and value is not False:  # --depth 0 is given
            raise UsageError(f"{option} needs {needs}")


def cmd_reduce(args):
    kind, obj = _load_input(args.input)
    if kind == "matrix":
        return _reduce_matrix(obj, args)
    _refuse(args, "a matrix input", "--enumerate", "--json")
    strat = _strategy(args.strategy or "theorem")
    tree = build_minimal_diagram(obj, strat)
    depth = _depth(args, obj)
    sys.stdout.write(format_tree_dump(tree, depth))
    if args.dot:
        _write_file(args.dot, write_tree_dot(tree, depth))
    return 0


def _reduce_matrix(mat, args):
    _refuse(args, "a diagram input", "--dot", "--depth", "--strategy")
    if args.enumerate is not None:
        shown, count = first_minimal_reductions(mat, args.enumerate)
        lines = [f"map: {_fmt_vec(parents)}" for parents in shown] + [f"{count} reductions total"]
        _emit(args, {"count": count, "maps": [list(p) for p in shown]}, *lines)
        return 0 if count else 1
    try:
        if mat.nrows == mat.ncols:
            outcome = minimal_reduce_square(mat)
        else:
            outcome = minimal_reduce(mat)
    except RankDeficient:
        _, found = first_minimal_reductions(mat, 0)
        msg = f"rank deficient; brute force found {found} reductions"
        _emit(args, {"error": msg, "reductions": found}, msg)
        return 1
    payload = {"branch_column": outcome.branch_col, "method": outcome.method, "parents": list(outcome.parents)}
    lines = [f"parents: {_fmt_vec(outcome.parents)}", f"method: {outcome.method}"]
    if outcome.branch_col is not None:
        lines.insert(1, f"branch column: {outcome.branch_col}")
    _emit(args, payload, *lines)
    return 0


def cmd_pathspace(args):
    diagram = _need_diagram(args.input, "pathspace")
    tree = build_minimal_diagram(diagram, _strategy(args.strategy))
    census = end_census(tree, args.depth)
    payload = {
        "certified": census.certified,
        "condensation": census.condensation,
        "count": census.count,
        "kind": census.kind,
        "strategy": args.strategy,
    }
    lines = [f"census[{args.strategy}]: {census.summary()}"]
    if args.census:
        lines.append(f"  kind: {census.kind}")
        lines.append(f"  count: {'infinite' if census.count is None else census.count}")
        lines.append(f"  condensation: {census.condensation}")
        lines.append(f"  certified: {'yes' if census.certified else 'no'}")
        if census.depth_examined is not None:
            lines.append(f"  depth examined: {census.depth_examined}")
    if args.compare:
        # compared before anything prints, so a refusal prints no half verdict
        other = build_minimal_diagram(diagram, _strategy(args.compare))
        payload["comparison"] = verdict = compare_invariants(tree, other, args.depth)
        lines.append(f"comparison[{args.strategy} vs {args.compare}]: {verdict}")
    _emit(args, payload, *lines)
    if args.dot:
        _write_file(args.dot, write_tree_dot(tree, _depth(args, diagram)))
    return 0


def _realizer(args, diagram, depth=None, alpha=()):
    """The realizer a k0 action reads, once the line passes the refusals: the
    weight scheme under --weight, and for k0 probe without --column where
    it reaches `depth` (--strategy goes unread); else a chain completed
    from --column to `depth` (on type1 or for None, --depth or the default)
    and read through the --strategy tree, or none on type1 or for k0 chain.
    A type1 chain takes `alpha`, phi's vector, at its level's width."""
    type1 = diagram.shape.kind == "type1"
    if type1:
        _refuse(
            args,
            f"levels that branch; {args.input} is type1, whose chain realizes only through k0 phi",
            "--weight", "k0 member", "k0 positive", "k0 probe",
        )
        _refuse(args, "levels that branch; a type1 chain takes its squares as they are", "--column", "--strategy")
    elif args.action == "phi":
        _refuse(args, "a type1 diagram; elsewhere the depth follows --alpha", "--depth")
    if args.weight:
        _refuse(
            args,
            "a completion other than --weight, which fixes its own columns, tree and positivity level",
            "--column", "--bound", "--strategy",
        )
    if depth is None or type1:
        depth = _depth(args, diagram)
    if args.action != "chain" and (args.weight or args.action == "probe" and not args.column):
        scheme = WeightScheme(diagram)
        try:
            return Realizer(scheme, scheme.ensure_depth(depth).tree)  # uniqueness is checked lazily
        except NotUniqueMinimal:
            if args.weight:
                raise
    tree = None
    if not (type1 or args.action == "chain"):
        tree = build_minimal_diagram(diagram, _strategy(args.strategy or "theorem"))
    start = first_square(diagram)
    if depth <= start:
        raise UsageError(f"a chain to level {depth} of {args.input} holds no square; its squares start at matrix {start}")
    if type1 and len(alpha) not in (0, diagram.shape.width):
        raise UsageError(f"--alpha on a type1 diagram needs {diagram.shape.width} values, got {len(alpha)}")
    if args.weight:  # k0 chain --weight
        return Realizer(WeightScheme(diagram).chain(depth), tree)
    hints = [ExplicitColumn(_values(args.column, "--column", integer))] if args.column else Auto()
    return Realizer(complete_chain(diagram, hints, depth), tree)


def cmd_k0_chain(args):
    diagram = _need_diagram(args.input, "k0 chain")
    sys.stdout.write(format_chain_dump(_realizer(args, diagram).chain))
    return 0


def cmd_k0_phi(args):
    diagram = _need_diagram(args.input, "k0 phi")
    alpha = _values(args.alpha, "--alpha")
    if not alpha:
        raise UsageError("--alpha needs at least one value")
    func = _realizer(args, diagram, max(len(alpha) - 1, 1), alpha).phi(alpha)
    print(f"func depth={func.depth}: {_fmt_vec(func.values)}")
    return 0


def cmd_k0_member(args):
    diagram = _need_diagram(args.input, "k0 member")
    func = _parse_func(args.func, diagram)
    verdict = _realizer(args, diagram, max(func.depth, 1)).membership(func)
    if isinstance(verdict, K0Witness):
        payload = {"depth": verdict.depth, "member": True, "witness": [str(x) for x in verdict.alpha]}
        _emit(args, payload, f"member: witness depth={verdict.depth}: {_fmt_vec(verdict.alpha)}")
        return 0
    depth = verdict.depth_checked
    _emit(args, {"depth": depth, "member": False}, f"NOT a member (checked exactly at depth {depth})")
    return 1


def cmd_k0_positive(args):
    diagram = _need_diagram(args.input, "k0 positive")
    func = _parse_func(args.func, diagram)
    verdict = _realizer(args, diagram, max(func.depth, 1)).positivity(func, args.bound)
    if isinstance(verdict, Positive):
        payload = {"level": verdict.level, "positive": True, "witness": [str(x) for x in verdict.witness]}
        _emit(args, payload, f"positive at level {verdict.level}: {_fmt_vec(verdict.witness)}")
        return 0
    if isinstance(verdict, NotPositive):
        msg = "not positive (definitive)"
    else:
        msg = f"no nonnegative pushforward up to level {verdict.level}"
    _emit(args, {"positive": False, "detail": msg}, msg)
    return 1


def _probe_theta(args, count):
    if args.perm and args.swap:
        raise UsageError("k0 probe takes --swap I J or --perm LIST, not both")
    if args.perm:
        images = _values(args.perm, "--perm", integer)
    elif args.swap:
        i, j = args.swap
        if not (1 <= i <= count and 1 <= j <= count):
            raise UsageError(f"--swap indices must lie in 1..{count}")
        images = list(range(1, count + 1))
        images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
        images = tuple(images)
    else:
        raise UsageError("k0 probe needs --swap I J or --perm LIST")
    if sorted(images) != list(range(1, count + 1)):
        raise UsageError(f"--perm must permute 1..{count}")
    return images


def cmd_k0_probe(args):
    diagram = _need_diagram(args.input, "k0 probe")
    depth = min(3, diagram.level_bound()) if args.depth is None else args.depth
    realizer = _realizer(args, diagram, depth)
    theta = _probe_theta(args, realizer.tree.level_count(depth))
    verdict = automorphism_probe(theta, realizer, depth)
    if isinstance(verdict, Broken):
        witness, image = verdict.witness, verdict.image
        _emit(
            args,
            {"broken": True, "image": [str(x) for x in image.values], "witness": [str(x) for x in witness.values]},
            "Broken:",
            f"  witness depth={witness.depth}: {_fmt_vec(witness.values)}",
            f"  image   depth={image.depth}: {_fmt_vec(image.values)}",
        )
        return 1
    _emit(args, {"broken": False, "checked": verdict.checked}, f"preserved across {verdict.checked} candidates")
    return 0


def cmd_corpus(args):
    entries = corpus_lib.ENTRIES
    if args.name:
        entries = [e for e in entries if e.name == args.name]
        if not entries:
            raise UsageError(f"no corpus entry {args.name!r}")
    if args.list:
        payload = {
            "entries": [{"description": e.description, "kind": e.kind, "name": e.name} for e in entries]
        }
        _emit(args, payload, *(f"{e.name}: {e.description} [{e.kind}]" for e in entries))
        return 0
    rows = []
    lines = []
    for entry in entries:
        for field, tag, ok in corpus_lib.verify(entry):
            rows.append({"entry": entry.name, "field": field, "ok": ok, "tag": tag})
            mark = "ok   " if ok else "DRIFT"
            lines.append(f"{mark} {entry.name:12s} {field:32s} [{tag}]")
    drift = sum(not row["ok"] for row in rows)
    lines.append(f"{drift} record(s) drifted" if drift else f"all {len(rows)} records reproduced")
    _emit(args, {"drift": drift, "records": rows}, *lines)
    return 1 if drift else 0


# ---------------------------------------------------------------------------
# wiring


def _input_arg(text):
    """The input argument.  argparse reads a token that holds a space and
    names no option of the verb as a positional, so an option the verb does
    not take, such as `--func=depth=0: 1`, would reach here as a path."""
    name = text.partition("=")[0]
    table = [*VERBS.values(), *K0_ACTIONS.values()]
    if any(name == flag for _, _, arguments in table for flag, _ in arguments):
        import argparse  # only argparse calls this

        raise argparse.ArgumentTypeError(f"{name} is not an option of this command")
    return text


# One table drives dispatch, the direct reader and the argparse fallback.
# An argument is (name, add_argument keywords); a verb is (help, target,
# arguments), and its target is a handler or, for k0, a table of actions.
# An entry lists only the options its handler reads, so any other option
# is a usage error.
_INPUT = ("input", {"type": _input_arg, "help": "bdspec file, bare matrix file, or corpus:NAME"})
_DEPTH = ("--depth", {"type": integer})
_DOT = ("--dot", {"metavar": "FILE"})
_JSON = ("--json", {"action": "store_true"})
_FUNC = ("--func", {"required": True, "help": "'depth=N: v1 v2 ...'"})
_K0_INPUT = ("input", {"type": _input_arg, "help": "bdspec file or corpus:NAME"})
_COLUMN = ("--column", {"help": "explicit level-0 completion column, e.g. '0,1'"})
_WEIGHT = ("--weight", {"action": "store_true", "help": "use the weight scheme"})
_STRATEGY = ("--strategy", {"help": "tree a completed chain is read through (default: theorem)"})
# the actions that build a chain to a depth and a reduced tree
_K0_TREE = (_K0_INPUT, _DEPTH, _STRATEGY, _COLUMN, _WEIGHT)

K0_ACTIONS = {
    "chain": ("completed chain dump", cmd_k0_chain, (_K0_INPUT, _DEPTH, _COLUMN, _WEIGHT)),
    "phi": (
        "realize a vector as a boundary function",
        cmd_k0_phi,
        _K0_TREE + (("--alpha", {"required": True, "help": "vector, e.g. '1,2,3'"}),),
    ),
    "member": (
        "exact membership test",
        cmd_k0_member,
        (_K0_INPUT, _STRATEGY, _COLUMN, _WEIGHT, _JSON, _FUNC),
    ),
    "positive": (
        "positivity scan",
        cmd_k0_positive,
        (_K0_INPUT, _STRATEGY, _COLUMN, _WEIGHT, _JSON, _FUNC, ("--bound", {"type": integer, "help": "last level to scan"})),
    ),
    "probe": (
        "vertex-relabeling automorphism probe",
        cmd_k0_probe,
        _K0_TREE
        + (
            _JSON,
            ("--swap", {"type": integer, "nargs": 2, "metavar": ("I", "J")}),
            ("--perm", {"help": "full image list, e.g. '2,1,3'"}),
        ),
    ),
}

VERBS = {
    "validate": (
        "check diagram invariants",
        cmd_validate,
        (
            _INPUT,
            ("--depth", {"type": integer, "help": "levels to materialize"}),
            ("--dot", {"metavar": "FILE", "help": "write a DOT rendering"}),
            _JSON,
        ),
    ),
    "telescope": (
        "recombine onto a subset of levels",
        cmd_telescope,
        (_INPUT, ("--levels", {"required": True, "help": "comma-separated, starting at 0"}), _DOT),
    ),
    "dilate": (
        "split tall steps into single-growth factors",
        cmd_dilate,
        (_INPUT, ("--level", {"type": integer, "help": "dilate one matrix instead of normalizing"}), _DOT),
    ),
    "reduce": (
        "minimal reduction of a matrix or whole diagram",
        cmd_reduce,
        (
            _INPUT,
            ("--strategy", {"help": "diagram inputs only (default: theorem)"}),
            ("--enumerate", {"type": integer, "metavar": "N", "help": "list the first N valid maps"}),
            _DEPTH,
            _DOT,
            _JSON,
        ),
    ),
    "pathspace": (
        "end census of the minimal sub-diagram boundary",
        cmd_pathspace,
        (
            _INPUT,
            ("--strategy", {"default": "theorem"}),
            ("--census", {"action": "store_true", "help": "print the full census record"}),
            ("--compare", {"metavar": "STRATEGY", "help": "census comparison verdict"}),
            _DEPTH,
            _DOT,
            _JSON,
        ),
    ),
    "k0": ("dimension group operations", K0_ACTIONS, ()),
    "corpus": (
        "re-derive every frozen corpus record",
        cmd_corpus,
        (
            ("--name", {"help": "run one entry"}),
            ("--list", {"action": "store_true", "help": "list entries instead"}),
            _JSON,
        ),
    ),
}


def build_parser():
    """The argparse parser of the table, for help, usage and errors."""
    import argparse  # valid command lines never need it

    parser = argparse.ArgumentParser(
        prog="brattice",
        description="Exact-arithmetic toolkit for Bratteli diagrams.",
    )
    _add_verbs(parser, "verb", VERBS)
    return parser


def _add_verbs(parser, dest, table):
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, target, arguments) in table.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        if isinstance(target, dict):
            _add_verbs(p, "action", target)


def _read_argv(argv):
    """The namespace argparse would return for argv, read straight off the
    table; None for anything it is not sure of: help, `--`, abbreviations,
    a spaced value that starts with '-', a repeated option, a stray token,
    a missing argument or a bad int.  argparse handles those."""
    if not argv or argv[0] not in VERBS:
        return None
    values = {"verb": argv[0]}
    _, target, arguments = VERBS[argv[0]]
    rest = argv[1:]
    if isinstance(target, dict):
        if not rest or rest[0] not in target:
            return None
        values["action"] = rest[0]
        _, _, arguments = target[rest[0]]
        rest = rest[1:]
    options = {name: kw for name, kw in arguments if name[0] == "-"}
    positional = next((name for name, _ in arguments if name[0] != "-"), None)
    i = 0
    while i < len(rest):
        tok = rest[i]
        i += 1
        if tok[:1] != "-":
            if positional is None or positional in values:
                return None
            values[positional] = tok
            continue
        name, eq, value = tok.partition("=")
        kw = options.get(name)
        dest = name.lstrip("-")
        if kw is None or dest in values:
            return None
        if kw.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        count = kw.get("nargs", 1)
        if eq:
            raw = [value]
        else:
            raw = rest[i:i + count]
            i += count
            if any(v[:1] == "-" for v in raw):
                return None
        if len(raw) != count:
            return None
        try:
            got = [kw.get("type", str)(v) for v in raw]
        except ValueError:
            return None
        values[dest] = got if "nargs" in kw else got[0]
    for name, kw in arguments:
        dest = name.lstrip("-")
        if dest not in values:
            if kw.get("required") or name == positional:
                return None
            values[dest] = kw.get("default", False if kw.get("action") else None)
    return SimpleNamespace(**values)


# flags whose value is a vector that may start with a negative entry
_VECTOR_FLAGS = ("--alpha", "--perm", "--column")


def _attach_negative_vectors(argv):
    """`--alpha -5,2` as `--alpha=-5,2`: argparse takes a value that starts
    with '-' and is not a plain number for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in _VECTOR_FLAGS and tok[:1] == "-" and "0" <= tok[1:2] <= "9":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    """Run one command and return its exit code.  A reader that closes
    stdout early ends the run quietly with exit 1, as Python exits on EPIPE."""
    try:
        try:
            return _run(sys.argv[1:] if argv is None else argv)
        finally:
            # a closed reader shows up here at the latest, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would fail again: point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv):
    argv = _attach_negative_vectors(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
    # exact integers print in full: lift the int/str digit cap of
    # Python 3.11+ for this call, and put it back for the caller
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        for flag in ("depth", "level", "enumerate", "bound"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise UsageError(f"--{flag} needs N >= 0, got {value}")
        target = VERBS[args.verb][1]
        if isinstance(target, dict):
            target = target[args.action][1]
        return target(args)
    except ParseError as exc:
        print(f"parse error: {exc.path}: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BratticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
