"""Command-line surface: cf, polarize, graph, pierced, betti, invert, chordal, generate, validate."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string

from .betti import betti_recursive, invert_graded, invert_multigraded, multigraded_betti_closed
from .betti import BettiTable
from .codes import MAX_NEURONS, LineReader, delete_neuron, mask_of, parse_code, serialize_code, validate_code
from .graphs import all_elimination_orderings, chordality, parse_graph, render_dot, render_graph
from .graphs import chordless_cycle_witness, relationship_graph
from .oracle import GuardExceeded, betti_table_oracle
from .piercing import (
    PiercingOrder,
    build_code,
    is_inductively_pierced,
    is_inductively_pierced_fast,
    piercing_profile,
    random_pierced_code,
    steps_for_order,
)
from .polarization import PiercingStep, parse_ideal, polarized_ideal
from .pseudomonomials import canonical_form

OK, INPUT_ERROR, MISMATCH = 0, 2, 3

# upper bound on betti --threads, checked before any input is read or worker started
MAX_THREADS = 64
# chordal checks profile invariance over every elimination ordering up to this many vertices
PROFILE_CHECK_MAX_VERTICES = 8


class CrossCheckMismatch(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


@dataclass
class RunReport:
    """Deterministically serializable run record for golden-file tests.

    `main` creates one per call and passes it to the command, which fills it
    and returns its human-readable output.
    """

    command: str
    input_digest: str | None = None
    output: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        """The bytes of `json.dumps(vars(self), indent=2, sort_keys=True)`, built by `_json`."""
        return _json(vars(self), "")


def _json(value, indent: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for a value nested at indent.

    With `indent` set, `json.dumps` falls back to its pure-Python encoder;
    this writer calls the C string escaper and joins a list of ints with no
    call per item. It takes str-keyed dicts, lists, str, int, bool and None,
    and refuses any other type with TypeError.
    """
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is not list and kind is not dict:
        raise TypeError(f"a run report holds no {kind.__name__}")
    if not value:
        return "[]" if kind is list else "{}"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list:
        kinds = set(map(type, value))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    # the C escaper raises TypeError on a key that is no str
    body = sep.join([_string(k) + ": " + _json(value[k], inner) for k in sorted(value)])
    return "{\n" + inner + body + "\n" + indent + "}"


def _read(path: str, report: RunReport) -> str:
    """Text of the input file; its SHA-256 becomes the report's input digest."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    report.input_digest = hashlib.sha256(text.encode()).hexdigest()
    return text


def _load_code(args, report: RunReport):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = parse_code(_read(args.codefile, report))
    report.warnings += [str(w.message) for w in caught]
    if getattr(args, "strip_silent", False):
        diag = validate_code(code)
        for i in reversed(diag.silent):
            code = delete_neuron(code, i)
        if diag.silent:
            report.warnings.append(f"stripped silent neurons {list(diag.silent)} (reindexed)")
    return code


def cmd_cf(args, report: RunReport) -> str:
    code = _load_code(args, report)
    terms = [f.render() for f in canonical_form(code)]
    report.output = {"n": code.n, "canonical_form": terms}
    return "\n".join(terms or ["0"])


def cmd_polarize(args, report: RunReport) -> str:
    """The polarized ideal as an ideal file, which `betti --ideal` reads back."""
    code = _load_code(args, report)
    ideal = polarized_ideal(canonical_form(code), code.n)
    gens = [g.render() for g in ideal.gens]
    report.output = {"n": ideal.n, "generators": gens}
    return "\n".join([f"n={ideal.n}", *(gens or ["0"])])


def cmd_graph(args, report: RunReport) -> str:
    code = _load_code(args, report)
    g = relationship_graph(polarized_ideal(canonical_form(code), code.n))
    report.output = {"n": g.n, "edges": sorted(list(e) for e in g.edges)}
    return render_dot(g) if args.dot else render_graph(g)


def cmd_validate(args, report: RunReport) -> str:
    code = _load_code(args, report)
    diag = validate_code(code)
    report.output = {
        "n": code.n,
        "clean": diag.clean,
        "silent": list(diag.silent),
        "duplicate_pairs": [list(p) for p in diag.duplicate_pairs],
    }
    lines = [f"n={code.n}"]
    lines.append("silent neurons: " + (" ".join(map(str, diag.silent)) if diag.silent else "none"))
    lines.append(
        "duplicate pairs: "
        + (" ".join(f"({i},{j})" for i, j in diag.duplicate_pairs) if diag.duplicate_pairs else "none")
    )
    return "\n".join(lines)


def cmd_pierced(args, report: RunReport) -> str:
    code = _load_code(args, report)
    if args.order is not None:
        # checked before any work
        try:
            perm = [int(tok) for tok in args.order.split(",")]
        except ValueError:
            perm = None
        if perm is None or sorted(perm) != list(range(1, code.n + 1)):
            raise ValueError(f"--order expects a comma-separated permutation of 1..{code.n}, got {args.order!r}")
    fast = is_inductively_pierced_fast(code)
    order = None
    if args.order is not None:
        order = steps_for_order(code, perm)
        if order is None:
            report.output = {"pierced": fast.pierced, "order_accepted": False}
            return f"order {args.order} is not a piercing order"
    elif fast.pierced or args.certify:
        order = is_inductively_pierced(code)
    # order stays None only when the fast verdict is negative and --certify is off
    if (order is not None) != fast.pierced:
        raise CrossCheckMismatch(
            f"definitional verdict {order is not None} vs quadratic+chordal verdict {fast.pierced}"
            f" on {args.codefile}"
        )
    if not fast.pierced:
        report.output = {"pierced": False, "reason": fast.reason, "cf_degrees": list(fast.cf_degrees)}
        return f"not inductively pierced ({fast.reason})"
    profile = piercing_profile(order)
    steps = [s.render() for s in order.steps]
    report.output = {
        "pierced": True,
        "order": list(order.order),
        "jk": list(profile.jk),
        "jkl": [[k, l, c] for (k, l), c in profile.jkl],
        "steps": steps,
    }
    head = (
        "inductively pierced; order "
        + ",".join(map(str, order.order))
        + "; "
        + profile.render_marginals()
    )
    return "\n".join([head, profile.render(), "\n".join(steps)])


def betti_tables(code, methods=("formula", "recursion", "oracle"), order=None, threads=1) -> dict[str, BettiTable]:
    """The Betti table of `code` by each route in `methods`, keyed by route.

    The formula and the recursion follow the piercing order `order`; when it
    is None, the peel finds one. The oracle runs its sweep on `threads` workers.
    """
    tables: dict[str, BettiTable] = {}
    if order is None and ("formula" in methods or "recursion" in methods):
        order = is_inductively_pierced(code)
        if order is None:
            raise ValueError("the formula and recursion methods require an inductively pierced code")
    for method in methods:
        if method == "formula":
            tables[method] = multigraded_betti_closed(piercing_profile(order))
        elif method == "recursion":
            tables[method] = betti_recursive(order)
        else:
            ideal = polarized_ideal(canonical_form(code), code.n)
            tables[method] = betti_table_oracle(ideal, threads=threads)
    return tables


def agreed_table(tables: dict[str, BettiTable], source) -> BettiTable:
    """The table every route computed for `source`, raising CrossCheckMismatch where two differ.

    The report names the source, the first (w, u, v) where the tables
    differ with both counts, and both tables.
    """
    names = sorted(tables)
    first = tables[names[0]]
    for name in names[1:]:
        other = tables[name]
        if other != first:
            # every table is of the same code, so they differ in some entry
            keys = first.as_dict.keys() | other.as_dict.keys()
            key = min(k for k in keys if first.entry(*k) != other.entry(*k))
            raise CrossCheckMismatch(
                f"{names[0]} and {name} tables differ on {source}; first at (w, u, v) = {key}:"
                f" {names[0]} {first.entry(*key)}, {name} {other.entry(*key)}\n"
                f"{names[0]}: {first.to_json_dict()}\n{name}: {other.to_json_dict()}"
            )
    return first


def cmd_betti(args, report: RunReport) -> str:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ValueError(f"--threads must be between 1 and {MAX_THREADS}, got {args.threads}")
    if args.ideal:
        # checked before the file is read
        if args.codefile or args.strip_silent:
            raise ValueError("--ideal takes neither a code file nor --strip-silent")
        if args.method not in (None, "oracle"):
            raise ValueError("--ideal input supports only --method oracle")
        ideal = parse_ideal(_read(args.ideal, report))
        tables = {"oracle": betti_table_oracle(ideal, threads=args.threads)}
    elif args.codefile:
        methods = ("formula", "recursion", "oracle") if args.method in (None, "all") else (args.method,)
        tables = betti_tables(_load_code(args, report), methods, threads=args.threads)
    else:
        raise ValueError("pass a code file or --ideal")
    names = sorted(tables)
    first = agreed_table(tables, args.codefile)
    report.output = dict(first.to_json_dict(), methods=names)
    human = first.render_triangle()
    if len(names) > 1:
        human += "methods agree: " + ", ".join(names) + "\n"
    return human


def _int_entries(data: dict, key: str, width: int) -> dict:
    """The list under key, checked to hold lists of `width` integers, as a dict from position to count.

    A position listed twice is refused, so no copy silently wins.
    """
    rows = data[key]
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == width and all(type(x) is int for x in r) for r in rows
    ):
        raise ValueError(f"\"{key}\" entries must be lists of {width} integers")
    entries = {}
    for *position, count in rows:
        position = tuple(position)
        if position in entries:
            raise ValueError(f"\"{key}\" lists the entry {position} twice")
        entries[position] = count
    return entries


def cmd_invert(args, report: RunReport) -> str:
    try:
        data = json.loads(_read(args.bettifile, report))
    except RecursionError:
        raise ValueError("the Betti table file nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError("the top level of a Betti table file must be a JSON object")
    n = args.n if args.n is not None else data.get("n")
    if n is None:
        raise ValueError("neuron count missing: pass --n or include \"n\" in the file")
    # checked before any work: a table comes from a code of at most MAX_NEURONS neurons,
    # and each inversion builds its n base counts before it reads an entry
    if type(n) is not int or not 0 <= n <= MAX_NEURONS:
        raise ValueError(f"neuron count must be a nonnegative integer up to {MAX_NEURONS}, got {n!r}")
    report.output = {"n": n}
    lines = []
    if "multigraded" in data:
        table = BettiTable.from_dict(n, _int_entries(data, "multigraded", 4))
        profile = invert_multigraded(table)
        report.output["jkl"] = [[k, l, c] for (k, l), c in profile.jkl]
        report.output["jk"] = list(profile.jk)
        lines += [profile.render(), profile.render_marginals()]
    elif "graded" in data:
        jk = invert_graded(_int_entries(data, "graded", 3), n)
        report.output["jk"] = list(jk)
        lines.append(" ".join(f"j{k}={c}" for k, c in enumerate(jk)))
    else:
        raise ValueError("input file has neither a \"multigraded\" nor a \"graded\" field")
    return "\n".join(lines)


def checked_orderings(g, ordering, source) -> int:
    """The number of elimination orderings of `g`, each checked to share the profile of `ordering`.

    A differing profile raises CrossCheckMismatch, naming the source, both
    orderings and both profiles.
    """
    profile = ordering.profile()
    count = 0
    for other in all_elimination_orderings(g):
        count += 1
        other_profile = other.profile()
        if other_profile != profile:
            raise CrossCheckMismatch(
                f"elimination profiles differ on {source}: ordering {ordering.order}"
                f" has profile {profile}, ordering {other.order} has profile {other_profile}"
            )
    return count


def cmd_chordal(args, report: RunReport) -> str:
    g = parse_graph(_read(args.graphfile, report))
    ordering = chordality(g)
    if ordering is None:
        cycle = chordless_cycle_witness(g)
        report.output = {"chordal": False, "witness": list(cycle)}
        return "not chordal (chordless cycle " + "-".join(map(str, cycle)) + ")"
    profile = ordering.profile()
    report.output = {
        "chordal": True,
        "ordering": list(ordering.order),
        "profile": list(profile),
    }
    lines = [
        "chordal; elimination order " + ",".join(map(str, ordering.order)),
        "simplicial degree profile {" + ",".join(map(str, profile)) + "}",
    ]
    if g.n <= PROFILE_CHECK_MAX_VERTICES:
        count = checked_orderings(g, ordering, args.graphfile)
        report.output["orderings_checked"] = count
        report.output["profile_invariant"] = True
        lines.append(f"profile invariant across all {count} orderings")
    return "\n".join(lines)


_STEP_RE = re.compile(
    r"step\s+(\d+):\s*sigma=\{([0-9,\s]*)\}\s*tau=\{([0-9,\s]*)\}(?:\s+k=(\d+)\s+l=(\d+))?"
)


def parse_steps(text: str) -> PiercingOrder:
    """Read steps in the rendered format, e.g. "step 5: sigma={3} tau={2,3} k=1 l=1".

    The "k= l=" tail may be left out; where it is given it must read the
    step's own k and l as rendered, and nothing may follow it. Comments and
    the optional "n=" header follow LineReader; every index is capped at
    MAX_NEURONS before it becomes a bit. The steps must place each neuron
    1..n exactly once, n being the header's count, else the number of steps.
    """
    reader = LineReader(text, MAX_NEURONS)
    steps = []
    for line in reader:
        m = _STEP_RE.fullmatch(line)
        if m is None:
            raise reader.fail(f"not a piercing step: {line!r}")
        sigma, tau = (
            mask_of(reader.index(tok) for tok in csv.split(",") if tok.strip()) for csv in m.group(2, 3)
        )
        step = PiercingStep(reader.index(m.group(1)), sigma, tau)
        if m.group(4) is not None and m.group(4, 5) != (str(step.k), str(step.ell)):
            raise reader.fail(f"step {step.neuron} has k={step.k} l={step.ell}, not k={m.group(4)} l={m.group(5)}")
        steps.append(step)
    n = len(steps) if reader.declared is None else reader.declared
    placed = sorted(s.neuron for s in steps)
    if placed != list(range(1, n + 1)):
        raise ValueError(f"the steps place neurons {placed}, not each of 1..{n} once")
    return PiercingOrder(tuple(steps))


def cmd_generate(args, report: RunReport) -> str:
    if args.steps:
        # checked before the file is read
        if (args.n, args.kmax, args.seed) != (None, None, None):
            raise ValueError("--steps takes none of --n, --kmax and --seed")
        order = parse_steps(_read(args.steps, report))
        code = build_code(order.steps)
    else:
        if args.n is None:
            raise ValueError("pass --n (or --steps FILE)")
        order, code = random_pierced_code(args.n, kmax=args.kmax, seed=args.seed or 0)
    body = serialize_code(code)
    steps = [s.render() for s in order.steps]
    report.output = {
        "n": code.n,
        "code": body.splitlines(),
        "order": list(order.order),
        "steps": steps,
    }
    return body + "".join(f"# {s}\n" for s in steps)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later `main` call.

    Building it costs about as much as parsing and running a small command,
    so `main` reuses one parser per process. Reuse is safe: parsing keeps no
    state in the parser, no option has a mutable default, and each
    subcommand's `func` default is a fixed `cmd_*` function. It is not built
    at import, so an import that never parses pays nothing.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON run report")
    strip = argparse.ArgumentParser(add_help=False)
    strip.add_argument("--strip-silent", action="store_true", help="drop silent neurons first")

    parser = argparse.ArgumentParser(
        prog="codebetti",
        description="Canonical forms, piercing structure, and Betti numbers of neural codes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cf", parents=[common, strip], help="canonical form of a code")
    p.add_argument("codefile")
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("polarize", parents=[common, strip], help="polarized ideal of a code")
    p.add_argument("codefile")
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("graph", parents=[common, strip], help="general relationship graph of a code")
    p.add_argument("codefile")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of an edge list")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("pierced", parents=[common, strip], help="inductively pierced verdict and profile")
    p.add_argument("codefile")
    p.add_argument("--certify", action="store_true", help="run the definitional check as well and compare")
    p.add_argument("--order", help="comma-separated construction order to validate")
    p.set_defaults(func=cmd_pierced)

    p = sub.add_parser("betti", parents=[common, strip], help="Betti table of a code or ideal")
    p.add_argument("codefile", nargs="?", help="code file (omit when using --ideal)")
    p.add_argument("--ideal", help="monomial-list file instead of a code file; only --method oracle applies")
    p.add_argument(
        "--method",
        choices=["formula", "recursion", "oracle", "all"],
        help="computation route; 'all' (the default for a code file) cross-checks every route,"
        " 'oracle' is the default for --ideal",
    )
    p.add_argument("--threads", type=int, default=1, help=f"worker count for the oracle sweep (1..{MAX_THREADS})")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("invert", parents=[common], help="piercing counts from a Betti table")
    p.add_argument("bettifile", help="JSON file with a graded or multigraded table")
    p.add_argument("--n", type=int, help="neuron count (overrides the file)")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("chordal", parents=[common], help="chordality and elimination profile of a graph")
    p.add_argument("graphfile")
    p.set_defaults(func=cmd_chordal)

    p = sub.add_parser("generate", parents=[common], help="emit a random pierced code, or replay steps")
    p.add_argument("--n", type=int, help="number of neurons")
    p.add_argument("--kmax", type=int, help="largest interval rank a step may pierce")
    p.add_argument("--seed", type=int, help="seed for the random code (default 0)")
    p.add_argument("--steps", help="replay a steps file instead of sampling")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", parents=[common], help="silent/duplicate diagnostics for a code")
    p.add_argument("codefile")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = RunReport(args.subcommand)
    try:
        human = args.func(args, report)
        if args.json:
            print(report.to_json())
        else:
            for w in report.warnings:
                print(f"warning: {w}", file=sys.stderr)
            print(human, end="" if human.endswith("\n") else "\n")
        return OK
    except (ValueError, OSError, GuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except CrossCheckMismatch as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return MISMATCH


if __name__ == "__main__":
    sys.exit(main())
