"""Command-line front end.

Subcommands: ``analyze`` (structural change regions for an old/new pair),
``oracle`` (brute-force reachability comparison plus an agreement check
against the structural results), ``compare`` (per-marking decision accuracy
of the structural and region-baseline approaches), ``export`` (DOT and
marking-generation-set renderings), and a reproducible ``fuzz`` loop for
random agreement testing.

A command raises every error it meets; ``main`` prints it as ``error: ...``
and exits with the code :data:`_EXIT_CODES` gives its class: 2 parse/usage
error, 3 malformed, unreachable or unknown-place marking or an unknown gcs
place, 4 state-space cap exceeded, 1 any other.  A closed output pipe exits
141, and ``fuzz`` exits 1 after printing a disagreement.  JSON output is
byte-stable: keys and arrays are sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback

from .ctree import build_ctree, ctree_dot, gcs, generates, mgs_text
from .ecws import BlockTree, build_net, format_tree, parse, parse_marking
from .errors import (
    MarkingError,
    ParseError,
    StateExplosionError,
    UnknownPlaceError,
    WfregionsError,
)
from .randomnets import check_pair_agreement, oracle_mismatches, random_net_pair, shrink_pair
from .regions import Decision, analyze, decide_marking, report_json
from .sese import sese_region
from .wfnet import (
    DEFAULT_STATE_CAP,
    WfNet,
    marking_text,
    oracle_classify,
)


class _UsageError(WfregionsError):
    """Arguments that argparse accepts but the command refuses."""


#: README's exit-code table: an error exits with the code of the first class
#: it is an instance of.
_EXIT_CODES: dict[type[WfregionsError], int] = {
    ParseError: 2,
    _UsageError: 2,
    UnknownPlaceError: 3,
    MarkingError: 3,
    StateExplosionError: 4,
    WfregionsError: 1,
}

#: What a ``compare`` row counts, one outcome per marking, in column order.
_OUTCOMES = ("correctDecisions", "falseNegatives", "falsePositives", "unknowns")


def _emit(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load(path: str) -> BlockTree:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot read byte {exc.start}: not UTF-8 text") from exc
    try:
        # a byte-order mark goes after decoding, so decode errors name file offsets
        return parse(text.removeprefix("\ufeff"))
    except ParseError as exc:
        # every parse error carries its line and column: "path:line:col: ..."
        raise type(exc)(f"{path}:{exc}") from exc


def net_dot(net: WfNet) -> str:
    """Deterministic DOT rendering: places as circles, transitions as boxes."""
    lines = ["digraph wfnet {", "  rankdir=LR;"]
    for p in sorted(net.places):
        lines.append(f'  "{p}" [shape=circle];')
    for t in sorted(net.transitions):
        lines.append(f'  "{t}" [shape=box];')
    for src, dst in sorted(net.arcs):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    old, new = _load(args.old), _load(args.new)
    marking = None if args.marking is None else parse_marking(args.marking)
    report = analyze(old, new)
    payload = report_json(report)
    if marking is not None:
        unknown = marking - report.per_place.keys()
        if unknown:
            raise UnknownPlaceError(
                f"marking references unknown places: {', '.join(sorted(unknown))}"
            )
        if not generates(report.old_ctree, marking):
            raise MarkingError(f"marking {marking_text(marking)} is not reachable in the old net")
        payload["decision"] = decide_marking(marking, report).value
    _emit(payload)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    old, new = _load(args.old), _load(args.new)
    oracle = oracle_classify(build_net(old), build_net(new), cap=args.cap)
    report = analyze(old, new)
    agreement = {f: m is None for f, m in oracle_mismatches(report, oracle).items()}
    agreement["all"] = all(agreement.values())
    _emit(
        {
            "reachable_old": len(oracle.reachable_old),
            "reachable_new": len(oracle.reachable_new),
            "non_migratable": sorted(marking_text(m) for m in oracle.non_migratable),
            "per_place": {p: c.value for p, c in oracle.per_place.items()},
            "semantic_scr": sorted(oracle.semantic_scr),
            "semantic_pscr_exists": oracle.semantic_pscr_exists,
            "semantic_pscr": (
                sorted(oracle.semantic_pscr)
                if oracle.semantic_pscr is not None
                else None
            ),
            "agreement": agreement,
        }
    )
    return 0


def compare_rows(
    old: BlockTree, new: BlockTree, cap: int = DEFAULT_STATE_CAP
) -> list[dict[str, object]]:
    """Score structural and region-baseline decisions against the oracle."""
    old_net, new_net = build_net(old), build_net(new)
    oracle = oracle_classify(old_net, new_net, cap=cap)
    report = analyze(old, new)
    region = sese_region(old, old_net, new_net)
    # bound once: each is read per marking
    migratable, non_migratable = Decision.MIGRATABLE, Decision.NON_MIGRATABLE
    unknown = Decision.UNKNOWN
    correct, false_neg, false_pos, unknowns = _OUTCOMES
    bad, improved = oracle.non_migratable, region.improved_places
    scored = [
        ("PSCR" if report.pscr_exists else "SCR",
         lambda m: decide_marking(m, report)),
        ("SESE",
         lambda m: migratable if m.isdisjoint(improved) else non_migratable),
    ]
    tallies = [dict.fromkeys(_OUTCOMES, 0) for _ in scored]
    # the counts do not depend on the order of the markings
    for m in oracle.reachable_old:
        truth = non_migratable if m in bad else migratable
        for (_, decide), counts in zip(scored, tallies):
            got = decide(m)
            counts[
                unknowns if got is unknown
                else correct if got is truth
                else false_neg if got is non_migratable
                else false_pos
            ] += 1
    total = len(oracle.reachable_old)
    return [
        {"approach": approach, "totalMarkings": total, **counts}
        for (approach, _), counts in zip(scored, tallies)
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    old, new = _load(args.old), _load(args.new)
    rows = compare_rows(old, new, cap=args.cap)
    if args.json:
        _emit({"rows": rows})
        return 0
    columns = ("approach", "totalMarkings", *_OUTCOMES)
    lines = [columns, *([str(row[col]) for col in columns] for row in rows)]
    widths = [max(map(len, cells)) for cells in zip(*lines)]
    for cells in lines:
        # every column but the last is padded, so no line ends in spaces
        print("  ".join([c.ljust(w) for c, w in zip(cells, widths[:-1])] + [cells[-1]]))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    tree = _load(args.file)
    what, *rest = args.what
    if what not in ("net", "ctree", "gcs"):
        raise _UsageError(f"unknown export target {what!r}")
    wanted = 1 if what == "gcs" else 0  # the place label of a gcs export
    if len(rest) < wanted:
        raise _UsageError("gcs export needs a place label")
    if len(rest) > wanted:
        raise _UsageError(f"unexpected values after --what {what}: {' '.join(rest[wanted:])}")
    fmt = args.format or ("dot" if what == "net" else "mgs")
    if what == "net":
        if fmt != "dot":
            raise _UsageError("nets only export as dot")
        print(net_dot(build_net(tree)))
        return 0
    ctree = build_ctree(tree)
    if what == "gcs":
        ctree = gcs(rest[0], ctree)
    print(mgs_text(ctree) if fmt == "mgs" else ctree_dot(ctree))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
        print(f"fuzz seed: {seed}", file=sys.stderr)
    rng = random.Random(seed)
    for n in range(1, args.count + 1):
        old, new = random_net_pair(rng)
        problems = check_pair_agreement(old, new, cap=args.cap)
        if problems:
            old, new = shrink_pair(
                old, new, lambda o, n: bool(check_pair_agreement(o, n, cap=args.cap))
            )
            print(f"disagreement after {n} pairs (seed {seed}):", file=sys.stderr)
            print(f"  old: {format_tree(old)}", file=sys.stderr)
            print(f"  new: {format_tree(new)}", file=sys.stderr)
            for problem in check_pair_agreement(old, new, cap=args.cap):
                print(f"  {problem}", file=sys.stderr)
            return 1
    print(f"checked {args.count} pairs: full agreement")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_STATE_CAP,
        metavar="N",
        help="abort reachability search beyond N markings",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfregions",
        description="Structural change regions for block-structured workflow nets.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{analyze,oracle,compare,export,fuzz}",
    )

    p = sub.add_parser("analyze", help="compute change regions for an old/new net pair")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument(
        "--marking",
        metavar="PLACES",
        help='also decide migratability of a marking, e.g. "p2,p4"',
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="brute-force comparison of reachable markings")
    p.add_argument("old")
    p.add_argument("new")
    _add_cap(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="score decision approaches against the oracle")
    p.add_argument("old")
    p.add_argument("new")
    _add_cap(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export", help="render a net, its composition tree, or a subtree")
    p.add_argument("file")
    p.add_argument(
        "--what",
        nargs="+",
        default=["ctree"],
        metavar="TARGET",
        help="net, ctree, or gcs PLACE",
    )
    p.add_argument("--format", choices=("dot", "mgs"), default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("fuzz", help="compare the analysis with the oracle on random pairs")
    p.add_argument("--count", type=_positive_int, default=200, metavar="N")
    _add_cap(p)
    p.add_argument("--seed", type=int, default=None, metavar="S", help="random seed")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early (``| head``) shows here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as for a filter stopped by the closed pipe
    except WfregionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
