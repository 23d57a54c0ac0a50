"""Command line front end.

Exit codes: 0 when the query holds (positional, member, included,
certified), 1 when it is refuted or the requested reduction is not
applicable, 2 for parse, input and resource-limit errors, a sink vertex
among them.  A witness that fails its own membership re-check
(WitnessRecheckFailed) is an internal error, not an input error: it
propagates like any other bug.
"""

import argparse
import functools
import json
import sys

from .automata import member, parse_dpa, residual_included
from .errors import (IncomparableLassos, InvalidSetting, InvalidWitness,
                     MergeBrokeWinning, NotEveOnly, ParseError, PositError,
                     PreconditionViolated, WitnessRecheckFailed)
from .gadgets import certify
from .games import (Game, format_arena, parse_arena, random_arena, solve_game,
                    verify_strategy)
from .positionality import (check_positional, compare_lassos,
                            verify_order_laws, witness_from_dict)
from .reduction import reduce_to_positional
from .words import parse_lasso

_DOMAIN_ERRORS = (NotEveOnly, IncomparableLassos, MergeBrokeWinning,
                  PreconditionViolated)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text (%s)" % (path, exc)) from None
    # a leading byte-order mark is not part of the text
    return text.removeprefix("\ufeff")


def _load_dpa(path: str):
    return parse_dpa(_read(path))


def _load_arena(path: str):
    return parse_arena(_read(path))


def cmd_check(args) -> int:
    a = _load_dpa(args.dpa)
    verdict = check_positional(a)
    if args.json:
        payload = {"positional": verdict.positional}
        if not verdict.positional:
            payload["property"] = verdict.failed_property
            payload["witness"] = verdict.witness.as_dict()
        print(json.dumps(payload))
    elif verdict.positional:
        print("positional: true")
    else:
        print("positional: false (property %d fails)"
              % verdict.failed_property)
        print("witness: " + json.dumps(verdict.witness.as_dict()))
    return 0 if verdict.positional else 1


def cmd_member(args) -> int:
    a = _load_dpa(args.dpa)
    w = parse_lasso(args.lasso, a.alphabet)
    verdict = member(a, w)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_compare(args) -> int:
    a = _load_dpa(args.dpa)
    left = parse_lasso(args.left, a.alphabet)
    right = parse_lasso(args.right, a.alphabet)
    c = compare_lassos(a, left, right)
    if c.equivalent:
        print("equivalent")
    elif c.left_leq:
        print("left strictly below right")
    elif c.right_leq:
        print("right strictly below left")
    else:
        print("incomparable (u=%r, u'=%r)" % (c.u, c.up))
    return 1 if c.incomparable else 0


def cmd_include(args) -> int:
    a = _load_dpa(args.dpa)
    p = a.state_id(args.frm)
    q = a.state_id(args.into)
    witness = residual_included(a, p, q)
    if witness is None:
        print("yes")
        return 0
    print("no: witness %s" % (witness,))
    return 1


def cmd_solve(args) -> int:
    game = Game(_load_arena(args.arena), _load_dpa(args.dpa))
    solution = solve_game(game)
    region = sorted(solution.winning_region)
    print("winning region: " + (" ".join(region) if region else "(empty)"))
    print("memory: %d" % solution.strategy.memory())
    return 0


def cmd_reduce(args) -> int:
    game = Game(_load_arena(args.arena), _load_dpa(args.dpa))
    verdict = check_positional(game.condition)
    if not verdict.positional:
        print("condition is not positional (property %d fails)"
              % verdict.failed_property)
        return 1
    solution = solve_game(game)
    reduced = reduce_to_positional(game, solution.strategy,
                                   solution.winning_region)
    region = sorted(solution.winning_region)
    print("winning region: " + (" ".join(region) if region else "(empty)"))
    by_vertex = {reduced.sigma[st]: st for st in reduced.states}
    for v in region:
        letter, dst = reduced.out_edges(by_vertex[v])[0]
        print("%s: %s -> %s" % (v, letter, reduced.sigma[dst]))
    verified = verify_strategy(
        game, reduced,
        [st for st in reduced.states if reduced.sigma[st] in solution.winning_region])
    print("verified: %s" % ("true" if verified else "false"))
    return 0 if verified else 1


def cmd_gadget(args) -> int:
    a = _load_dpa(args.dpa)
    try:
        payload = json.loads(args.witness)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidWitness("witness is not JSON: %s" % exc) from None
    witness = witness_from_dict(payload, a.alphabet)
    arena, starts, eve_wins, positional = certify(a, witness)
    if args.arena_out:
        with open(args.arena_out, "w", encoding="utf-8") as f:
            f.write(format_arena(arena))
    certified = eve_wins and not positional
    print("start: %s" % ",".join(starts))
    print("eve wins: %s" % ("true" if eve_wins else "false"))
    print("positional win: %s" % ("true" if positional else "false"))
    print("certified: %s" % ("true" if certified else "false"))
    return 0 if certified else 1


def cmd_selftest(args) -> int:
    for flag, value, low in (("--trials", args.trials, 0),
                             ("--max-vertices", args.max_vertices, 1)):
        if value < low:
            raise InvalidSetting("%s must be at least %d, not %d"
                                 % (flag, low, value))
    a = _load_dpa(args.dpa)
    verdict = check_positional(a)
    failures = []
    if verdict.positional:
        print("check: positional")
        laws = verify_order_laws(a, samples=500, seed=0)
        print("order laws: %d draws, %d violations"
              % (laws.samples, len(laws.violations)))
        if laws.violations:
            failures.append("order law violated: %s" % laws.violations[0])
        good = 0
        trials = args.trials
        for i in range(trials):
            arena = random_arena(i % args.max_vertices + 1, 3, 1.0,
                                 a.alphabet, args.seed + i)
            game = Game(arena, a)
            solution = solve_game(game)
            try:
                reduced = reduce_to_positional(game, solution.strategy,
                                               solution.winning_region)
            except PositError as exc:
                failures.append("trial %d: %s" % (i, exc))
                continue
            if reduced.memory() > 1:
                failures.append("trial %d: memory %d left"
                                % (i, reduced.memory()))
            else:
                good += 1
        print("arenas: %d/%d reduced to positional" % (good, trials))
    else:
        print("check: not positional (property %d fails)"
              % verdict.failed_property)
        print("witness: " + json.dumps(verdict.witness.as_dict()))
        _arena, _starts, eve_wins, positional = certify(a, verdict.witness)
        print("gadget: eve wins: %s" % ("true" if eve_wins else "false"))
        print("gadget: positional win: %s"
              % ("true" if positional else "false"))
        if not eve_wins:
            failures.append("gadget start is not winning")
        if positional:
            failures.append("gadget admits a positional strategy")
    if failures:
        print("selftest: FAIL (%s)" % failures[0])
        return 1
    print("selftest: PASS")
    return 0


def cmd_fixtures(args) -> int:
    # imported here: no other command needs the loader, which pulls in
    # importlib.resources, tempfile and shutil
    from .fixtures import data_dir, fixture_path
    if args.name:
        print(fixture_path(args.name))
    else:
        print(data_dir())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posit",
        description="Positionality of parity-automaton objectives: "
                    "decide, certify, solve and reduce.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a condition is positional")
    p.add_argument("dpa")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("member", help="test lasso membership")
    p.add_argument("dpa")
    p.add_argument("lasso", help="prefix:period")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("compare", help="compare two lassos across residuals")
    p.add_argument("dpa")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("include", help="test residual language inclusion")
    p.add_argument("dpa")
    p.add_argument("frm", help="source state name")
    p.add_argument("into", help="target state name")
    p.set_defaults(func=cmd_include)

    p = sub.add_parser("solve", help="solve a game and report the region")
    p.add_argument("dpa")
    p.add_argument("arena")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce",
                       help="solve, then shrink the strategy to memory one")
    p.add_argument("dpa")
    p.add_argument("arena")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gadget",
                       help="build and certify a witness counterexample game")
    p.add_argument("dpa")
    p.add_argument("witness", help="witness as JSON")
    p.add_argument("--arena-out")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("selftest",
                       help="run the whole pipeline on one condition")
    p.add_argument("dpa")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=5)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("fixtures", help="locate bundled example files")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_fixtures)
    return parser


# Built on first use and reused: building the subparsers costs far more
# than parsing one command line.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except WitnessRecheckFailed:
        raise
    except _DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (PositError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
