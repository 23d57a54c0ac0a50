"""Acceptance gate.

Each test covers one release criterion and prints a single
"[criterion N] PASS/FAIL - summary" line; run with -s to see them.
All expectations are exact, the only tolerance is the 10 s budget of
criterion 7.
"""

import subprocess
import sys
import time

from posit import (Game, check_positional,
                   check_property1, check_property2, check_property3, member,
                   random_arena, reduce_to_positional, solve_game,
                   verify_order_laws, verify_strategy)
from posit.fixtures import DPA_NAMES, fixture_path, load_arena, load_dpa

from oracles import (brute_property1, brute_property2, brute_property3,
                     certify_nonpositional, certify_witness, lassos_up_to, random_lassos, sem_ex3)

POSITIONAL = ("buchi_a", "fin_a", "rabin", "ex3")
FAILING = {"onea": 2, "infab": 3, "w2": 3, "res": 1}


def _check(criterion: int, slug: str, body) -> None:
    try:
        ok = bool(body())
    except Exception:
        print("[criterion %d] FAIL - %s" % (criterion, slug))
        raise
    print("[criterion %d] %s - %s" % (criterion, "PASS" if ok else "FAIL",
                                      slug))
    assert ok, slug


def test_criterion_1_factor_condition():
    def body():
        a = load_dpa("ex3")
        if not check_positional(a).positional:
            return False
        draws = random_lassos(a.alphabet, 1000, seed=1)
        return all(member(a, w) == sem_ex3(w) for w in draws)

    _check(1, "factor condition positional, 1000 membership draws agree",
           body)


def test_criterion_2_bundled_game():
    def body():
        game = Game(load_arena("w2game"), load_dpa("w2"))
        solution = solve_game(game)
        return (solution.winning_region == {"u", "center"}
                and verify_strategy(game, solution.strategy,
                                    solution.start_states))

    _check(2, "bundled game won from both vertices, strategy verified", body)


def test_criterion_3_verdict_table():
    def body():
        for name in POSITIONAL:
            if not check_positional(load_dpa(name)).positional:
                return False
        for name, prop in FAILING.items():
            a = load_dpa(name)
            verdict = check_positional(a)
            if verdict.positional or verdict.failed_property != prop:
                return False
            if not certify_witness(a, verdict.witness):
                return False
        return True

    _check(3, "verdicts exact on all fixtures, witnesses self-certify", body)


def test_criterion_4_gadgets():
    def body():
        for name in FAILING:
            a = load_dpa(name)
            if not certify_nonpositional(a, check_positional(a).witness):
                return False
        return True

    _check(4, "4/4 witness gadgets certified memory-requiring", body)


def test_criterion_5_random_arena_reduction():
    def body():
        # reduce_to_positional asserts the state count drops at every
        # merge and re-verifies each intermediate strategy
        for name in POSITIONAL:
            a = load_dpa(name)
            nonempty = 0
            for i in range(100):
                arena = random_arena((i % 5) + 1, 3, 1.0, a.alphabet, seed=i)
                game = Game(arena, a)
                solution = solve_game(game)
                reduced = reduce_to_positional(game, solution.strategy,
                                               solution.winning_region)
                if reduced.memory() > 1:
                    return False
                if not verify_strategy(game, reduced, reduced.states):
                    return False
                nonempty += bool(solution.winning_region)
            if not nonempty:
                return False
        return True

    _check(5, "400 random Eve-only arenas reduce to verified memory one",
           body)


def test_criterion_6_order_laws():
    def body():
        for name in POSITIONAL:
            report = verify_order_laws(load_dpa(name), samples=500, seed=0)
            if report.samples != 500 or report.violations:
                return False
        return True

    _check(6, "2000 sampled preorder law checks, 0 violations", body)


def test_criterion_7_brute_force_agreement():
    def body():
        for name in DPA_NAMES:
            a = load_dpa(name)
            start = time.monotonic()
            lassos = lassos_up_to(a.alphabet, 3, 3)
            reports = (check_property1(a), check_property2(a),
                       check_property3(a))
            brutes = (brute_property1(a, lassos),
                      brute_property2(a, 3, 3, lassos),
                      brute_property3(a, 3, 3))
            if time.monotonic() - start >= 10.0:
                return False
            for report, brute in zip(reports, brutes):
                if report.passed != (not brute):
                    return False
        return True

    _check(7, "checks match length-3 brute force under 10 s per fixture",
           body)


def test_criterion_8_deterministic_selftest():
    def body():
        for name in ("ex3", "w2"):
            cmd = [sys.executable, "-m", "posit", "selftest",
                   fixture_path(name)]
            first = subprocess.run(cmd, capture_output=True)
            second = subprocess.run(cmd, capture_output=True)
            if first.returncode != 0 or second.returncode != 0:
                return False
            if first.stdout != second.stdout or not first.stdout:
                return False
            if not first.stdout.endswith(b"selftest: PASS\n"):
                return False
        return True

    _check(8, "selftest runs byte-identical twice on both branches", body)
