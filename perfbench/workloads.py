"""Seeded inputs and operation lists of the four workloads.

Set-up draws every input from the seed and writes it as a .dpa/.arena
file; the program only ever sees those files, through the command line.
A workload's `ops()` is a generator of operations: it receives each
operation's result back, because the games workload passes a negative
verdict's witness on to `posit gadget`.  Every operation comes with a
`check` that runs after the timed pass and returns None or a failure.
"""

import json
import re
from dataclasses import dataclass
from typing import Callable

from reference import (KNOWN_DEFECT, Automaton, accepts, eve_region,
                       ex3_accepts, parse_lasso, parse_table,
                       positional_verdict, witness_failure)

# The arena conditions, kept here rather than read from the package's
# fixtures so that the inputs stay fixed while the package changes.
EX3 = """dpa v1
alphabet a b c
states 3
initial 0
trans 0 a 1 3
trans 0 b 2 3
trans 0 c 0 3
trans 1 a 1 2
trans 1 b 2 3
trans 1 c 1 3
trans 2 a 1 3
trans 2 b 2 1
trans 2 c 2 3
"""
W2 = """dpa v1
alphabet a b c d
states 2
initial 0
trans 0 a 0 1
trans 0 b 1 0
trans 0 c 0 2
trans 0 d 0 2
trans 1 a 1 1
trans 1 b 1 2
trans 1 c 0 0
trans 1 d 1 2
"""
RES = """dpa v1
alphabet a b c
states s A B D
initial s
trans s a A 1
trans s b B 1
trans s c D 1
trans A a A 1
trans A b A 0
trans A c A 1
trans B a B 1
trans B b B 1
trans B c B 0
trans D a D 1
trans D b D 1
trans D c D 1
"""


@dataclass(frozen=True)
class Result:
    rc: object      # exit code, or None when main raised
    out: str
    err: str


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list
    check: Callable


def perm_parity(n: int) -> Automaton:
    """a rotates (priority 1), b swaps states 0 and 1 (2), c loops (3)."""
    delta = []
    for q in range(n):
        swap = {0: 1, 1: 0}.get(q, q)
        delta.append({"a": ((q + 1) % n, 1), "b": (swap, 2), "c": (q, 3)})
    return Automaton("abc", tuple(map(str, range(n))), 0, tuple(delta))


def counter_buchi(n: int) -> Automaton:
    """Infinitely many a: a counts up (priority 0); b counts up from odd
    states and stays on even ones (priority 1)."""
    delta = []
    for q in range(n):
        delta.append({"a": ((q + 1) % n, 0),
                      "b": ((q + 1) % n if q % 2 else q, 1)})
    return Automaton("ab", tuple(map(str, range(n))), 0, tuple(delta))


def random_dpa(rng) -> Automaton:
    """1-3 states, 2-3 letters, priorities drawn from 0..k-1 with k 2-4."""
    n = rng.randint(1, 3)
    letters = "abc"[:rng.randint(2, 3)]
    k = rng.randint(2, 4)
    delta = tuple({c: (rng.randrange(n), rng.randrange(k)) for c in letters}
                  for _ in range(n))
    return Automaton(letters, tuple(map(str, range(n))), 0, delta)


def random_arena(n: int, eve_fraction: float, letters: str, rng):
    """(text, edge set) of a sinkless arena, as posit.random_arena draws
    one: each vertex gets 1-3 edges with random letters and targets."""
    names = ["v%d" % i for i in range(n)]
    owners = ["E" if rng.random() < eve_fraction else "A" for _ in names]
    edges = []
    for v in names:
        for _ in range(rng.randint(1, 3)):
            edges.append((v, rng.choice(letters), rng.choice(names)))
    lines = ["arena v1", "alphabet " + " ".join(letters)]
    lines += ["vertex %s %s" % vo for vo in zip(names, owners)]
    lines += ["edge %s %s %s" % e for e in edges]
    return "\n".join(lines) + "\n", set(edges)


def random_lasso(rng, letters: str) -> str:
    def word(lo, hi):
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
    return "%s:%s" % (word(0, 4), word(1, 4))


def expect(out: str, rc: int):
    def check(r: Result):
        if r.rc != rc or r.out != out:
            return "expected exit %d and %r, got exit %r and %r%s" % (
                rc, out, r.rc, r.out[:200], r.err[-300:])
        return None
    return check


def expect_compare(a: Automaton, left: str, right: str):
    lw, rw = parse_lasso(left), parse_lasso(right)
    verdicts = [(accepts(a, *lw, start=q), accepts(a, *rw, start=q))
                for q in range(a.n)]
    left_leq = all(r for l, r in verdicts if l)
    right_leq = all(l for l, r in verdicts if r)
    if left_leq and right_leq:
        text = "equivalent"
    elif left_leq:
        text = "left strictly below right"
    elif right_leq:
        text = "right strictly below left"
    else:
        raise AssertionError("counter_buchi residuals are all equal")
    return expect(text + "\n", 0)


def check_reduce(edges: set):
    """The region must be the reference region, and every region
    vertex's memory-one lasso must satisfy ex3."""
    def check(r: Result):
        lines = r.out.splitlines()
        if r.rc != 0 or len(lines) < 2 or lines[-1] != "verified: true":
            return "reduce: exit %r, output %r%s" % (r.rc, r.out[-200:],
                                                    r.err[-300:])
        head = re.fullmatch(r"winning region: (.*)", lines[0])
        if head is None:
            return "reduce: bad first line %r" % lines[0]
        region = [] if head.group(1) == "(empty)" else head.group(1).split()
        expected = eve_region(edges, parse_table(EX3))
        if set(region) != expected or len(region) != len(expected):
            return "reduce: region has %d vertices, %d missing, %d extra" % (
                len(region), len(expected - set(region)),
                len(set(region) - expected))
        succ = {}
        for line in lines[1:-1]:
            m = re.fullmatch(r"(\S+): (\S) -> (\S+)", line)
            if m is None or (m.group(1), m.group(2), m.group(3)) not in edges:
                return "reduce: move %r is not an arena edge" % line
            succ[m.group(1)] = (m.group(2), m.group(3))
        if sorted(succ) != sorted(region) or len(succ) != len(lines) - 2:
            return "reduce: moves do not cover the region exactly once"
        for v in region:
            seen, letters = {}, []
            while v not in seen:
                if v not in succ:
                    return "reduce: play leaves the region at %r" % v
                seen[v] = len(letters)
                letter, v = succ[v]
                letters.append(letter)
            period = "".join(letters[seen[v]:])
            if not ex3_accepts(period):
                return "reduce: memory-one play loops on %r, rejected" % period
        return None
    return check


def check_solve(vertices: set):
    """Mixed arenas have no reference region: check format and exit only."""
    def check(r: Result):
        m = re.fullmatch(r"winning region: (.*)\nmemory: \d+\n", r.out)
        if r.rc != 0 or m is None:
            return "solve: exit %r, output %r%s" % (r.rc, r.out[:200],
                                                   r.err[-300:])
        region = m.group(1).split() if m.group(1) != "(empty)" else []
        if not set(region) <= vertices:
            return "solve: region names unknown vertices"
        return None
    return check


def check_small(a: Automaton):
    """The verdict and the failing property must be the reference ones,
    and a negative verdict must carry a witness that the reference
    simulator confirms."""
    def check(r: Result):
        try:
            verdict = json.loads(r.out)
        except ValueError:
            verdict = None
        if r.rc not in (0, 1) or not isinstance(verdict, dict):
            return "check: exit %r, output %r%s" % (r.rc, r.out[:200],
                                                   r.err[-300:])
        if verdict.get("positional") is not (r.rc == 0):
            return "check: verdict %r disagrees with exit %r" % (verdict, r.rc)
        failing = positional_verdict(a)
        if verdict.get("property") != failing:
            return "check: verdict %r, but the reference finds %s" % (
                verdict, "no property failing" if failing is None
                else "property %d failing first" % failing)
        if r.rc == 1:
            witness = verdict.get("witness")
            if (not isinstance(witness, dict)
                    or verdict.get("property") != witness.get("property")):
                return "check: no witness for property %r" % (
                    verdict.get("property"),)
            return witness_failure(a, witness)
        return None
    return check


def check_gadget(witness: dict):
    def check(r: Result):
        if r.rc == 0 and re.fullmatch(
                r"start: \S+\neve wins: true\npositional win: false\n"
                r"certified: true\n", r.out):
            return None
        if (r.rc == 2 and "both access words must be nonempty" in r.err
                and witness.get("property") == 1
                and not (witness.get("u") and witness.get("up"))):
            return KNOWN_DEFECT + ("property-1 witness %s has an empty "
                                   "access word and cannot be built into a "
                                   "gadget" % json.dumps(witness))
        return "gadget: exit %r, output %r%s" % (r.rc, r.out[:200],
                                                r.err[-300:])
    return check


class Workload:
    """A fixed list of operations, `plan`, built at set-up."""

    def ops(self):
        for op in self.plan:
            yield op


class Monoid(Workload):
    """posit check on relabelled perm_parity(n): property 3 over an
    n!-sized monoid does the work, property 1 almost none."""

    sizes = (5, 4, 5, 5, 5, 4, 5, 5, 5)
    latency_kinds = ("check",)

    def __init__(self, rng, workdir):
        self.plan = []
        for i, n in enumerate(self.sizes):
            path = workdir / ("perm%d_%d.dpa" % (i, n))
            path.write_text(perm_parity(n).relabelled(rng, "q").text(rng))
            self.plan.append(Op("check", ["check", str(path)],
                                expect("positional: true\n", 0)))


class Residuals(Workload):
    """posit check on relabelled counter_buchi(n), where property 1's
    per-pair product search dominates, plus include/compare point
    queries that use residual inclusion one pair at a time."""

    sizes = (32, 40, 48)
    # Of each kind, per automaton: an include query takes 4.5 to 6.5 ms
    # on counter_buchi(48) depending on the pair, so the 90th percentile
    # needs many pairs to stay put from seed to seed.
    queries = 36
    latency_kinds = ("include",)

    def __init__(self, rng, workdir):
        self.plan = []
        for n in self.sizes:
            a = counter_buchi(n).relabelled(rng, "c")
            path = workdir / ("counter%d.dpa" % n)
            path.write_text(a.text(rng))
            path = str(path)
            self.plan.append(Op("check", ["check", path],
                                expect("positional: true\n", 0)))
            for _ in range(self.queries):
                p, q = rng.sample(a.names, 2)
                self.plan.append(Op("include", ["include", path, p, q],
                                    expect("yes\n", 0)))
                left, right = random_lasso(rng, "ab"), random_lasso(rng, "ab")
                self.plan.append(Op("compare", ["compare", path, left, right],
                                    expect_compare(a, left, right)))


class Reduce(Workload):
    """posit reduce under ex3 on Eve-only random arenas: the merge loop
    and its re-verification dominate, solving is about 1 %."""

    # Sixteen arenas, so that no single arena sets the 90th percentile.
    sizes = (120,) * 16
    latency_kinds = ("reduce",)

    def __init__(self, rng, workdir):
        cond = workdir / "ex3.dpa"
        cond.write_text(EX3)
        self.plan = []
        for i, n in enumerate(self.sizes):
            text, edges = random_arena(n, 1.0, "abc", rng)
            path = workdir / ("eve%d_%d.arena" % (i, n))
            path.write_text(text)
            self.plan.append(Op("reduce", ["reduce", str(cond), str(path)],
                                check_reduce(edges)))


class Games:
    """posit solve on mixed arenas, then many small automata through
    posit check --json, each negative witness through posit gadget:
    Zielonka solving, positional search and per-call CLI overhead."""

    arena_vertices = 3000
    small = 300
    latency_kinds = ("check",)

    def __init__(self, rng, workdir):
        self.solves = []
        for name, cond, letters in (("ex3", EX3, "abc"), ("w2", W2, "abcd"),
                                    ("res", RES, "abc")):
            cpath = workdir / (name + ".dpa")
            cpath.write_text(cond)
            text, edges = random_arena(self.arena_vertices, 0.5, letters, rng)
            apath = workdir / ("mixed_%s.arena" % name)
            apath.write_text(text)
            vertices = {src for src, _, _ in edges}
            self.solves.append(Op("solve", ["solve", str(cpath), str(apath)],
                                  check_solve(vertices)))
        self.automata = []
        for i in range(self.small):
            a = random_dpa(rng)
            path = workdir / ("small%d.dpa" % i)
            path.write_text(a.text(rng))
            self.automata.append((str(path), a))

    def ops(self):
        for op in self.solves:
            yield op
        for path, a in self.automata:
            r = yield Op("check", ["check", "--json", path], check_small(a))
            try:
                witness = json.loads(r.out).get("witness")
            except (ValueError, AttributeError):
                witness = None
            if r.rc == 1 and isinstance(witness, dict):
                yield Op("gadget", ["gadget", path, json.dumps(witness)],
                         check_gadget(witness))


WORKLOADS = {"monoid": Monoid, "residuals": Residuals, "reduce": Reduce,
             "games": Games}
