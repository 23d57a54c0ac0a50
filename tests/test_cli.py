import json
import os
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from posit import (MergeBrokeWinning, PositError, WitnessRecheckFailed,
                   automata, cli, games, member, positionality)
from posit.cli import main
from posit.fixtures import fixture_path, load_arena, load_dpa
from posit.games import parse_arena
from posit.positionality import OrderLawReport

from oracles import counter_buchi, format_dpa


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of main, argparse exits included."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _raise(exc):
    raise exc


class TestCheck:
    def test_positional(self, capsys):
        rc, out, _ = run(capsys, "check", fixture_path("ex3"))
        assert rc == 0
        assert out == "positional: true\n"

    def test_not_positional(self, capsys):
        rc, out, _ = run(capsys, "check", fixture_path("w2"))
        assert rc == 1
        lines = out.splitlines()
        assert lines[0] == "positional: false (property 3 fails)"
        witness = json.loads(lines[1].removeprefix("witness: "))
        assert (witness["v"], witness["vp"]) == ("ab", "ac")

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "check", "--json", fixture_path("onea"))
        assert rc == 1
        payload = json.loads(out)
        assert payload["positional"] is False
        assert payload["property"] == 2
        assert payload["witness"]["v"] == "a"

    def test_failed_recheck_is_not_an_input_error(self, monkeypatch):
        monkeypatch.setattr(positionality, "member",
                            lambda a, w: not member(a, w))
        with pytest.raises(WitnessRecheckFailed):
            main(["check", fixture_path("onea")])


class TestQueries:
    def test_member(self, capsys):
        path = fixture_path("buchi_a")
        assert run(capsys, "member", path, ":a") == (0, "true\n", "")
        assert run(capsys, "member", path, ":b") == (1, "false\n", "")

    def test_compare(self, capsys):
        path = fixture_path("buchi_a")
        rc, out, _ = run(capsys, "compare", path, ":b", ":a")
        assert (rc, out) == (0, "left strictly below right\n")
        rc, out, _ = run(capsys, "compare", path, ":a", "a:a")
        assert (rc, out) == (0, "equivalent\n")

    def test_compare_right_below_left(self, capsys):
        assert run(capsys, "compare", fixture_path("buchi_a"), ":a", ":b") \
            == (0, "right strictly below left\n", "")

    def test_compare_incomparable(self, capsys):
        rc, out, _ = run(capsys, "compare", fixture_path("res"), ":b", ":c")
        assert rc == 1
        assert out == "incomparable (u='a', u'='b')\n"

    def test_compare_long_period(self, capsys, tmp_path):
        # A lasso is walked a whole period at a time over the automaton's
        # states, so a 100 000-letter period on 48 states keeps at most
        # 48 walk nodes; a walk with one node per letter position and
        # state held 4.8 million and peaked at about 260 MB.
        path = tmp_path / "counter48.dpa"
        path.write_text(format_dpa(counter_buchi(48)), encoding="utf-8")
        tracemalloc.start()
        try:
            result = run(capsys, "compare", str(path),
                         "ba:" + "ab" * 50_000, ":a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "equivalent\n", "")
        assert peak < 50 * 2 ** 20, peak

    def test_include(self, capsys):
        path = fixture_path("res")
        assert run(capsys, "include", path, "D", "A")[:2] == (0, "yes\n")
        rc, out, _ = run(capsys, "include", path, "A", "B")
        assert rc == 1
        assert out == "no: witness :b\n"


class TestSolveReduce:
    def test_solve(self, capsys):
        rc, out, _ = run(capsys, "solve", fixture_path("w2"),
                         fixture_path("w2game"))
        assert rc == 0
        assert out == "winning region: center u\nmemory: 2\n"

    def test_reduce(self, capsys):
        rc, out, _ = run(capsys, "reduce", fixture_path("buchi_a"),
                         fixture_path("twoloops"))
        assert rc == 0
        assert out.splitlines() == ["winning region: center",
                                    "center: a -> center",
                                    "verified: true"]

    def test_reduce_refuses_memory_condition(self, capsys):
        rc, out, _ = run(capsys, "reduce", fixture_path("infab"),
                         fixture_path("twoloops"))
        assert rc == 1
        assert out == "condition is not positional (property 3 fails)\n"

    def test_reduce_needs_eve_arena(self, capsys, tmp_path):
        arena = tmp_path / "mixed.arena"
        arena.write_text("arena v1\n"
                         "alphabet a b\n"
                         "vertex u A\n"
                         "vertex e E\n"
                         "edge u a e\n"
                         "edge e a e\n"
                         "edge e b u\n", encoding="utf-8")
        rc, out, err = run(capsys, "reduce", fixture_path("buchi_a"), str(arena))
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Eve-only" in err


class TestGadget:
    def witness(self, capsys, name):
        _, out, _ = run(capsys, "check", "--json", fixture_path(name))
        return json.dumps(json.loads(out)["witness"])

    def test_certifies_and_writes_arena(self, capsys, tmp_path):
        witness = self.witness(capsys, "w2")
        out_file = tmp_path / "gadget.arena"
        rc, out, _ = run(capsys, "gadget", fixture_path("w2"), witness,
                         "--arena-out", str(out_file))
        assert rc == 0
        assert out.splitlines() == ["start: e",
                                    "eve wins: true",
                                    "positional win: false",
                                    "certified: true"]
        arena = parse_arena(out_file.read_text(encoding="utf-8"))
        assert arena.owners["e"] == "E"

    def test_uncertified_exits_nonzero(self, capsys):
        witness = json.dumps({"property": 3, "u": "", "v": "a", "vp": "b"})
        rc, out, _ = run(capsys, "gadget", fixture_path("buchi_a"), witness)
        assert rc == 1
        assert "certified: false" in out

    def test_bad_witness_payloads(self, capsys):
        path = fixture_path("w2")
        rc, _, err = run(capsys, "gadget", path, "{\"property\": 9}")
        assert rc == 2 and err.startswith("error:")
        rc, _, err = run(capsys, "gadget", path, "{oops")
        assert rc == 2 and err.startswith("error:")
        # read as properties 1 and 3, since True == 1 and 3.0 == 3
        for payload in ('{"property": true, "u": "", "up": "", '
                        '"w": ":a", "wp": ":b"}',
                        '{"property": 3.0, "u": "", "v": "ab", "vp": "ac"}'):
            rc, out, err = run(capsys, "gadget", path, payload)
            assert rc == 2 and not out
            assert err.startswith("error:") and "unknown property" in err


class TestErrors:
    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "member", "/no/such/file.dpa", ":a")
        assert rc == 2
        assert err.startswith("error:")

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.dpa"
        bad.write_text("dpa v2\n", encoding="utf-8")
        rc, _, err = run(capsys, "check", str(bad))
        assert rc == 2
        assert "error:" in err

    def test_duplicate_letter(self, capsys, tmp_path):
        bad = tmp_path / "dup.dpa"
        bad.write_text("dpa v1\nalphabet a a\nstates 1\ninitial 0\n"
                       "trans 0 a 0 0\n", encoding="utf-8")
        rc, _, err = run(capsys, "check", str(bad))
        assert rc == 2
        assert err.startswith("error:") and "duplicate letter" in err

    def test_state_count_int_rejects(self, capsys, tmp_path):
        # '²' passes str.isdigit but is no count: it names the one state,
        # so the state 0 the file goes on to use is unknown
        bad = tmp_path / "square.dpa"
        bad.write_text("dpa v1\nalphabet a\nstates ²\ninitial 0\n"
                       "trans 0 a 0 0\n", encoding="utf-8")
        rc, _, err = run(capsys, "check", str(bad))
        assert (rc, err) == (2, "error: unknown initial state '0'\n")

    def test_state_count_beyond_the_trans_lines(self, capsys, tmp_path):
        bad = tmp_path / "huge.dpa"
        bad.write_text("dpa v1\nalphabet a\nstates 1000000000000\n"
                       "initial 0\ntrans 0 a 0 0\n", encoding="utf-8")
        rc, _, err = run(capsys, "check", str(bad))
        assert (rc, err) == (2, "error: line 3: 1000000000000 states need "
                                "1000000000000 trans lines, the file has 1: "
                                "state 1 has no transition on 'a'\n")

    def test_named_state_without_transition(self, capsys, tmp_path):
        bad = tmp_path / "named.dpa"
        bad.write_text("dpa v1\nalphabet a b\nstates s t\ninitial s\n"
                       "trans s a t 0\ntrans s b s 1\ntrans t a t 0\n",
                       encoding="utf-8")
        assert run(capsys, "check", str(bad)) == (
            2, "", "error: state t has no transition on 'b'\n")

    def test_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.arena"
        bad.write_bytes(b"arena v1\n# caf\xe9\n")
        rc, _, err = run(capsys, "solve", fixture_path("buchi_a"), str(bad))
        assert rc == 2
        assert err.startswith("error: %s is not UTF-8 text" % bad)

    def test_sink_vertex_is_an_input_error(self, capsys, tmp_path):
        arena = tmp_path / "sink.arena"
        arena.write_text("arena v1\nalphabet a b c\nvertex u E\nvertex s A\n"
                         "edge u a u\n", encoding="utf-8")
        rc, out, err = run(capsys, "solve", fixture_path("ex3"), str(arena))
        assert (rc, out, err) == (
            2, "", "error: vertex 's' has no outgoing edge\n")

    @pytest.mark.parametrize("argv", [("check", "--json", "{w2}"),
                                      ("check", "{ex3}"),
                                      ("solve", "{w2}", "{w2game}"),
                                      ("solve", "{buchi_a}", "{twoloops}")])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, argv):
        plain, marked = [], []
        for arg in argv:
            if arg.startswith("{"):
                path = fixture_path(arg[1:-1])
                copy = tmp_path / Path(path).name
                copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
                plain.append(path)
                marked.append(str(copy))
            else:
                plain.append(arg)
                marked.append(arg)
        assert run(capsys, *marked) == run(capsys, *plain)

    def test_witness_not_json(self, capsys):
        rc, _, err = run(capsys, "gadget", fixture_path("w2"), "{oops")
        assert rc == 2
        assert err.startswith("error: witness is not JSON: ")

    def test_witness_nested_too_deep(self, capsys):
        # the JSON decoder recurses once per bracket
        rc, out, err = run(capsys, "gadget", fixture_path("w2"),
                           "[" * 100_000)
        assert (rc, out) == (2, "")
        assert err.startswith("error: witness is not JSON: ")

    def test_monoid_too_large_is_a_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(positionality, "MONOID_CAP", 3)
        assert run(capsys, "check", fixture_path("w2")) == (
            2, "", "error: priority monoid exceeds 3 elements\n")

    def test_product_game_too_large_is_a_resource_limit(self, capsys,
                                                        monkeypatch):
        arena = load_arena("w2game")
        # the split game's nodes: product nodes and edge nodes
        nodes = (len(arena.owners) + len(arena.edges)) * load_dpa("w2").n
        argv = ("solve", fixture_path("w2"), fixture_path("w2game"))
        monkeypatch.setattr(games, "GAME_CAP", nodes)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(games, "GAME_CAP", nodes - 1)
        assert run(capsys, *argv) == (
            2, "", "error: product game exceeds %d nodes\n" % (nodes - 1))

    def test_residual_graph_too_large_is_a_resource_limit(self, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(automata, "RESIDUAL_CAP", 3)
        message = "error: residual graph exceeds 3 nodes\n"
        # w2 has 4 states: its check numbers 16 pairs
        assert run(capsys, "check", fixture_path("w2")) == (2, "", message)
        # an include is charged only for the pairs it explores: from
        # (D, A) one, from (s, s) four, as s leads to A, B and D
        path = fixture_path("res")
        assert run(capsys, "include", path, "D", "A") == (0, "yes\n", "")
        assert run(capsys, "include", path, "s", "s") == (2, "", message)

    def test_alphabet_mismatch(self, capsys):
        rc, _, err = run(capsys, "solve", fixture_path("rabin"),
                         fixture_path("twoloops"))
        assert rc == 2
        assert err.startswith("error:")

    def test_malformed_lasso(self, capsys):
        rc, _, err = run(capsys, "member", fixture_path("buchi_a"), "ab")
        assert rc == 2
        assert err.startswith("error:")


class TestSelftest:
    def test_positional_branch_deterministic(self, capsys):
        path = fixture_path("ex3")
        first = run(capsys, "selftest", path)
        second = run(capsys, "selftest", path)
        assert first == second
        rc, out, _ = first
        assert rc == 0
        assert out.splitlines() == [
            "check: positional",
            "order laws: 500 draws, 0 violations",
            "arenas: 50/50 reduced to positional",
            "selftest: PASS",
        ]

    def test_flags_change_the_trial_plan(self, capsys):
        rc, out, _ = run(capsys, "selftest", fixture_path("ex3"),
                         "--trials", "100", "--seed", "7",
                         "--max-vertices", "5")
        assert rc == 0
        assert "arenas: 100/100 reduced to positional" in out.splitlines()

    @pytest.mark.parametrize("flag, value, low", [
        ("--max-vertices", "0", 1), ("--max-vertices", "-4", 1),
        ("--trials", "-3", 0)])
    def test_out_of_range_flags_exit_2(self, capsys, flag, value, low):
        # --max-vertices 0 used to die dividing by zero, and --trials -3
        # to report "arenas: 0/-3" and pass
        for name in ("buchi_a", "w2"):
            assert run(capsys, "selftest", fixture_path(name), flag, value) \
                == (2, "", "error: %s must be at least %d, not %s\n"
                    % (flag, low, value))

    def test_zero_trials_pass(self, capsys):
        rc, out, _ = run(capsys, "selftest", fixture_path("buchi_a"),
                         "--trials", "0")
        assert rc == 0
        assert "arenas: 0/0 reduced to positional" in out.splitlines()

    @pytest.mark.parametrize("name, attr, fake, reason", [
        ("buchi_a", "verify_order_laws",
         lambda a, samples, seed: OrderLawReport(samples, ("draw 0: x",)),
         "order law violated: draw 0: x"),
        ("buchi_a", "reduce_to_positional",
         lambda game, s, region: _raise(MergeBrokeWinning("broke")),
         "trial 0: broke"),
        ("buchi_a", "reduce_to_positional",
         lambda game, s, region: SimpleNamespace(memory=lambda: 2),
         "trial 0: memory 2 left"),
        ("w2", "certify", lambda a, witness: (None, [], False, False),
         "gadget start is not winning"),
        ("w2", "certify", lambda a, witness: (None, [], True, True),
         "gadget admits a positional strategy"),
    ])
    def test_failures(self, capsys, monkeypatch, name, attr, fake, reason):
        monkeypatch.setattr(cli, attr, fake)
        rc, out, _ = run(capsys, "selftest", fixture_path(name),
                         "--trials", "1")
        assert rc == 1
        assert out.splitlines()[-1] == "selftest: FAIL (%s)" % reason

    def test_witness_branch(self, capsys):
        rc, out, _ = run(capsys, "selftest", fixture_path("w2"))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "check: not positional (property 3 fails)"
        assert "gadget: eve wins: true" in lines
        assert "gadget: positional win: false" in lines
        assert lines[-1] == "selftest: PASS"


class TestFixturesCommand:
    def test_directory(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "fixtures")
        assert rc == 0
        assert out.strip().endswith("data")

    def test_named(self, capsys):
        rc, out, _ = run(capsys, "fixtures", "w2game")
        assert rc == 0
        assert out.strip().endswith("w2game.arena")

    def test_unknown(self, capsys):
        rc, _, err = run(capsys, "fixtures", "nope")
        assert rc == 2
        assert err.startswith("error:")

    def test_unknown_is_named_once_quoted(self, capsys):
        assert run(capsys, "fixtures", "nosuch") == (
            2, "", "error: unknown fixture 'nosuch'\n")

    @pytest.mark.parametrize("load, kind", [(load_dpa, "automaton"),
                                            (load_arena, "arena")])
    def test_loaders_refuse_unknown_names(self, load, kind):
        # an arena name is not an automaton fixture, nor the reverse
        name = "twoloops" if kind == "automaton" else "ex3"
        with pytest.raises(PositError,
                           match="^unknown %s fixture '%s'$" % (kind, name)):
            load(name)


class TestStartUp:
    """A fresh `posit` process imports only what every command needs."""

    @staticmethod
    def python(*args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        # -S: no site-packages, so only the standard library and src load
        return subprocess.run([sys.executable, "-S", *args], env=env,
                              capture_output=True, encoding="utf-8", check=True)

    def test_import_skips_dataclasses_and_fixture_loader(self):
        out = self.python("-c", "import sys, posit.cli; print(*sorted("
                          "m for m in sys.modules if m.startswith("
                          "('dataclasses', 'posit', 'typing'))))").stdout.split()
        assert "dataclasses" not in out
        assert "typing" not in out
        assert "posit.fixtures" not in out
        # every module a command other than `fixtures` runs is loaded
        # up front, so no command pays for an import on its first call
        for module in ("automata", "cycles", "errors", "gadgets", "games",
                       "positionality", "reduction", "words"):
            assert "posit." + module in out

    def test_fixtures_command_loads_its_module(self):
        out = self.python("-m", "posit", "fixtures", "ex3").stdout
        assert out.endswith("ex3.dpa\n")


class TestZipImport:
    """The package imported from a zip archive: bundled files load, but
    have no path to print."""

    @staticmethod
    def python(archive, *args):
        env = dict(os.environ, PYTHONPATH=str(archive))
        return subprocess.run([sys.executable, "-S", *args], env=env,
                              capture_output=True, encoding="utf-8")

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        package = Path(cli.__file__).resolve().parent
        path = tmp_path_factory.mktemp("zip") / "posit.zip"
        with zipfile.ZipFile(path, "w") as zf:
            for f in sorted(package.rglob("*")):
                if f.is_file() and "__pycache__" not in f.parts:
                    zf.write(f, f.relative_to(package.parent))
        return path

    @pytest.mark.parametrize("args", [(), ("ex3",)])
    def test_fixtures_exit_2_naming_the_archive(self, archive, args):
        done = self.python(archive, "-m", "posit", "fixtures", *args)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: %s" % archive)
        assert done.stderr.endswith(
            "is inside an archive: bundled files have no path\n")

    def test_loaders_read_from_the_archive(self, archive):
        done = self.python(archive, "-c", "import posit.fixtures as f; "
                           "print(f.__file__, f.load_dpa('ex3').n, "
                           "len(f.load_arena('w2game').owners))")
        assert done.returncode == 0, done.stderr
        path, states, vertices = done.stdout.split()
        assert path.startswith(str(archive))
        assert (states, vertices) == (str(load_dpa("ex3").n),
                                      str(len(load_arena("w2game").owners)))


class TestParserReuse:
    SESSION = (
        ("check", "{ex3}"),
        ("check",),                              # argparse error, exit 2
        ("check", "--json", "{w2}"),
        ("member", "{ex3}", "ab:ba"),
        ("frobnicate",),                         # argparse error, exit 2
        ("include", "{res}", "A", "B"),
        ("compare", "{res}", ":b", ":c"),
        ("fixtures", "nope"),
        ("check", "{onea}"),
    )

    def test_session_matches_fresh_parsers(self, capsys, monkeypatch):
        """One process, many commands: the parser built once gives what a
        parser built per call gives, byte for byte."""
        argvs = [[arg.format(ex3=fixture_path("ex3"), w2=fixture_path("w2"),
                             res=fixture_path("res"),
                             onea=fixture_path("onea")) for arg in argv]
                 for argv in self.SESSION]
        reused = [run_or_exit(capsys, argv) for argv in argvs]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_or_exit(capsys, argv) for argv in argvs]
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [0, 2, 1, 1, 2, 1, 1, 2, 1]
        assert reused[1][2].startswith("usage: posit check")
