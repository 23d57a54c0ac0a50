"""Bundled example automata and arenas used by tests and the CLI."""

from importlib.resources import as_file, files

from .automata import Dpa, parse_dpa
from .errors import PositError
from .games import Arena, parse_arena

DPA_NAMES = ("buchi_a", "fin_a", "onea", "infab", "rabin", "w2", "res", "ex3")
ARENA_NAMES = ("w2game", "twoloops")


def data_dir() -> str:
    with as_file(files("posit") / "data") as path:
        return str(path)


def _data_file(name: str, names, kind: str):
    """The bundled file of fixture `name`, which must be one of `names`."""
    if name not in names:
        raise PositError("unknown %s %r" % (kind, name))
    suffix = ".dpa" if name in DPA_NAMES else ".arena"
    return files("posit") / "data" / (name + suffix)


def fixture_path(name: str) -> str:
    with as_file(_data_file(name, DPA_NAMES + ARENA_NAMES, "fixture")) as path:
        return str(path)


def load_dpa(name: str) -> Dpa:
    return parse_dpa(_data_file(name, DPA_NAMES, "automaton fixture")
                     .read_text(encoding="utf-8"))


def load_arena(name: str) -> Arena:
    return parse_arena(_data_file(name, ARENA_NAMES, "arena fixture")
                       .read_text(encoding="utf-8"))
