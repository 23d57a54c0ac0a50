"""Bundled example automata and arenas used by tests and the CLI."""

from importlib.resources import files
from os import PathLike

from .automata import Dpa, parse_dpa
from .errors import PositError
from .games import Arena, parse_arena

DPA_NAMES = ("buchi_a", "fin_a", "onea", "infab", "rabin", "w2", "res", "ex3")
ARENA_NAMES = ("w2game", "twoloops")


def _path(resource) -> str:
    """The path of a bundled resource; PositError inside an archive."""
    if not isinstance(resource, PathLike):
        raise PositError("%s is inside an archive: bundled files have no "
                         "path" % resource)
    return str(resource)


def data_dir() -> str:
    return _path(files("posit") / "data")


def _data_file(name: str, names, kind: str):
    """The bundled file of fixture `name`, which must be one of `names`."""
    if name not in names:
        raise PositError("unknown %s %r" % (kind, name))
    suffix = ".dpa" if name in DPA_NAMES else ".arena"
    return files("posit") / "data" / (name + suffix)


def fixture_path(name: str) -> str:
    return _path(_data_file(name, DPA_NAMES + ARENA_NAMES, "fixture"))


def load_dpa(name: str) -> Dpa:
    return parse_dpa(_data_file(name, DPA_NAMES, "automaton fixture")
                     .read_text(encoding="utf-8"))


def load_arena(name: str) -> Arena:
    return parse_arena(_data_file(name, ARENA_NAMES, "arena fixture")
                       .read_text(encoding="utf-8"))
