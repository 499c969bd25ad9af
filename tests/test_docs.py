"""The README documents exactly the config keys, CLI flags and exit codes the code has."""

import argparse
import re
from pathlib import Path

from cohevol import cli, fock  # noqa: F401  fock's records join Record's subclasses
from cohevol.cli import _build_parser
from cohevol.core import Record
from cohevol.harness import _KEYS, RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_config_rows() -> list:
    """``(keys, defaults)`` per row of the README key table, each the row's backquoted texts."""
    table = README[README.index("### Config keys"):README.index("### Output")]
    rows = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
    # the defaults are the last cell: a meaning may hold a `|`
    return [(re.findall(r"`([^`]+)`", row[1]), re.findall(r"`([^`]+)`", row[-2])) for row in rows]


def _readme_common_flags() -> set:
    start = README.index("Common flags:")
    paragraph = README[start:README.index("\n\n", start)]
    return set(re.findall(r"`(--[a-z-]+)", paragraph))


def _readme_exit_codes() -> set:
    listing = re.search(r"\(exit codes: ([^)]*)\)", README).group(1)
    return {int(code) for code in re.findall(r"(?:^|, )(\d+) ", listing)}


def _readme_value_types() -> set:
    listing = re.search(r"value types \(([^)]*)\)", README).group(1)
    return set(re.findall(r"`(\w+)`", listing))


def _record_types(cls=Record) -> set:
    subs = set(cls.__subclasses__())
    return subs.union(*map(_record_types, subs))


def _parser_flags() -> set:
    parser = _build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for command in subparsers.choices.values()
        for option in command._option_string_actions
        if option.startswith("--") and option != "--help"
    }


def test_config_key_table_matches_the_parser():
    rows = _readme_config_rows()
    assert [key for keys, _ in rows for key in keys] == list(_KEYS)
    for keys, defaults in rows:
        for key, text in zip(keys, defaults or [None] * len(keys)):
            parse, default = _KEYS[key]
            # a default the README leaves out (`—`) is the empty one
            assert (parse(text) if text is not None else ()) == default, key


def test_every_config_field_is_its_key():
    assert RunConfig._fields == (*_KEYS, "raw_items")
    assert RunConfig() == RunConfig(**{key: default for key, (_, default) in _KEYS.items()})


def test_common_flags_match_the_cli():
    assert _readme_common_flags() == _parser_flags()


def test_exit_code_list_matches_the_cli():
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert _readme_exit_codes() == codes


def test_value_type_list_matches_the_records():
    assert _readme_value_types() == {cls.__name__ for cls in _record_types() if not cls.__name__.startswith("_")}
