"""The README documents exactly the config keys, CLI flags and exit codes the code has."""

import argparse
import re
from pathlib import Path

from cohevol import cli
from cohevol.cli import _build_parser
from cohevol.harness import _KEY_PARSERS, RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_config_keys() -> set:
    table = README[README.index("### Config keys"):README.index("### Output")]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    return {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}


def _readme_common_flags() -> set:
    start = README.index("Common flags:")
    paragraph = README[start:README.index("\n\n", start)]
    return set(re.findall(r"`(--[a-z-]+)", paragraph))


def _readme_exit_codes() -> set:
    listing = re.search(r"\(exit codes: ([^)]*)\)", README).group(1)
    return {int(code) for code in re.findall(r"(?:^|, )(\d+) ", listing)}


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
    assert _readme_config_keys() == set(_KEY_PARSERS)


def test_every_config_field_is_its_key():
    fields = set(RunConfig._fields) - {"raw_items"}
    assert fields == set(_KEY_PARSERS)


def test_common_flags_match_the_cli():
    assert _readme_common_flags() == _parser_flags()


def test_exit_code_list_matches_the_cli():
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert _readme_exit_codes() == codes
