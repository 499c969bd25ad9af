"""Command line front end: parameter sweeps, comparisons, scans, and export."""

from __future__ import annotations

import argparse
import math
import sys

from .core import ConfigError, ConvergenceError, DomainError
from .harness import (
    RunConfig,
    cmd_collapse_scan,
    cmd_compare,
    cmd_dispersion_regimes,
    cmd_ehrenfest,
    cmd_evolve,
    load_config,
    render,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohevol",
        description="Evolution of coherent-state averages for degree-4 oscillator models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "closed-form / classical / oracle series on a time grid"),
        ("compare", "closed form against the truncated-basis oracle"),
        ("collapse-scan", "log-magnitude approach sequences at collapse times"),
        ("ehrenfest", "classical-breakdown times across an hbar sweep"),
        ("dispersion-regimes", "regime classification and dispersion approximations"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--out", default=None, help="output path (stdout when omitted)")
        cmd.add_argument("--format", default=None, choices=("csv", "json"))
        cmd.add_argument("--oracle", default=None, choices=("on", "off"))
        cmd.add_argument("--guard", default=None, type=float)
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.format is not None:
        config = config.replace(format=args.format)
    if args.guard is not None:
        if not math.isfinite(args.guard):
            raise ConfigError(f"--guard must be finite, got {args.guard!r}")
        config = config.replace(guard=args.guard)
    if args.oracle == "on" and "oracle" not in config.sources:
        config = config.replace(sources=config.sources + ("oracle",))
    if args.oracle == "off":
        config = config.replace(sources=tuple(s for s in config.sources if s != "oracle"))
    return config


def _run(command: str, config: RunConfig) -> str:
    if command == "evolve":
        result = cmd_evolve(config)
    elif command == "compare":
        result = cmd_compare(config)
    elif command == "collapse-scan":
        result = cmd_collapse_scan(config)
    elif command == "ehrenfest":
        _, result = cmd_ehrenfest(config)
    else:
        result = cmd_dispersion_regimes(config)
    return render(result, config, command)


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        text = _run(args.command, config)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"cohevol: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"cohevol: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
