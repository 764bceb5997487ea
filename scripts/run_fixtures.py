#!/usr/bin/env python3
"""Run every bundled fixture through the command-line pipeline.

For each ``fixtures/*.spec`` file this prints the health check, the
solved closed forms, and the mode-specific reports (parameter table and
dependency digraph for set systems, counting-series coefficients for
series systems).  Useful as a smoke test and as a worked tour of the
tool's output formats.

Exits 1 if any command reports an internal error (exit code 4).  Semantic
errors (exit code 3) are reported but do not fail the run: some fixtures
are known to be out of scope for some commands.
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys

from spectre import PSSystem, cli, dsl

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_one(path: pathlib.Path, degree: int) -> list[int]:
    """Run every applicable command on one fixture; returns the exit codes."""
    system = dsl.parse(path.read_text())
    mode = "series" if isinstance(system, PSSystem) else "sets"
    banner = f"{path.name} ({mode} mode, {len(system.variables)} variables)"
    print("=" * len(banner))
    print(banner)
    print("=" * len(banner))
    commands = [["check", str(path)], ["solve", str(path)]]
    if mode == "sets":
        commands += [["params", str(path)], ["digraph", str(path)]]
    else:
        commands += [
            ["compile", str(path)],
            ["coeffs", str(path), "--degree", str(degree)],
        ]
    codes = []
    for argv in commands:
        print(f"$ spectre {' '.join(argv)}")
        code = cli.main(argv)
        if code:
            print(f"(exit code {code})")
        print()
        codes.append(code)
    return codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--fixtures",
        type=pathlib.Path,
        default=REPO_ROOT / "fixtures",
        help="directory of .spec files to run (default: bundled fixtures)",
    )
    ap.add_argument(
        "--degree",
        type=int,
        default=12,
        help="truncation degree for series coefficients (default: 12)",
    )
    args = ap.parse_args(argv)
    paths = sorted(args.fixtures.glob("*.spec"))
    if not paths:
        print(f"no .spec files found in {args.fixtures}", file=sys.stderr)
        return 1
    codes = collections.Counter()
    for path in paths:
        codes.update(run_one(path, args.degree))
    summary = ", ".join(f"exit {c}: {n}" for c, n in sorted(codes.items()))
    print(f"{sum(codes.values())} commands: {summary}")
    return 1 if codes[cli.EXIT_INTERNAL] else 0


if __name__ == "__main__":
    raise SystemExit(main())
