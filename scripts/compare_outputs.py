#!/usr/bin/env python3
"""Compare what two spectre checkouts print for the same command lines.

    python3 scripts/compare_outputs.py OLD NEW [--count N]

OLD and NEW are the roots of two checkouts.  The inputs are the bundled
fixtures of this script's checkout, a few systems with a zero period, a few
series systems that reach every verdict on the solution's constant terms
and linear part, seven systems with large answers or many variables, fourteen
edge cases of the tokenizer, the parser, the certificates, the solver, the
size bound, compile's hidden variables and enumerated exponents, --count
seeded random series systems and as many random set systems, a few
frobenius generator lists, and a fixed list of command lines for the
argument parser: usage errors and the option forms it accepts.  Every command runs on each fixture, also with a horizon of 0 and a negative degree, so that the
refusals are compared too, every applicable command on each other input,
and solve at a horizon of 8192 on the large ones.  Each runs in process
through the ``spectre.cli.main`` of one checkout at a time, and its
standard output, standard error and exit code are recorded.  The script
prints every command line whose record differs between the checkouts and
exits 1 if there is one, else 0.  A checkout without the size bound
spends gigabytes on the inputs past it, so cap the memory of such a run
(``ulimit -v``).

The random systems draw their index sets from {}, {0}, {1}, {0,2}, {1,2},
N, P, 2+2*N, 1+3*N and Primes, so they reach the empty index set, index
sets containing 0 and enumerated index sets in every construct.

    python3 scripts/compare_outputs.py --record [--count N]

prints the record of the spectre found on the module path as JSON instead.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

INDEX_SETS = ("{0}", "{1}", "{0,2}", "{1,2}", "N", "P", "2+2*N", "1+3*N", "Primes")
SET_BASES = ("{0}", "{1}", "{1}", "{2,5}", "(3+2*N)", "({1} | 4+3*N)")
SET_COMMANDS = (
    ["check"],
    ["solve", "--horizon", "64"],
    ["solve", "--horizon", "64", "--format", "json"],
    ["params", "--horizon", "64"],
    ["digraph"],
    ["digraph", "--format", "dot"],
)
SERIES_COMMANDS = SET_COMMANDS + (
    ["compile"],
    ["coeffs", "--degree", "10"],
    ["coeffs", "--degree", "10", "--format", "json"],
)
FIXTURE_COMMANDS = (
    ["check"],
    ["solve"],
    ["solve", "--format", "json"],
    ["solve", "--horizon", "0"],
    ["params"],
    ["digraph"],
    ["digraph", "--format", "dot"],
    ["compile"],
    ["coeffs"],
    ["coeffs", "--format", "json"],
    ["coeffs", "--degree", "-1"],
)
ZERO_PERIODS = (
    "vars Y; mode sets; Y = {1} + (0*N)*Y;\n",
    "vars Y; mode sets; Y = {1} | 2+0*N;\n",
    "vars Y; mode series; Y = x + Seq[2+0*N](x);\n",
)
# M = 1 from a construct's empty structure (three times); a constant term
# written two ways; constant terms that never settle, with and without a
# linear term
ORIGIN_SYSTEMS = (
    "vars Y; mode series; Y = x + Seq[N](x)*Y;\n",
    "vars Y; mode series; Y = x + MSet[N](x)*Y;\n",
    "vars Y; mode series; Y = x + Cycle[N](x)*Y;\n",
    "vars Y; mode series; Y = 1 + x*Y;\n",
    "vars Y; mode series; Y = Seq[N](x);\n",
    "vars Y; mode series; Y = 1 + x + 1/2*Y;\n",
    "vars Y; mode series; Y = 1 + Y^2;\n",
)
# an aperiodic spectrum, whose refusal walks the primes up to the horizon;
# a closed form with a 5000-member finite part; a 64-variable cycle; a
# period of a million; and a power whose termwise expansion repeats families
LARGE_SYSTEMS = (
    "vars Y, Z; mode sets; Y = Primes*Z; Z = {1};\n",
    "vars Y; mode sets; Y = {1} | {1} + {2}*Y | {10000};\n",
    "vars Y, Z; mode sets; Y = Primes*Z; Z = {3,5};\n",
    "vars " + ", ".join(f"Y{i}" for i in range(64)) + "; mode sets;\n"
    + "".join(f"Y{i} = {{1}} | {{2}} + Y{(i + 1) % 64};\n" for i in range(64)),
    "vars Y; mode sets; Y = {1} | 5+1000000*N;\n",
    "vars Y; mode series; Y = x*(1 + (x + Y)^14);\n",
    # a binary tree of 127 variables: each family uses two of them
    "vars " + ", ".join(f"Y{i}" for i in range(127)) + "; mode sets;\n"
    + "".join(f"Y{i} = {{1}} | {{1}} + Y{2 * i + 1} + Y{2 * i + 2};\n" for i in range(63))
    + "".join(f"Y{i} = {{1}};\n" for i in range(63, 127)),
)
# a superscript digit, which is no number; a family that needs an empty
# variable, which must not count toward a certificate; a missing equation
# after a closing comment with no newline, whose error sits at the '#'; a
# form feed, which is no blank, after tabs; names with '½' and 'é'
# beside a number in Arabic-Indic digits; 3000 nested parentheses in a
# set file and in a series file; a cycle of unit rules whose Gamma'
# copies a family with Primes into another equation; a member past the size
# bound; a product that uses Y with Primes and once more, which compile
# lists as two pairs of Y in one family; the member just below the bound; a
# power of a construct over Primes, 40 pairs of Y; and a set term that lists
# Y twice with Primes
EDGE_SYSTEMS = (
    "vars Y; mode sets; Y = {²};\n",
    "vars Y, W; mode sets; Y = {1} | Y + Y + W; W = {1} + W;\n",
    "vars Y, Z; mode sets; Y = {1};\t# Z has no equation",
    "vars Y;\n\tmode sets;\n\tY = {1} |\x0c Y;\n",
    "vars Y½, é; mode sets; Y½ = {٣} | é; é = {1};\n",
    "vars Y; mode sets; Y = " + "(" * 3000 + "{1}" + ")" * 3000 + ";\n",
    "vars Y; mode series; Y = " + "(" * 3000 + "x" + ")" * 3000 + ";\n",
    "vars Y, Z, W; mode sets; Y = Z | {1} + Primes*W; Z = Y | {2} + Z + Z;"
    " W = {1} | {0} + W | {2} + W;\n",
    "vars Y; mode sets; Y = {1000000000000000};\n",
    "vars Y; mode series; Y = x + x*MSet[Primes](Y)*Y;\n",
    "vars Y; mode sets; Y = {99999999};\n",
    "vars Y; mode series; Y = x + x*MSet[Primes](Y)^40;\n",
    "vars Y; mode sets; Y = {1} | {1} + Primes*Y + Primes*Y;\n",
    "vars Y; mode series; Y = x^1000000000000;\n",
)
HIGH_HORIZON = ["solve", "--horizon", "8192"]
FROBENIUS = ("3 5", "4 6", "6 10 15", "7", "12 18 27", "0 3", "100003 100019", "4 6 9 99999999")
# command lines for the argument parser: usage errors and the forms it
# accepts; FILE stands for PARSER_SYSTEM
PARSER_SYSTEM = "vars Y; mode sets; Y = {3,5} | {3,5} + Y;\n"
PARSER_LINES = (
    "",
    "frobnicate",
    "solve",
    "solve FILE --enumeration-cap 1",
    "solve FILE --horizon abc",
    "solve FILE --format xml",
    "solve FILE --horizon",
    "solve FILE --horizon -1",
    "frobenius -3 5",
    "solve FILE --hor 64 --format=json",
    "solve FILE --h 64",
    "solve --horizon=64 FILE",
    "solve FILE --horizon 0 --horizon 64",
    "solve -- FILE",
    "solve FILE -- --horizon 3",
    "frobenius 3 x",
    "frobenius",
    "check FILE --horizon 3",
    "-hx",
    "--foo solve FILE --bar",
)
TIMEOUT_S = 30


def _pick(rng: random.Random, choices) -> str:
    """One of choices, or now and then the empty set."""
    return "{}" if rng.random() < 0.04 else rng.choice(choices)


def _series_system(rng: random.Random, k: int) -> str:
    names = [f"A{i + 1}" for i in range(k)]

    def arg() -> str:
        return rng.choice(["x", "x", rng.choice(names), f"x*{rng.choice(names)}", "x + x^2"])

    def factor() -> str:
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(names)
        if roll < 0.4:
            return f"{rng.choice(names)}^2"
        kind = rng.choice(["Seq", "MSet", "MSet", "Cycle"])
        index = "" if rng.random() < 0.15 else f"[{_pick(rng, INDEX_SETS)}]"
        return f"{kind}{index}({arg()})"

    def term() -> str:
        factors = [rng.choice(["x", "x", "x^2", "2*x", "1"])] if rng.random() < 0.85 else []
        factors += [factor() for _ in range(rng.randint(0, 2))]
        return "*".join(factors) or "x"

    lines = [f"vars {', '.join(names)};", "mode series;"]
    for name in names:
        lines.append(f"{name} = {' + '.join(term() for _ in range(rng.randint(1, 3)))};")
    return "\n".join(lines) + "\n"


def _set_system(rng: random.Random, k: int) -> str:
    names = [f"Y{i + 1}" for i in range(k)]

    def exponent(name: str) -> str:
        index = _pick(rng, INDEX_SETS + ("",) * 6)
        if index and index[0].isdigit():
            index = f"({index})"
        return f"{index}*{name}" if index else name

    def term() -> str:
        parts = [_pick(rng, SET_BASES)] if rng.random() < 0.7 else []
        parts += [exponent(rng.choice(names)) for _ in range(rng.randint(0, 2))]
        return " + ".join(parts) or "{1}"

    lines = [f"vars {', '.join(names)};", "mode sets;"]
    for name in names:
        lines.append(f"{name} = {' | '.join(term() for _ in range(rng.randint(1, 3)))};")
    return "\n".join(lines) + "\n"


def cases(fixtures: pathlib.Path, count: int, workdir: pathlib.Path):
    """(label, argv, spec) for every command line to run; spec is the text
    of a system made here, written to workdir, and None for the rest."""
    specs = [(p.name, p, None) for p in sorted(fixtures.glob("*.spec"))]
    groups = (
        ("zero-period", ZERO_PERIODS),
        ("origin", ORIGIN_SYSTEMS),
        ("large", LARGE_SYSTEMS),
        ("edge", EDGE_SYSTEMS),
    )
    for prefix, texts in groups:
        for n, text in enumerate(texts):
            path = workdir / f"{prefix}-{n}.spec"
            path.write_text(text)
            specs.append((path.name, path, text))
    rng = random.Random(0)
    for n in range(count):
        for mode, make in (("series", _series_system), ("sets", _set_system)):
            path = workdir / f"{mode}-{n}.spec"
            text = make(rng, rng.randint(1, 3))
            path.write_text(text)
            specs.append((path.name, path, text))
    for name, path, text in specs:
        if text is None:
            commands = FIXTURE_COMMANDS
        else:
            commands = SET_COMMANDS if "mode sets" in text else SERIES_COMMANDS
        if text in LARGE_SYSTEMS:
            commands += (HIGH_HORIZON,)
        for command in commands:
            argv = [command[0], str(path), *command[1:]]
            yield " ".join([command[0], name, *command[1:]]), argv, text
    for gens in FROBENIUS:
        yield f"frobenius {gens}", ["frobenius", *gens.split()], None
    path = workdir / "usage.spec"
    path.write_text(PARSER_SYSTEM)
    for line in PARSER_LINES:
        argv = [str(path) if a == "FILE" else a for a in line.split()]
        yield f"argv: {line.replace('FILE', path.name)}", argv, PARSER_SYSTEM


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so cli.main lets it pass."""


def _alarm(signum, frame):
    raise _Timeout()


def record(fixtures: pathlib.Path, count: int) -> dict:
    """Output, error output and exit code of every case, by label, under
    the spectre found on sys.path."""
    from spectre import cli

    signal.signal(signal.SIGALRM, _alarm)
    out = {"spectre": str(pathlib.Path(cli.__file__).resolve().parent), "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv, spec in cases(fixtures, count, pathlib.Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            signal.alarm(TIMEOUT_S)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except _Timeout:
                code = f"timeout after {TIMEOUT_S} s"
            finally:
                signal.alarm(0)
            out["cases"][label] = {
                "code": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "spec": spec,
            }
    return out


def _record_of(root: pathlib.Path, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, __file__, "--record", "--count", str(args.count),
            "--fixtures", str(args.fixtures)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{root}: recording failed\n{done.stderr}")
    rec = json.loads(done.stdout)
    if pathlib.Path(rec["spectre"]) != (root / "src" / "spectre").resolve():
        raise SystemExit(f"{root}: imported spectre from {rec['spectre']}")
    return rec["cases"]


def compare(old: dict, new: dict) -> list[str]:
    """A report of every label whose record differs."""
    lines = []
    for label in sorted(old.keys() | new.keys()):
        a, b = old.get(label), new.get(label)
        if a == b:
            continue
        lines.append(f"=== {label}")
        if a is None or b is None:
            lines.append(f"only in {'new' if a is None else 'old'}")
            continue
        if b["spec"] is not None:
            lines.extend("  | " + s for s in b["spec"].splitlines())
        if a["code"] != b["code"]:
            lines.append(f"exit code: {a['code']} -> {b['code']}")
        for stream in ("stdout", "stderr"):
            lines.extend(
                difflib.unified_diff(
                    a[stream].splitlines(), b[stream].splitlines(),
                    f"old {stream}", f"new {stream}", lineterm="",
                )
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("roots", nargs="*", type=pathlib.Path, help="OLD and NEW checkout roots")
    ap.add_argument(
        "--record", action="store_true", help="print the record of the spectre on the path"
    )
    ap.add_argument(
        "--count", type=int, default=100, help="random systems of each mode (default: 100)"
    )
    ap.add_argument(
        "--fixtures", type=pathlib.Path, default=REPO_ROOT / "fixtures",
        help="directory of .spec files to run (default: bundled fixtures)",
    )
    args = ap.parse_args(argv)
    if args.record:
        json.dump(record(args.fixtures, args.count), sys.stdout)
        return 0
    if len(args.roots) != 2:
        ap.error("give two checkout roots, OLD and NEW")
    old, new = (_record_of(root.resolve(), args) for root in args.roots)
    report = compare(old, new)
    for line in report:
        print(line)
    differ = sum(line.startswith("=== ") for line in report)
    print(f"{len(old.keys() | new.keys())} command lines, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
