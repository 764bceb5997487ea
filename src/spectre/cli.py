"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 syntax error in the input file,
3 semantic error (a SemanticError: input out of scope or ill posed),
4 internal error (any other exception).
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from types import SimpleNamespace

from . import compile as compile_mod
from . import dsl, epset, pseries, setsys
from .epset import SemanticError, format_epset, nat_closure, normalize, params
from .pseries import PSSystem
from .setsys import SetSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4

def _read(path: str) -> str:
    """The text of a UTF-8 file, its line ends read as open() reads them;
    a byte that is not UTF-8 is a syntax error at that byte."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        print(f"spectre: cannot read {path}: {e.strerror}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as e:
        text, bad = data[: e.start].decode("utf-8"), data[e.start]
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if bad is not None:
        raise dsl.error_at(text, f"byte {bad:#04x} is not UTF-8", len(text))
    return text


def _load(path: str):
    return dsl.parse(_read(path))


def _as_set_system(system) -> SetSystem:
    """Series systems are translated directly, as compile prints them."""
    if isinstance(system, SetSystem):
        return system
    return compile_mod.compile_system(system).system


def _ill_posed_note(system) -> str:
    """The note for solve and params on a series system that check and
    coeffs refuse as ill posed: it names the Neumann verdict when that is
    what fails, else the refusal; '' on a well-posed system."""
    if not isinstance(system, PSSystem):
        return ""
    try:
        linear = system.linear_part
        failed = linear.verdict in ("Singular", "NegativeEntries")
        reason = linear.verdict if failed else linear.refusal
    except SemanticError as e:
        reason = str(e)
    if not reason:
        return ""
    return (
        f"note: linear part at the origin: {reason}; reporting the least "
        "solution of the direct translation"
    )


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    system = _load(args.file)
    if isinstance(system, PSSystem):
        print(f"mode: series  variables: {', '.join(system.variables)}")
        linear = system.linear_part
        if linear.diagnostics:
            print("elementary: no")
            for d in linear.diagnostics:
                print(f"  {d}")
        else:
            print("elementary: yes")
        if linear.verdict:
            print(f"linear part at the origin: {linear.verdict}")
        linear.require_well_posed()
        # compile's hidden variables follow the user's
        empties = setsys.classify(_as_set_system(system)).empties
        names = ", ".join(v for i, v in enumerate(system.variables) if i in empties) or "none"
        print(f"identically zero: {names}")
        return EXIT_OK
    print(f"mode: sets  variables: {', '.join(system.variables)}")
    cls = setsys.classify(system)
    print(f"basic: {'yes' if cls.is_basic else 'no'}")
    print(f"elementary: {'yes' if cls.is_elementary else 'no'}")
    print(f"reduced: {'yes' if cls.is_reduced else 'no'}")
    names = ", ".join(system.variables[i] for i in sorted(cls.empties)) or "none"
    print(f"empty components: {names}")
    return EXIT_OK


def cmd_solve(args) -> int:
    system = _load(args.file)
    k = len(system.variables)  # the user's variables; compile's hidden ones follow
    note = _ill_posed_note(system) if args.format == "text" else ""
    sol = setsys.solve(_as_set_system(system), horizon=args.horizon)
    if note:
        print(note)
    if args.format == "json":
        doc = setsys.solution_json(sol, k)
        doc["horizon"] = sol.horizon
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for v in sol.variables[:k]:
        print(f"{v.name} = {format_epset(v.closed_form)}   [{v.certificate}]")
    return EXIT_OK


def cmd_params(args) -> int:
    system = _load(args.file)
    k = len(system.variables)  # the user's variables; compile's hidden ones follow
    note = _ill_posed_note(system)
    sol = setsys.solve(_as_set_system(system), horizon=args.horizon)
    if note:
        print(note)
    print(f"{'var':<8} {'min':>6} {'gcd':>6} {'period':>6} {'onset':>6}")
    for v in sol.variables[:k]:
        m = "inf" if v.params.m == math.inf else str(v.params.m)
        print(
            f"{v.name:<8} {m:>6} {v.params.q:>6} "
            f"{v.params.p:>6} {v.params.c:>6}"
        )
    return EXIT_OK


def cmd_coeffs(args) -> int:
    system = _load(args.file)
    if not isinstance(system, PSSystem):
        raise SemanticError("coeffs requires a series-mode file")
    sol = pseries.fixed_point_solve(system, args.degree)
    if args.format == "json":
        doc = {
            "degree": args.degree,
            "series": {
                name: [pseries.format_coeff(c) for c in s.coeffs]
                for name, s in zip(system.variables, sol)
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for name, s in zip(system.variables, sol):
        terms = ", ".join(pseries.format_coeff(c) for c in s.coeffs)
        print(f"{name}: [{terms}]")
    return EXIT_OK


def cmd_digraph(args) -> int:
    system = _as_set_system(_load(args.file))
    if args.format == "dot":
        print(setsys.digraph_dot(system))
        return EXIT_OK
    dg = setsys.dependency(system)
    names = system.variables
    for i, j in sorted(dg.edges):
        print(f"{names[i]} -> {names[j]}")
    for comp in dg.strong_components():
        members = ", ".join(names[i] for i in comp)
        print(f"component: {{{members}}}")
    return EXIT_OK


def cmd_compile(args) -> int:
    system = _load(args.file)
    if not isinstance(system, PSSystem):
        raise SemanticError("compile requires a series-mode file")
    report = compile_mod.compile_system(system)
    sys.stdout.write(dsl.print_system(report.system))
    for note in report.notes:
        print(f"# {note}")
    for flag in report.flags:
        print(f"# enumerated index set in use: {flag}")
    return EXIT_OK


def cmd_frobenius(args) -> int:
    gens = args.generators
    if any(g <= 0 for g in gens):
        raise SemanticError("generators must be positive")
    for g in gens:
        epset.bounded(g, "generator")
    epset.bounded(epset.conductor_bound(gens), "conductor bound")
    closure = nat_closure(normalize(gens))
    p = params(closure)
    g = math.gcd(*gens)
    conductor = p.c
    gaps = epset.gaps_below(closure, conductor)
    print(f"generators: {', '.join(str(x) for x in sorted(set(gens)))}")
    print(f"gcd: {g}")
    print(f"conductor: {conductor}")
    print(f"gaps: {gaps}")
    print(f"closure: {format_epset(closure)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command line, read from a table as argparse read it


class _Parser:
    """Reads a command line against the command table of build_parser.

    The reading is argparse's: --opt value, --opt=value and unique
    prefixes of a flag; a negative number is a value, not a flag; the
    first -- ends the options; the last repeat of an option wins; -h and
    --help print help and exit 0. A usage error prints the usage line of
    the parser that found it and exits 1."""

    def __init__(self, commands: dict):
        self.commands = commands

    def usage(self, name: str | None) -> str:
        if name is None:
            return f"usage: spectre [-h] {{{','.join(self.commands)}}} ..."
        _, _, (pos, _, many), options = self.commands[name]
        flags = "".join(f" [{flag} {_metavar(flag, o[2])}]" for flag, o in options.items())
        return f"usage: spectre {name} [-h]{flags} {pos}" + (f" [{pos} ...]" if many else "")

    def error(self, name: str | None, message: str):
        print(self.usage(name), file=sys.stderr)
        print(f"spectre{' ' + name if name else ''}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)

    def help(self, name: str | None, flag: str, glued: str | None):
        """-h or --help, with whatever was glued to it: -hh is -h twice,
        and any other glued text is refused."""
        if glued is not None:
            rest = glued.lstrip("h") if flag == "-h" else glued
            if rest or not glued:
                self.error(name, f"argument -h/--help: ignored explicit argument {rest!r}")
        rows = [("-h, --help", "print this help and exit")]
        if name is None:
            commands = [(c, entry[1]) for c, entry in self.commands.items()]
            body = [__doc__.strip(), "", "commands:", *_rows(commands)]
        else:
            _, text, (pos, _, many), options = self.commands[name]
            what = "one or more integers" if many else "a system file"
            body = [text, "", "arguments:", *_rows([(pos, what)])]
            rows += [(f"{flag} {_metavar(flag, o[2])}", f"default: {o[1]}")
                     for flag, o in options.items()]
        print(self.usage(name), "", *body, "", "options:", *_rows(rows), sep="\n")
        sys.exit(EXIT_OK)

    def flag(self, name: str | None, arg: str, flags) -> tuple | None:
        """(flag, glued value or None) for an option, ("", None) for an
        unknown one, None for a positional argument."""
        if not arg.startswith("-") or arg == "-":
            return None
        if arg in flags:
            return arg, None
        head, eq, value = arg.partition("=")
        if eq and head in flags:
            return head, value
        if arg[1] == "-":
            found = [(f, value if eq else None) for f in flags if f.startswith(head)]
        else:
            found = [(arg[:2], arg[2:])] if arg[:2] in flags else []
        if len(found) > 1:
            matches = ", ".join(f for f, _ in found)
            self.error(name, f"ambiguous option: {arg} could match {matches}")
        if found:
            return found[0]
        if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
            return None
        return "", None

    def value(self, name: str, argument: str, kind, choices, arg: str):
        try:
            v = kind(arg)
        except ValueError:
            self.error(name, f"argument {argument}: invalid {kind.__name__} value: {arg!r}")
        if choices and v not in choices:
            listed = ", ".join(map(repr, choices))
            self.error(name, f"argument {argument}: invalid choice: {arg!r} (choose from {listed})")
        return v

    def parse_args(self, argv=None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        extras: list[str] = []
        # before the command: -h, and unknown options left for the end
        for i, arg in enumerate(argv):
            flag = None if arg == "--" else self.flag(None, arg, ("-h", "--help"))
            if flag is None:
                break
            if flag[0]:
                self.help(None, *flag)
            extras.append(arg)
        else:
            i = len(argv)
        if argv[i:] in ([], ["--"]):
            self.error(None, "the following arguments are required: command")
        name, rest = argv[i], argv[i + 1:]
        if name not in self.commands:
            listed = ", ".join(map(repr, self.commands))
            self.error(None, f"argument command: invalid choice: {name!r} (choose from {listed})")
        args = self.read(name, rest, extras)
        if extras:
            self.error(None, f"unrecognized arguments: {' '.join(extras)}")
        return args

    def read(self, name: str, rest: list[str], extras: list[str]) -> SimpleNamespace:
        """The arguments after command name; what it does not read goes to
        extras."""
        func, _, (pos, kind, many), options = self.commands[name]
        flags = ("-h", "--help", *options)
        # (argument, flag, glued value); every argument after the first --
        # is positional, and that -- stays as a marker with flag "--"
        mark = ("--", "--", None)
        cut = rest.index("--") if "--" in rest else len(rest)
        tokens = [(arg, *(self.flag(name, arg, flags) or (None, None))) for arg in rest[:cut]]
        if cut < len(rest):
            tokens += [mark] + [(arg, None, None) for arg in rest[cut + 1:]]
        values = {flag[2:]: o[1] for flag, o in options.items()}
        found = None
        i = 0
        while i < len(tokens):
            arg, flag, glued = tokens[i]
            i += 1
            if flag == "":
                extras.append(arg)
            elif flag in ("-h", "--help"):
                self.help(name, flag, glued)
            elif flag in options:
                if glued is None:
                    if i == len(tokens) or tokens[i][1] is not None:
                        self.error(name, f"argument {flag}: expected one argument")
                    glued = tokens[i][0]
                    i += 1
                values[flag[2:]] = self.value(name, flag, options[flag][0], options[flag][2], glued)
            else:
                # positional arguments up to the next option, the marker
                # perhaps among them: an unread positional takes the first
                # (with a marker on either side) or, if many, all of them
                start = i - 1
                while i < len(tokens) and tokens[i][1] in (None, "--"):
                    i += 1
                run = tokens[start:i]
                taken = 0
                if found is None and run != [mark]:
                    taken = len(run) if many else 1 + (mark in run[:2])
                    found = [self.value(name, pos, kind, None, a)
                             for a, f, _ in run[:taken] if f is None]
                extras += [a for a, _, _ in run[taken:]]
        if found is None:
            self.error(name, f"the following arguments are required: {pos}")
        values[pos] = found if many else found[0]
        return SimpleNamespace(func=func, **values)


def _metavar(flag: str, choices) -> str:
    return f"{{{','.join(choices)}}}" if choices else flag[2:].upper()


def _rows(rows) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {right}" for left, right in rows]


def build_parser() -> _Parser:
    """The command table: each command's handler, help line, positional
    argument (name, type, whether it takes one or more) and options
    (flag -> (type, default, choices))."""
    file, generators = ("file", str, False), ("generators", int, True)
    horizon = {"--horizon": (int, 512, None)}
    return _Parser({
        "check": (cmd_check, "classify a system", file, {}),
        "solve": (cmd_solve, "solve the set system", file,
                  {**horizon, "--format": (str, "text", ("text", "json"))}),
        "params": (cmd_params, "min/gcd/period/onset per variable", file, horizon),
        "coeffs": (cmd_coeffs, "series coefficients", file,
                   {"--degree": (int, 32, None), "--format": (str, "text", ("text", "json"))}),
        "digraph": (cmd_digraph, "dependency digraph", file,
                    {"--format": (str, "text", ("text", "dot"))}),
        "compile": (cmd_compile, "translate a series file to sets", file, {}),
        "frobenius": (cmd_frobenius, "numerical closure of generators", generators, {}),
    })


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use: parse_args leaves it unchanged, so
    every call of main in a process can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # answers are exact at any size: lift the interpreter's int <-> str digit
    # limit (Python 3.11 on) for the command, and put it back afterwards
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: stop quietly, and send what is still
        # buffered to the null device so the flush at exit cannot fail
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return EXIT_USAGE
    except dsl.ParseError as e:
        print(f"spectre: syntax error at {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except SemanticError as e:
        print(f"spectre: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as e:
        print(f"spectre: internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
