"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 syntax error in the input file,
3 semantic error (a SemanticError: input out of scope or ill posed),
4 internal error (any other exception).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

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

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        print(f"spectre: cannot read {path}: {e.strerror}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load(path: str):
    return dsl.parse(_read(path))


def _as_set_system(system) -> SetSystem:
    """Series systems are translated directly, as compile prints them."""
    if isinstance(system, SetSystem):
        return system
    return compile_mod.compile_system(system).system


def _ill_posed_note(system) -> str:
    """The note for solve and params on a series system whose linear part
    M at the solution's constant terms has no non-negative (I - M)^-1,
    else ''."""
    verdict = system.linear_part.verdict if isinstance(system, PSSystem) else None
    if verdict in (None, "NonnegInverse"):
        return ""
    return (
        f"note: linear part at the origin: {verdict}; reporting the least "
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
        zeros = sorted(pseries.zero_components(system))
        names = ", ".join(system.variables[i] for i in zeros) or "none"
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
    note = _ill_posed_note(system)
    sol = setsys.solve(_as_set_system(system), horizon=args.horizon)
    if note and args.format == "text":
        print(note)
    if args.format == "json":
        doc = setsys.solution_json(sol)
        doc["horizon"] = sol.horizon
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for v in sol.variables:
        print(f"{v.name} = {format_epset(v.closed_form)}   [{v.certificate}]")
    return EXIT_OK


def cmd_params(args) -> int:
    system = _load(args.file)
    note = _ill_posed_note(system)
    sol = setsys.solve(_as_set_system(system), horizon=args.horizon)
    if note:
        print(note)
    print(f"{'var':<8} {'min':>6} {'gcd':>6} {'period':>6} {'onset':>6}")
    for v in sol.variables:
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
        members = ", ".join(names[i] for i in sorted(comp))
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
    closure = nat_closure(normalize(gens))
    p = params(closure)
    g = epset.gcd_of(normalize(gens))
    conductor = p.c
    # every member below the conductor lies in the finite part
    members = set(closure.finite_part)
    gaps = [n for n in range(conductor) if n not in members]
    print(f"generators: {', '.join(str(x) for x in sorted(set(gens)))}")
    print(f"gcd: {g}")
    print(f"conductor: {conductor}")
    print(f"gaps: {gaps}")
    print(f"closure: {format_epset(closure)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spectre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a system")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve the set system")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, default=512)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("params", help="min/gcd/period/onset per variable")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, default=512)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("coeffs", help="series coefficients")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=32)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("digraph", help="dependency digraph")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.set_defaults(func=cmd_digraph)

    p = sub.add_parser("compile", help="translate a series file to sets")
    p.add_argument("file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("frobenius", help="numerical closure of generators")
    p.add_argument("generators", type=int, nargs="+")
    p.set_defaults(func=cmd_frobenius)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use: parse_args leaves it unchanged, so
    every call of main in a process can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
