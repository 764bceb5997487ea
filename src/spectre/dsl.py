"""Parser and canonical printer for the input language.

Files declare variables, a mode (series or sets), optional named set
bindings, and one equation per variable:

    vars T;
    mode series;
    T = x*(1 + T^2);     # binary trees

    vars Y;
    mode sets;
    Y = {1} | {1} + {2}*Y;
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Tuple, Union

from .epset import (
    BUILTIN_SETS,
    EMPTY,
    ENUMERATED_SETS,
    EPSet,
    EnumeratedSet,
    IndexSet,
    POS,
    ZERO,
    bounded,
    format_epset,
    normalize,
    singleton,
    sumset,
    union,
)
from .pseries import (
    Add,
    Const,
    Construct,
    Mul,
    Pow,
    PSSystem,
    SysExpr,
    Var,
    X,
    format_coeff,
)
from .setsys import ONE, GammaTerm, SetSystem

CONSTRUCT_NAMES = ("Seq", "MSet", "Cycle", "DCycle")
RESERVED = set(BUILTIN_SETS) | set(ENUMERATED_SETS) | set(CONSTRUCT_NAMES) | {
    "x",
    "vars",
    "mode",
    "set",
    "series",
    "sets",
}


# deepest nesting of parentheses the parser reads; the parser and the
# series walkers recurse once or a few times per level, so this keeps them
# well inside the interpreter's recursion limit
MAX_NESTING = 50


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# blanks (not \s, which also takes a form feed), comments, numbers (\d is
# what str.isdecimal accepts), names (\w is what isalnum accepts, or _; the
# first character must also be a letter or _), punctuation, and any other
# character, which is an error
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r\n]+)|(?P<comment>#[^\n]*)|(?P<INT>\d+)|(?P<NAME>\w+)"
    r"|(?P<PUNCT>[=;,|+*^(){}\[\]/])|(?P<other>.)"
)


def error_at(text: str, msg: str, at: int) -> ParseError:
    """A ParseError at offset at of text, as line:column counted from 1."""
    line = text.count("\n", 0, at) + 1
    return ParseError(msg, line, at - text.rfind("\n", 0, at))


def _tokenize(text: str) -> list:
    """The tokens of text as (kind, text, offset), kind one of NAME, INT,
    PUNCT and EOF.  EOF sits at the end of the text, or at the # of a
    closing comment that no newline ends, and is repeated so that
    lookahead past the end needs no clamp."""
    toks = []
    m = None
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m[0]
        if kind == "blank" or kind == "comment":
            continue
        if kind == "other" or kind == "NAME" and not (word[0].isalpha() or word[0] == "_"):
            raise error_at(text, f"unexpected character {word[0]!r}", m.start())
        toks.append((kind, word, m.start()))
    eof = m.start() if m and m.lastgroup == "comment" else len(text)
    return toks + [("EOF", "", eof)] * 4


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.mode: Optional[str] = None
        self.variables: list[str] = []
        self.sets: dict[str, EPSet] = {}
        self.equations: dict[str, object] = {}

    # -- token plumbing

    def peek(self, ahead: int = 0) -> tuple:
        return self.toks[self.pos + ahead]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t[0] != "EOF":
            self.pos += 1
        return t

    def error(self, msg: str, t: tuple) -> ParseError:
        return error_at(self.text, msg, t[2])

    def expect(self, text: str) -> tuple:
        t = self.next()
        if t[1] != text:
            raise self.error(f"expected {text!r}, found {t[1]!r}", t)
        return t

    def fail(self, msg: str):
        raise self.error(msg, self.peek())

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        return self.peek(ahead)[1] == text

    def accept(self, text: str) -> bool:
        """Take the next token when it reads text."""
        if self.at_punct(text):
            self.next()
            return True
        return False

    def group(self, parse):
        """parse() between ( and ), at most MAX_NESTING groups deep."""
        t = self.expect("(")
        if self.depth == MAX_NESTING:
            raise self.error("nesting too deep", t)
        self.depth += 1
        val = parse()
        self.depth -= 1
        self.expect(")")
        return val

    # -- file structure

    def parse_file(self):
        while self.peek()[0] != "EOF":
            t = self.peek()
            if t[1] == "vars":
                self.next()
                self.variables.append(self._name("variable name"))
                while self.accept(","):
                    self.variables.append(self._name("variable name"))
                self.expect(";")
            elif t[1] == "mode":
                self.next()
                m = self.next()
                if m[1] not in ("series", "sets"):
                    raise self.error("mode must be series or sets", m)
                self.mode = m[1]
                self.expect(";")
            elif t[1] == "set":
                self.next()
                name = self._fresh_name("set name")
                self.expect("=")
                val = self.parse_setexpr()
                self.expect(";")
                self.sets[name] = val
            elif t[0] == "NAME":
                self._parse_equation()
            else:
                self.fail(f"unexpected {t[1]!r}")
        if not self.variables:
            self.fail("no variables declared")
        missing = [v for v in self.variables if v not in self.equations]
        if missing:
            self.fail(f"missing equation for {missing[0]}")
        if self.mode == "series":
            return PSSystem(
                tuple(self.variables),
                tuple(self.equations[v] for v in self.variables),
            )
        return SetSystem(
            tuple(self.variables),
            tuple(self.equations[v] for v in self.variables),
        )

    def _name(self, what: str) -> str:
        t = self.next()
        if t[0] != "NAME":
            raise self.error(f"expected {what}", t)
        if t[1] in RESERVED:
            raise self.error(f"{t[1]!r} is reserved", t)
        return t[1]

    def _fresh_name(self, what: str) -> str:
        t = self.peek()
        name = self._name(what)
        if name in self.sets or name in self.variables:
            raise self.error(f"{name!r} already declared", t)
        return name

    def _parse_equation(self):
        t = self.peek()
        name = self.next()[1]
        if name not in self.variables:
            raise self.error(f"undeclared variable {name!r}", t)
        if name in self.equations:
            raise self.error(f"duplicate equation for {name!r}", t)
        self.expect("=")
        if self.mode is None:
            self.fail("mode must be declared before equations")
        if self.mode == "series":
            rhs = self.parse_series_expr()
        else:
            rhs = self.parse_set_equation_rhs()
        self.expect(";")
        self.equations[name] = rhs

    # -- set expressions (pure, no variables)

    def parse_setexpr(self, allow_enumerated: bool = False) -> IndexSet:
        """A |-union of set atoms. With allow_enumerated, as in a
        construct's bracket, an enumerated set may stand alone; no union
        follows it."""
        acc = self.parse_setatom(allow_enumerated)
        while isinstance(acc, EPSet) and self.accept("|"):
            acc = union(acc, self.parse_setatom(allow_enumerated=False))
        return acc

    def parse_setatom(self, allow_enumerated: bool) -> IndexSet:
        t = self.peek()
        if self.at_punct("("):
            return self.group(self.parse_setexpr)
        if self.accept("{"):
            elems = []
            if not self.at_punct("}"):
                elems.append(bounded(self._int(), "set member"))
                while self.accept(","):
                    elems.append(bounded(self._int(), "set member"))
            self.expect("}")
            return normalize(elems)
        if t[0] == "INT":
            a = self._int()
            if self.at_punct("+") and self._is_progression_tail(1):
                self.next()  # +
                pt = self.peek()
                p = self._int()
                self.expect("*")
                self.expect("N")
                return self._progression(bounded(a, "progression start"), p, pt)
            if self.at_punct("*") and self.peek(1)[1] == "N":
                self.next()
                self.next()
                return self._progression(0, a, t)
            return singleton(bounded(a, "set member"))
        if t[0] == "NAME":
            name = self.next()[1]
            if name in BUILTIN_SETS:
                return BUILTIN_SETS[name]
            if name in ENUMERATED_SETS:
                if not allow_enumerated:
                    raise self.error(f"{name} is enumeration-only and not allowed here", t)
                return ENUMERATED_SETS[name]
            if name in self.sets:
                return self.sets[name]
            raise self.error(f"unknown set {name!r}", t)
        raise self.error("expected a set", t)

    def _is_progression_tail(self, ahead: int) -> bool:
        return (
            self.peek(ahead)[0] == "INT"
            and self.at_punct("*", ahead + 1)
            and self.peek(ahead + 2)[1] == "N"
        )

    def _progression(self, start: int, period: int, t: tuple) -> EPSet:
        """start + period*N, with t the token of the period."""
        if period == 0:
            raise self.error("period must be positive", t)
        return normalize((), [(start, bounded(period, "period"))])

    def _int(self) -> int:
        t = self.next()
        if t[0] != "INT":
            raise self.error("expected a number", t)
        return int(t[1])

    # -- set equations

    def parse_set_equation_rhs(self) -> Tuple[GammaTerm, ...]:
        terms = [self.parse_set_term()]
        while self.accept("|"):
            terms.append(self.parse_set_term())
        return tuple(t for t in terms if t is not None)

    def parse_set_term(self) -> Optional[GammaTerm]:
        """One family, or None when its base or an exponent set is {}: such
        a family denotes the empty set."""
        base = ZERO
        pairs = []
        while True:
            t = self.peek()
            if t[1] in self.variables:
                self.next()
                pairs.append((self.variables.index(t[1]), ONE))
            else:
                atom = self.parse_setatom(allow_enumerated=True)
                if self.at_punct("*") and self.peek(1)[1] in self.variables:
                    self.next()
                    pairs.append((self.variables.index(self.next()[1]), atom))
                else:
                    if isinstance(atom, EnumeratedSet):
                        raise self.error("enumerated sets may only appear as exponents", t)
                    base = sumset(base, atom)
            if not self.accept("+"):
                break
        if base == EMPTY or any(e == EMPTY for _, e in pairs):
            return None
        return GammaTerm(base, pairs)

    # -- series expressions

    def parse_series_expr(self) -> SysExpr:
        terms = [self.parse_series_product()]
        while self.accept("+"):
            terms.append(self.parse_series_product())
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_series_product(self) -> SysExpr:
        factors = [self.parse_series_power()]
        while self.accept("*"):
            factors.append(self.parse_series_power())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def parse_series_power(self) -> SysExpr:
        base = self.parse_series_atom()
        if self.accept("^"):
            return Pow(base, self._int())
        return base

    def parse_series_atom(self) -> SysExpr:
        t = self.peek()
        if self.at_punct("("):
            return self.group(self.parse_series_expr)
        if t[0] == "INT":
            num = self._int()
            if self.accept("/"):
                den = self._int()
                if den == 0:
                    raise self.error("zero denominator", t)
                return Const(Fraction(num, den))
            return Const(Fraction(num))
        if t[0] == "NAME":
            name = self.next()[1]
            if name == "x":
                return X()
            if name in CONSTRUCT_NAMES:
                index: IndexSet = POS
                if self.accept("["):
                    index = self.parse_setexpr(allow_enumerated=True)
                    self.expect("]")
                return Construct(name, index, self.group(self.parse_series_expr))
            if name in self.variables:
                return Var(self.variables.index(name))
            raise self.error(f"unknown name {name!r}", t)
        raise self.error("expected an expression", t)


def parse(text: str) -> Union[PSSystem, SetSystem]:
    """Parse an input file into a series or set system."""
    return _Parser(text).parse_file()


# ---------------------------------------------------------------------------
# canonical printing


def _fmt_index(j: IndexSet) -> str:
    """An index set or base as the parser reads it, in parentheses when it
    has a progression or several parts."""
    if isinstance(j, EnumeratedSet):
        return j.name
    s = format_epset(j)
    if j.period is not None or " | " in s:
        return f"({s})"
    return s


def print_set_system(sys: SetSystem) -> str:
    lines = [f"vars {', '.join(sys.variables)};", "mode sets;"]
    for name, eq in zip(sys.variables, sys.equations):
        terms = []
        for t in eq:
            pieces = []
            exp_pieces = []
            for j, e in t.factors:
                if e == singleton(1):
                    exp_pieces.append(sys.variables[j])
                else:
                    exp_pieces.append(f"{_fmt_index(e)}*{sys.variables[j]}")
            if t.base != ZERO or not exp_pieces:
                pieces.append(_fmt_index(t.base))
            pieces.extend(exp_pieces)
            terms.append(" + ".join(pieces))
        lines.append(f"{name} = {' | '.join(terms) or '{}'};")
    return "\n".join(lines) + "\n"


def _fmt_series(e: SysExpr, vars: Tuple[str, ...], prec: int = 0) -> str:
    # precedence: 0 add, 1 mul, 2 pow, 3 atom
    if isinstance(e, Const):
        return format_coeff(e.value)
    if isinstance(e, X):
        return "x"
    if isinstance(e, Var):
        return vars[e.index]
    if isinstance(e, Add):
        s = " + ".join(_fmt_series(t, vars, 1) for t in e.terms)
        return f"({s})" if prec > 0 else s
    if isinstance(e, Mul):
        s = "*".join(_fmt_series(f, vars, 2) for f in e.factors)
        return f"({s})" if prec > 1 else s
    if isinstance(e, Pow):
        s = f"{_fmt_series(e.base, vars, 3)}^{e.exp}"
        return f"({s})" if prec > 2 else s
    if isinstance(e, Construct):
        bracket = "" if e.index == POS else f"[{_fmt_index(e.index)}]"
        return f"{e.kind}{bracket}({_fmt_series(e.arg, vars, 0)})"
    raise TypeError(repr(e))


def print_series_system(sys: PSSystem) -> str:
    lines = [f"vars {', '.join(sys.variables)};", "mode series;"]
    for name, rhs in zip(sys.variables, sys.right_sides):
        lines.append(f"{name} = {_fmt_series(rhs, sys.variables)};")
    return "\n".join(lines) + "\n"


def print_system(sys: Union[PSSystem, SetSystem]) -> str:
    """Canonical rendering; parse(print_system(s)) is structurally s."""
    if isinstance(sys, PSSystem):
        return print_series_system(sys)
    return print_set_system(sys)
