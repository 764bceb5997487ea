"""Seeded inputs of the three workloads, as `spectre` command lines with
the reference each answer is checked against.

A workload is a fixed list of operations: the same seed gives the same
input files, the same commands in the same order and the same references.
Expression trees follow the format described in `reference`.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import reference as ref

DEFAULT_HORIZON = 512
POOL_SEED = 0

NAMES = ("sets-solve", "series-coeffs", "closures")

# ---------------------------------------------------------------------------
# rendering expression trees as input files


def _fmt_set(s) -> str:
    fin, progs = s
    parts = []
    if fin:
        parts.append("{" + ",".join(str(n) for n in sorted(set(fin))) + "}")
    parts.extend(f"{a}+{p}*N" for a, p in progs)
    return " | ".join(parts)


def _fmt_index(j) -> str:
    if j == "Primes":
        return "Primes"
    return _fmt_set(j)


def _fmt_set_atom(s) -> str:
    text = _fmt_set(s)
    return text if text.startswith("{") and "|" not in text else f"({text})"


def _fmt_set_term(term, names) -> str:
    """A set-mode product family: ("mul", (("set", S), ("star", "sets", J, var), ...))."""
    parts = []
    for f in term[1]:
        if f[0] == "set":
            parts.append(_fmt_set_atom(f[1]))
        elif f[2] == ((1,), ()):
            parts.append(names[f[3][1]])
        else:
            j = f[2]
            atom = "Primes" if j == "Primes" else _fmt_set_atom(j)
            parts.append(f"{atom}*{names[f[3][1]]}")
    return " + ".join(parts)


def _fmt_series(e, names, prec=0) -> str:
    kind = e[0]
    if kind == "x":
        return "x"
    if kind == "c":
        return str(e[1])
    if kind == "var":
        return names[e[1]]
    if kind == "add":
        text = " + ".join(_fmt_series(t, names, 1) for t in e[1])
        return f"({text})" if prec > 1 else text
    if kind == "mul":
        text = "*".join(_fmt_series(t, names, 2) for t in e[1])
        return f"({text})" if prec > 2 else text
    if kind == "pow":
        return f"{_fmt_series(e[1], names, 3)}^{e[2]}"
    if kind == "star":
        idx = "" if e[2] is None else f"[{_fmt_index(e[2])}]"
        return f"{e[1]}{idx}({_fmt_series(e[3], names)})"
    raise ValueError(kind)


def render(mode: str, names, rhs) -> str:
    lines = [f"vars {', '.join(names)};", f"mode {mode};"]
    for name, e in zip(names, rhs):
        if mode == "sets":
            body = " | ".join(_fmt_set_term(t, names) for t in e[1])
        else:
            body = _fmt_series(e, names)
        lines.append(f"{name} = {body};")
    return "\n".join(lines) + "\n"


def max_constant(rhs) -> int:
    """Largest number written in a system: members, starts and steps."""
    out = 0
    stack = list(rhs)
    while stack:
        e = stack.pop()
        sets = []
        if e[0] == "set":
            sets = [e[1]]
        elif e[0] == "star":
            sets = [e[2]] if isinstance(e[2], tuple) else []
            stack.append(e[3])
        elif e[0] in ("add", "mul"):
            stack.extend(e[1])
        elif e[0] == "pow":
            stack.append(e[1])
        for fin, progs in sets:
            out = max([out, *fin, *(a + p for a, p in progs)])
    return out


# ---------------------------------------------------------------------------
# the bundled systems, written out so the benchmark does not depend on the
# fixture files

X = ("x",)
ONE = ("c", 1)


def V(i):
    return ("var", i)


def mul(*fs):
    return ("mul", fs)


def add(*ts):
    return ("add", ts)


def S(fin=(), progs=()):
    return (tuple(fin), tuple(progs))


def set_term(base, *exps):
    """base + J1*Y_j1 + ...; exps are (j, J) pairs."""
    return mul(("set", base), *(("star", "sets", J, V(j)) for j, J in exps))


UNIT = S((1,))

SERIES_FIXTURES = {
    "binary": (("T",), (mul(X, add(ONE, ("pow", V(0), 2))),)),
    "linear43": (("T",), (add(X, ("pow", X, 2), mul(("pow", X, 3), V(0))),)),
    "bluered": (
        ("B", "R", "T"),
        (
            add(X, mul(("c", 3), X, V(0), ("pow", V(1), 2)),
                mul(("c", 3), X, ("pow", V(0), 2), V(1))),
            add(X, mul(X, ("pow", V(2), 2))),
            add(V(0), V(1)),
        ),
    ),
    "structured": (
        ("R", "B", "T"),
        (
            add(mul(X, ("star", "Cycle", S((), ((2, 2),)), V(0))),
                mul(("pow", X, 4), ("star", "MSet", S((3,)), V(1)))),
            add(X, mul(X, ("star", "MSet", "Primes", V(0)),
                       ("star", "Seq", S((), ((4, 6),)), V(1)))),
            add(V(0), V(1)),
        ),
    ),
}

SET_FIXTURES = {
    "paths": (
        ("Y1", "Y2", "Y3", "Y4"),
        (
            add(set_term(UNIT, (1, UNIT)), set_term(UNIT, (2, UNIT))),
            add(set_term(UNIT, (2, UNIT))),
            add(set_term(UNIT, (1, UNIT)), set_term(UNIT), set_term(UNIT, (3, UNIT))),
            add(set_term(UNIT, (1, UNIT))),
        ),
    ),
    "postage": (
        ("Y",),
        (add(set_term(S((3, 5))), set_term(S((3, 5)), (0, UNIT))),),
    ),
    # ROADMAP item 2: certified as 1+2*N at horizon 512, yet 10000 is a member
    "counterexample": (
        ("Y",),
        (add(set_term(UNIT), set_term(UNIT, (0, S((2,)))), set_term(S((10000,)))),),
    ),
}


# ---------------------------------------------------------------------------
# random systems


def random_set_system(rng: random.Random, periodic: bool):
    """Elementary set system with k = 1..4 and positive bases.

    With periodic=True one exponent is an infinite progression s+p*N,
    which the solver expands member by member; otherwise every exponent is
    a small finite set."""
    k = rng.randint(1, 4)
    names = tuple(f"Y{i}" for i in range(k))
    rhs = []
    for _ in range(k):
        terms = []
        for _ in range(rng.randint(1, 3)):
            fin = rng.sample(range(1, 9), rng.randint(1, 3))
            progs = [(rng.randint(1, 8), rng.randint(1, 4))] if rng.random() < 0.2 else []
            exps = []
            for j in range(k):
                if rng.random() < 0.45:
                    exps.append((j, S(sorted(rng.sample(range(6), rng.randint(1, 3))))))
            terms.append(set_term(S(fin, progs), *exps))
        rhs.append(add(*terms))
    if periodic:
        i = rng.randrange(k)
        j = rng.randrange(k)
        prog = S((), ((rng.randint(1, 3), rng.randint(2, 4)),))
        terms = list(rhs[i][1])
        terms.append(set_term(S(rng.sample(range(1, 9), rng.randint(1, 2))), (j, prog)))
        rhs[i] = add(*terms)
    return names, tuple(rhs)


def random_series_system(rng: random.Random, constructs: bool):
    """Elementary series system: every term carries a factor x, so the
    constant terms and the Jacobian at the origin vanish.  With
    constructs=True some terms take Seq or MSet over a variable."""
    k = rng.randint(1, 3)
    names = tuple(f"Y{i}" for i in range(k))
    rhs = []
    for _ in range(k):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [X]
            c = rng.randint(1, 3)
            if c > 1:
                factors.append(("c", c))
            for j in range(k):
                e = rng.choice((0, 0, 0, 1, 1, 2))
                if e == 1:
                    factors.append(V(j))
                elif e == 2:
                    factors.append(("pow", V(j), 2))
            if constructs and rng.random() < 0.4:
                kind = rng.choice(("Seq", "MSet"))
                idx = None if rng.random() < 0.5 else S(sorted(rng.sample(range(1, 5), rng.randint(1, 2))))
                factors.append(("star", kind, idx, V(rng.randrange(k))))
            terms.append(mul(*factors) if len(factors) > 1 else factors[0])
        rhs.append(add(*terms))
    return names, tuple(rhs)


VAR_NAMES = tuple("ABCDFGHJKLMQRSTUVWZ")


def rename(rng: random.Random, names, rhs):
    """The same system under fresh variable names, in the same order.

    Renaming leaves `solve`'s work alone; reordering does not.  Listing one
    system's variables in another order moved its time up to fifteenfold,
    and reordering the terms of its sums up to twofold.
    """
    return tuple(rng.sample(VAR_NAMES, len(names))), rhs


def _conductor_near(rng: random.Random, target: int, sample):
    """Generators drawn by sample(rng) until their conductor is within 5%
    of target; the conductor sets the size of the closure's finite part."""
    for _ in range(100000):
        gens = sample(rng)
        if math.gcd(*gens) != 1 or any(g % h == 0 for g in gens for h in gens if h < g):
            continue
        if abs(ref.frobenius_reference(gens)["conductor"] - target) <= target // 20:
            return gens
    raise ValueError(f"no generators with a conductor near {target}")


def _pair(target: int):
    """Pairs of one shape, a near 0.85 * sqrt(target): the shape moves
    the cost of `params` as much as the conductor does."""
    root = math.sqrt(target)

    def sample(rng):
        a = rng.randint(round(root * 0.8), round(root * 0.9))
        return a, round(target / (a - 1)) + 1

    return sample


def _triple(target: int):
    """Triples of generators near 2*sqrt(target), where conductors near
    target are common."""
    root = math.sqrt(target)
    return lambda rng: tuple(sorted(rng.sample(range(round(root * 1.6), round(root * 2.4)), 3)))


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One command line.  `check(stdout)` returns a list of problems."""

    label: str
    argv: list
    check: object = field(repr=False)
    known_failure: str = ""


@dataclass
class Workload:
    ops: list
    files: dict  # file name -> text


def _bound(rhs, horizon: int) -> int:
    """Past the horizon and every constant of the system."""
    return 2 * max(horizon, max_constant(rhs)) + 64


def _solve_op(label, mode, names, rhs, horizon, files, known_failure=""):
    files[f"{label}.spec"] = render(mode, names, rhs)
    bound = _bound(rhs, horizon)
    return Op(label, ["solve", f"{label}.spec", "--format", "json", "--horizon", str(horizon)],
              partial(ref.check_solve, names=names, spectra=ref.least_spectra(rhs, bound),
                      horizon=horizon, bound=bound),
              known_failure)


def _settles(rhs, horizon: int) -> bool:
    """Whether every reference spectrum is periodic from horizon/4 on,
    with a period of at most horizon/8.

    `solve` reads closed forms off a horizon-wide truncation and refuses
    (exit 3, horizon too small) a system whose tail starts later; such
    systems are redrawn."""
    bound = _bound(rhs, horizon)
    for mask in ref.least_spectra(rhs, bound):
        members = set(ref.bits(mask))
        if not any(ref.is_period_on(members, horizon // 4, p, bound)
                   for p in range(1, horizon // 8 + 1)):
            return False
    return True


def _coeffs_op(label, names, rhs, degree, files, series=None):
    files[f"{label}.spec"] = render("series", names, rhs)
    series = series or ref.least_series(rhs, degree)
    return Op(label, ["coeffs", f"{label}.spec", "--format", "json", "--degree", str(degree)],
              partial(ref.check_coeffs, names=names, series=series, degree=degree))


def _frobenius_op(gens):
    return Op("frobenius-" + "-".join(map(str, gens)), ["frobenius", *map(str, gens)],
              partial(ref.check_frobenius, gens=gens, ref=ref.frobenius_reference(gens)))


# Sizes, full and quick.  A full round takes 0.3-0.8 s, so a 35-s run has
# 40 or more rounds to take each operation's best time from.
FULL = {
    "set_fixture_horizons": {"paths": 1024, "postage": 2048},
    # structured stays at the default horizon: 0.14 s there, 0.9 s at 1024
    "series_fixture_horizons": {"binary": 2048, "linear43": 2048,
                                "bluered": 1024, "structured": 512},
    "random_set_systems": 16,
    "random_horizon": DEFAULT_HORIZON,
    "periodic_share": 4,  # one in every four random set systems
    "coeff_degrees": {"binary": 80, "linear43": 160, "bluered": 28},
    "random_series_systems": 12,
    "random_series_degree": 20,
    "pair_conductors": [100, 200, 300, 400, 500, 600, 800, 1000, 1200, 1400, 1600,
                        1800, 2000, 2200],
    "triple_conductors": [100, 200, 300, 400, 500, 600],
}
QUICK = {
    "set_fixture_horizons": {"paths": 64, "postage": 64},
    "series_fixture_horizons": {"binary": 64, "linear43": 64,
                                "bluered": 64, "structured": 96},
    "random_set_systems": 4,
    "random_horizon": 64,
    "periodic_share": 2,
    "coeff_degrees": {"binary": 12, "linear43": 12, "bluered": 8},
    "random_series_systems": 2,
    "random_series_degree": 8,
    "pair_conductors": [30, 60],
    "triple_conductors": [24, 40],
}


def _pool(name: str, size: dict):
    """The random inputs of a workload, drawn once from POOL_SEED.

    A fresh draw for every --seed moved a workload's total time by a
    fifth to two fifths between seeds.  The run's seed rewrites these
    inputs instead: it renames the variables of a system (see rename) and
    reorders the generators of a closure, which leaves the answers and the
    program's work as they are."""
    rng = random.Random(f"{name}:pool:{POOL_SEED}")
    pool = []
    if name == "sets-solve":
        horizon = size["random_horizon"]
        for i in range(size["random_set_systems"]):
            while True:
                names, rhs = random_set_system(rng, periodic=i % size["periodic_share"] == 0)
                if _settles(rhs, horizon):
                    break
            pool.append((names, rhs))
    elif name == "series-coeffs":
        for i in range(size["random_series_systems"]):
            pool.append(random_series_system(rng, constructs=i % 2 == 1))
    else:
        for target in size["pair_conductors"]:
            pool.append(_conductor_near(rng, target, _pair(target)))
        for target in size["triple_conductors"]:
            pool.append(_conductor_near(rng, target, _triple(target)))
    return pool


def build(name: str, seed: int, quick: bool = False) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    size = QUICK if quick else FULL
    rng = random.Random(f"{name}:{seed}")
    files: dict = {}
    ops = []
    if name == "sets-solve":
        for fx, h in size["set_fixture_horizons"].items():
            ops.append(_solve_op(fx, "sets", *rename(rng, *SET_FIXTURES[fx]), h, files))
        for fx, h in size["series_fixture_horizons"].items():
            ops.append(_solve_op(fx, "series", *rename(rng, *SERIES_FIXTURES[fx]), h, files))
        for i, system in enumerate(_pool(name, size)):
            ops.append(_solve_op(f"random-sets-{i}", "sets", *rename(rng, *system),
                                 size["random_horizon"], files))
        ops.append(_solve_op("counterexample", "sets", *SET_FIXTURES["counterexample"],
                             DEFAULT_HORIZON, files,
                             known_failure="certified 1+2*N, but 10000 is a member"))
    elif name == "series-coeffs":
        deg = size["coeff_degrees"]
        names, rhs = rename(rng, *SERIES_FIXTURES["binary"])
        ops.append(_coeffs_op("binary", names, rhs, deg["binary"], files,
                              [ref.catalan_odd(deg["binary"])]))
        names, rhs = rename(rng, *SERIES_FIXTURES["linear43"])
        ops.append(_coeffs_op("linear43", names, rhs, deg["linear43"], files,
                              [ref.linear43(deg["linear43"])]))
        ops.append(_coeffs_op("bluered", *rename(rng, *SERIES_FIXTURES["bluered"]),
                              deg["bluered"], files))
        for i, system in enumerate(_pool(name, size)):
            ops.append(_coeffs_op(f"random-series-{i}", *rename(rng, *system),
                                  size["random_series_degree"], files))
    else:
        for gens in _pool(name, size):
            ops.append(_frobenius_op(tuple(rng.sample(gens, len(gens)))))
    return Workload(ops, files)


def write_files(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for path, text in workload.files.items():
        (directory / path).write_text(text)
