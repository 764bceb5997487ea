import importlib.util
import random
from pathlib import Path

from spectre import epset
from spectre.epset import EPSet, normalize
from spectre.setsys import GammaTerm

import oracle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def members(a: EPSet, h: int) -> set[int]:
    return set(epset.enumerate_range(a, 0, h))


def vec(a: EPSet, h: int) -> list:
    return oracle.vec_of(members(a, h), h)


def random_epset(
    rng: random.Random,
    max_elem: int = 40,
    max_period: int = 12,
    infinite_prob: float = 0.5,
    max_fins: int = 6,
) -> EPSet:
    fins = [rng.randrange(max_elem + 1) for _ in range(rng.randrange(max_fins + 1))]
    blocks = []
    if rng.random() < infinite_prob:
        for _ in range(rng.randrange(1, 3)):
            blocks.append(
                (rng.randrange(max_elem + 1), rng.randrange(1, max_period + 1))
            )
    return normalize(fins, blocks)


def random_nonempty_epset(rng, **kw) -> EPSet:
    while True:
        a = random_epset(rng, **kw)
        if not a.is_empty:
            return a


def term(base: EPSet, **by_index) -> GammaTerm:
    """A family: term(base, e0=EPSet, e2=EPSet) uses variables 0 and 2
    with those exponent sets, and no other variable."""
    return GammaTerm(base, [(int(key[1:]), val) for key, val in by_index.items()])


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def script(name: str):
    """scripts/<name>.py, loaded as a module."""
    path = FIXTURES.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_series_system(rng: random.Random, k: int):
    """Random elementary series system: every term carries a factor of x,
    so constant terms and the origin Jacobian vanish."""
    from fractions import Fraction

    from spectre import pseries
    from spectre.epset import POS

    names = tuple(f"Y{i}" for i in range(k))
    right = []
    for _ in range(k):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [pseries.X()]
            c = rng.randint(1, 3)
            if c > 1:
                factors.append(pseries.Const(Fraction(c)))
            for j in range(k):
                e = rng.choice((0, 0, 0, 1, 1, 2))
                if e == 1:
                    factors.append(pseries.Var(j))
                elif e == 2:
                    factors.append(pseries.Pow(pseries.Var(j), 2))
            if rng.random() < 0.3:
                kind = rng.choice(("Seq", "MSet"))
                if rng.random() < 0.5:
                    idx = POS
                else:
                    idx = normalize(
                        sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
                    )
                factors.append(pseries.Construct(kind, idx, pseries.Var(rng.randrange(k))))
            terms.append(
                factors[0] if len(factors) == 1 else pseries.Mul(tuple(factors))
            )
        right.append(terms[0] if len(terms) == 1 else pseries.Add(tuple(terms)))
    return pseries.PSSystem(names, tuple(right))
