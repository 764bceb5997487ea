"""Exact arithmetic of eventually periodic sets, set-equation systems,
truncated power series, and the translation between the two."""

from .epset import (
    EMPTY,
    EVEN,
    NAT,
    ODD,
    POS,
    POS_EVEN,
    ZERO,
    EnumeratedSet,
    EPSet,
    IndexSet,
    PeriodicityParams,
    SemanticError,
    format_epset,
    member,
    nat_closure,
    normalize,
    nstar,
    params,
    singleton,
    star,
    sumset,
    union,
)
from .setsys import (
    GammaTerm,
    SetSystem,
    SpectrumSolution,
    classify,
    dependency,
    min_vector,
    q_vector,
    solve,
    solution_json,
)
from .pseries import (
    PSSystem,
    Series,
    fixed_point_solve,
    neumann_check,
)
from .compile import compile_system
from .dsl import ParseError, parse, print_system

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
