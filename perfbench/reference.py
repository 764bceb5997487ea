"""Independent references and answer checkers.

Nothing here imports spectre.  Sets are Python-int bitmasks truncated to
[0, bound]; series are lists of Python ints.  Both interpret the same
expression trees that `workloads` renders into input files:

    ("x",)                  the atom x, spectrum {1}
    ("c", n)                a positive integer constant, spectrum {0}
    ("set", S)              a constant set (set mode only)
    ("var", i)              variable i
    ("add", (e, ...))       sum / union
    ("mul", (e, ...))       product / sumset
    ("pow", e, n)           n-th power / n-fold sumset
    ("star", kind, J, e)    Seq/MSet/Cycle[J](e), or J*e in set mode

A set S is a pair (finite elements, ((start, step), ...)).  An index set
J is such a pair, the string "Primes", or None for the positive naturals.
"""
from __future__ import annotations

import json
import math
import re

POSITIVE = ((), ((1, 1),))


# ---------------------------------------------------------------------------
# sets as bitmasks on [0, bound]


def members(s, bound: int) -> list[int]:
    fin, progs = s
    out = {n for n in fin if n <= bound}
    for start, step in progs:
        out.update(range(start, bound + 1, step))
    return sorted(out)


def mask_of(s, bound: int) -> int:
    m = 0
    for n in members(s, bound):
        m |= 1 << n
    return m


def bits(m: int) -> list[int]:
    """Positions of the set bits of m, in increasing order."""
    s = format(m, "b")[::-1]
    return [i for i, ch in enumerate(s) if ch == "1"]


def mask_sum(a: int, b: int, full: int) -> int:
    if not a or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    for i in bits(a):
        out |= b << i
    return out & full


def mask_fold(n: int, y: int, full: int) -> int:
    """n-fold sumset y + ... + y ({0} for n = 0)."""
    out, power = 1, y
    while n:
        if n & 1:
            out = mask_sum(out, power, full)
        n >>= 1
        if n:
            power = mask_sum(power, power, full)
    return out


def mask_closure(z: int, full: int) -> int:
    """All finite sums of members of z, the empty sum 0 included."""
    reach = 1
    bound = full.bit_length() - 1
    for g in bits(z & ~1):
        if (reach >> g) & 1:
            continue
        shift = g
        while shift <= bound:
            reach = (reach | (reach << shift)) & full
            shift *= 2
    return reach


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def mask_star(index, y: int, full: int) -> int:
    """Union over e in the index set of the e-fold sumsets of y."""
    if index is None:
        index = POSITIVE
    if index == "Primes":
        out, cur, e = 0, 1, 0
        while True:
            e += 1
            nxt = mask_sum(cur, y, full)
            if nxt == 0:
                return out
            if nxt == cur:  # 0 is in y: every later fold equals this one
                return out | nxt
            cur = nxt
            if is_prime(e):
                out |= cur
    fin, progs = index
    out = 0
    for e in fin:
        out |= mask_fold(e, y, full)
    for start, step in progs:
        out |= mask_sum(mask_fold(start, y, full),
                        mask_closure(mask_fold(step, y, full), full), full)
    return out


def _spectrum(expr, vec, full):
    kind = expr[0]
    if kind == "x":
        return 2 & full
    if kind == "c":
        return 1
    if kind == "set":
        return mask_of(expr[1], full.bit_length() - 1)
    if kind == "var":
        return vec[expr[1]]
    if kind == "add":
        out = 0
        for e in expr[1]:
            out |= _spectrum(e, vec, full)
        return out
    if kind == "mul":
        out = 1
        for e in expr[1]:
            out = mask_sum(out, _spectrum(e, vec, full), full)
        return out
    if kind == "pow":
        return mask_fold(expr[2], _spectrum(expr[1], vec, full), full)
    if kind == "star":
        return mask_star(expr[2], _spectrum(expr[3], vec, full), full)
    raise ValueError(f"unknown node {kind}")


def least_spectra(rhs, bound: int) -> list[int]:
    """Least solution of y = rhs(y) over sets, truncated to [0, bound].

    Truncation commutes with every operation here (all members are
    naturals), so this is exact on [0, bound].  Updates are applied in
    place (chaotic iteration), which reaches the same least fixed point.
    """
    full = (1 << (bound + 1)) - 1
    vec = [0] * len(rhs)
    changed = True
    while changed:
        changed = False
        for i, e in enumerate(rhs):
            new = _spectrum(e, vec, full) | vec[i]
            if new != vec[i]:
                vec[i] = new
                changed = True
    return vec


# ---------------------------------------------------------------------------
# counting series as integer coefficient lists on [0, n]


def _p_mul(a, b, n):
    out = [0] * (n + 1)
    for i, ca in enumerate(a):
        if ca:
            for j in range(n + 1 - i):
                if b[j]:
                    out[i + j] += ca * b[j]
    return out


def _p_pow(a, e, n):
    out = [1] + [0] * n
    for _ in range(e):
        out = _p_mul(out, a, n)
    return out


def _index_members(index, n):
    if index is None:
        return list(range(1, n + 1))
    if index == "Primes":
        return [e for e in range(2, n + 1) if is_prime(e)]
    return members(index, n)


def _multisets(a, index, n):
    """Multisets of objects counted by a, with a part count in index.

    Dynamic programme over the object size d: choosing r objects of size d
    from a[d] kinds with repetition can be done in C(a[d]+r-1, r) ways.
    """
    wanted = _index_members(index, n)
    tmax = max(wanted, default=0)
    # ways[t][s]: multisets of t parts and total size s
    ways = [[0] * (n + 1) for _ in range(tmax + 1)]
    ways[0][0] = 1
    for d in range(1, n + 1):
        if not a[d]:
            continue
        new = [row[:] for row in ways]
        for t in range(tmax + 1):
            for s in range(n + 1):
                w = ways[t][s]
                if not w:
                    continue
                r = 1
                while t + r <= tmax and s + r * d <= n:
                    new[t + r][s + r * d] += w * math.comb(a[d] + r - 1, r)
                    r += 1
        ways = new
    out = [0] * (n + 1)
    for t in wanted:
        for s in range(n + 1):
            out[s] += ways[t][s]
    return out


def _count(expr, vec, n):
    kind = expr[0]
    if kind == "x":
        return [0, 1] + [0] * (n - 1) if n >= 1 else [0]
    if kind == "c":
        return [expr[1]] + [0] * n
    if kind == "var":
        return vec[expr[1]]
    if kind == "add":
        out = [0] * (n + 1)
        for e in expr[1]:
            out = [u + v for u, v in zip(out, _count(e, vec, n))]
        return out
    if kind == "mul":
        out = [1] + [0] * n
        for e in expr[1]:
            out = _p_mul(out, _count(e, vec, n), n)
        return out
    if kind == "pow":
        return _p_pow(_count(expr[1], vec, n), expr[2], n)
    if kind == "star":
        a = _count(expr[3], vec, n)
        if a[0]:
            raise ValueError("construction over a series with a constant term")
        if expr[1] == "Seq":
            out = [0] * (n + 1)
            power = [1] + [0] * n
            prev = 0
            for e in _index_members(expr[2], n):
                power = _p_mul(power, _p_pow(a, e - prev, n), n)
                prev = e
                out = [u + v for u, v in zip(out, power)]
            return out
        if expr[1] == "MSet":
            return _multisets(a, expr[2], n)
    raise ValueError(f"no counting semantics for {expr}")


def least_series(rhs, n: int) -> list[list[int]]:
    """Least solution of y = rhs(y) over N[[x]], truncated at degree n.

    Iterates the original system, linear terms with constant coefficients
    included, so a system the program rewrites first is checked against
    what it was asked.
    """
    vec = [[0] * (n + 1) for _ in rhs]
    changed = True
    while changed:
        changed = False
        for i, e in enumerate(rhs):
            new = _count(e, vec, n)
            if new != vec[i]:
                vec[i] = new
                changed = True
    return vec


def catalan_odd(n: int) -> list[int]:
    """Binary trees by internal nodes: x*(1+T^2) has C_k at degree 2k+1."""
    return [0 if d % 2 == 0 else math.comb(d - 1, (d - 1) // 2) // ((d + 1) // 2)
            for d in range(n + 1)]


def linear43(n: int) -> list[int]:
    """(x + x^2)/(1 - x^3): 1 at every degree not divisible by 3."""
    return [0 if d % 3 == 0 else 1 for d in range(n + 1)]


# ---------------------------------------------------------------------------
# numerical semigroups


def semigroup_table(gens, bound: int) -> list[bool]:
    reach = [False] * (bound + 1)
    reach[0] = True
    for n in range(1, bound + 1):
        reach[n] = any(n >= g and reach[n - g] for g in gens)
    return reach


def frobenius_reference(gens) -> dict:
    """Conductor and gaps of the semigroup of gens (gcd 1).

    Schur's bound puts the Frobenius number below (a-1)(b-1) for the
    least and largest generators a, b; the table reaches past it.
    """
    a, b = min(gens), max(gens)
    bound = (a - 1) * (b - 1) + a
    reach = semigroup_table(gens, bound)
    gaps = [n for n in range(bound + 1) if not reach[n]]
    return {"conductor": gaps[-1] + 1 if gaps else 0, "gaps": gaps, "table": reach}


# ---------------------------------------------------------------------------
# parsing the program's output

_BLOCK = re.compile(r"^(\d+)\+(\d+)\*N$")


def parse_closed_form(text: str):
    """'{1,2} | 4+3*N' -> ((1, 2), ((4, 3),))."""
    fin: list[int] = []
    progs = []
    if text.strip() == "{}":
        return (), ()
    for part in text.split("|"):
        part = part.strip()
        if part.startswith("{") and part.endswith("}"):
            fin.extend(int(v) for v in part[1:-1].split(",") if v)
            continue
        m = _BLOCK.match(part)
        if not m:
            raise ValueError(f"unreadable closed form part {part!r}")
        progs.append((int(m.group(1)), int(m.group(2))))
    return tuple(fin), tuple(progs)


def json_document(stdout: str):
    """The JSON object in stdout; `coeffs` prints a note line before it
    when it rewrote the system."""
    start = stdout.find("{")
    if start < 0:
        raise ValueError("no JSON object in output")
    return json.loads(stdout[start:])


# ---------------------------------------------------------------------------
# checkers: each returns a list of problems, empty when the answer is right


def _shift_closed_from(ref: set, k: int, p: int, bound: int) -> bool:
    """Every member x >= k (with x + p in the window) has x + p in ref."""
    return all(x + p in ref for x in ref if k <= x <= bound - p)


def is_period_on(ref: set, lo: int, d: int, bound: int) -> bool:
    return all((n in ref) == (n + d in ref) for n in range(lo, bound - d + 1))


def check_solve(stdout: str, names, spectra, horizon: int, bound: int) -> list[str]:
    """Check a `solve --format json` answer against reference spectra on
    [0, bound].  Certified closed forms must hold on all of [0, bound];
    heuristic ones only on [0, horizon]."""
    doc = json_document(stdout)
    errors = []
    if doc.get("horizon") != horizon:
        errors.append(f"horizon {doc.get('horizon')} != {horizon}")
    sols = {s["var"]: s for s in doc["solution"]}
    if sorted(sols) != sorted(names):
        return errors + [f"variables {sorted(sols)} != {sorted(names)}"]
    for name, mask in zip(names, spectra):
        s = sols[name]
        certified = s["certificate"].startswith("Certified")
        upto = bound if certified else horizon
        ref = set(bits(mask))
        got = set(members(parse_closed_form(s["closed_form"]), upto))
        want = {n for n in ref if n <= upto}
        if got != want:
            first = min(got ^ want)
            errors.append(
                f"{name} = {s['closed_form']} [{s['certificate']}] is wrong at "
                f"{first} (reference {'has' if first in want else 'lacks'} it)"
            )
            continue
        m = min(ref) if ref else None
        q = 0
        for n in ref:
            q = math.gcd(q, n - m)
        if s["m"] != m or s["q"] != q:
            errors.append(f"{name}: m, q = {s['m']}, {s['q']}; reference {m}, {q}")
        if not certified or not ref:
            continue
        p, c = s["p"], s["c"]
        if p == 0:
            if c != max(ref) + 1:
                errors.append(f"{name}: finite set with c = {c}")
            continue
        if c not in ref or not _shift_closed_from(ref, c, p, bound):
            errors.append(f"{name}: p = {p} does not hold from c = {c}")
        elif any(_shift_closed_from(ref, k, p, bound) for k in ref if k < c):
            errors.append(f"{name}: p = {p} already holds before c = {c}")
        lo = max(c, bound // 2)
        if not is_period_on(ref, lo, p, bound) or any(
            is_period_on(ref, lo, d, bound) for d in range(1, p) if p % d == 0
        ):
            errors.append(f"{name}: p = {p} is not the least period of the tail")
    return errors


def check_coeffs(stdout: str, names, series, degree: int) -> list[str]:
    doc = json_document(stdout)
    errors = []
    if doc.get("degree") != degree:
        errors.append(f"degree {doc.get('degree')} != {degree}")
    got = doc.get("series", {})
    for name, want in zip(names, series):
        have = got.get(name)
        if have is None:
            errors.append(f"{name} missing")
            continue
        want = [str(v) for v in want]
        if have != want:
            d = next((i for i, (u, v) in enumerate(zip(have, want)) if u != v),
                     min(len(have), len(want)))
            errors.append(f"{name}: coefficient {d} is "
                          f"{have[d] if d < len(have) else None}, reference "
                          f"{want[d] if d < len(want) else None}")
    return errors


def check_frobenius(stdout: str, gens, ref: dict) -> list[str]:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    errors = []
    try:
        gcd = int(fields["gcd"])
        conductor = int(fields["conductor"])
        gaps = json.loads(fields["gaps"])
        closure = parse_closed_form(fields["closure"])
    except (KeyError, ValueError) as e:
        return [f"unreadable frobenius output: {e!r}"]
    if fields.get("generators") != ", ".join(map(str, sorted(gens))):
        errors.append(f"generators {fields.get('generators')!r}")
    if gcd != 1:
        errors.append(f"gcd {gcd} != 1")
    if conductor != ref["conductor"]:
        errors.append(f"conductor {conductor} != {ref['conductor']}")
    if len(gens) == 2:
        a, b = gens
        if conductor != (a - 1) * (b - 1):
            errors.append(f"conductor {conductor} != Sylvester's {(a - 1) * (b - 1)}")
        if len(gaps) != (a - 1) * (b - 1) // 2:
            errors.append(f"{len(gaps)} gaps != Sylvester's {(a - 1) * (b - 1) // 2}")
    if gaps != ref["gaps"]:
        errors.append("gap list differs from the reachability table")
    table = ref["table"]
    got = set(members(closure, len(table) - 1))
    if got != {n for n, ok in enumerate(table) if ok}:
        errors.append(f"closure {fields['closure']} differs from the reachability table")
    return errors
