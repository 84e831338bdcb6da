"""Identity suite over the sequence, polynomial, and series kernels.

Every check verifies one stated identity on a finite grid with exact
arithmetic and reports the first failing grid point, scanning in the
documented index order, so witnesses are deterministic.  Four checks carry
``known_failing=True``: they test identities exactly as stated in their
source display even though the stated form is wrong, and each is paired
(via ``corrected_id``) with a passing check of the repaired form; one whose
grid holds no witness reports ``not-reproduced-on-grid``, never ``pass``.
A check whose grid holds no point at all is ``vacuous``.  A suite run is
an overall pass exactly when every check that is not known-failing passes.

A check is declared as a :class:`Grid` plus a compare function.  The grid
lists the index axes in scan order, outermost first; the ends of an axis
may be expressions in the outer indices, such as ``"min(n,8)"``, and the
grid compiles the whole loop nest once.  The bounds a report prints are
rendered from the same text, so they always describe the loop that ran.  ``compare(cfg, **point)`` yields one
``(extra_params, lhs, rhs)`` triple per statement checked at a point, and
:func:`scan` reports the first triple whose sides differ, with the point's
indices followed by the extra params.

Grid bounds live in :class:`SuiteConfig`.  Checks never use floats; the
two series checks compare rationals against a rational tolerance and
certify their truncation tails with explicit remainder bounds, reporting
``inconclusive`` rather than guessing when no certificate is found.
"""

from __future__ import annotations

import functools
import math
import time
from enum import Enum
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import oracle
from . import polynomials as poly
from . import sequences as seq
from . import series as ser

# The package re-exports the bernoulli function at top level, which shadows
# the submodule attribute, so pull the callables in directly.
from .bernoulli import bernoulli as bernoulli_number
from .bernoulli import higher_bernoulli

__all__ = [
    "Status",
    "Witness",
    "CheckReport",
    "SuiteConfig",
    "SuiteReport",
    "TOL_EXPONENT_LIMIT",
    "InconclusiveError",
    "approx_e",
    "check",
    "oracle_cells",
    "run_all",
    "registered_ids",
    "check_summary",
    "known_failing_ids",
    "corrected_id_for",
]


class Status(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    KNOWN_FAILING = "known-failing-as-printed"
    NOT_REPRODUCED = "not-reproduced-on-grid"
    INCONCLUSIVE = "inconclusive"
    VACUOUS = "vacuous"
    ERROR = "error"


class Witness(NamedTuple):
    """First grid point at which the two sides of an identity differ."""

    params: Mapping[str, object]
    lhs: str
    rhs: str


# The smallest tolerance is 10**-TOL_EXPONENT_LIMIT.  Both series checks
# are already inconclusive there (no cutoff up to _J_MAX certifies it), and
# much smaller ones have denominators too long for int-to-str conversion.
# A decimal of at most TOL_EXPONENT_LIMIT significant digits with its
# exponent in that range has a numerator and denominator below
# 10**(2*TOL_EXPONENT_LIMIT), so the reports can always print it.
TOL_EXPONENT_LIMIT = 1000
_TOL_MAX_BITS = (10 ** (2 * TOL_EXPONENT_LIMIT)).bit_length()


class _SuiteBounds(NamedTuple):
    max_n: int = 20
    max_r: int = 8
    max_m: int = 8
    oracle_cap: int = 8
    series_order: int = 24
    tolerance: Fraction = Fraction(1, 10**9)
    wilf_bound: int = 200


class SuiteConfig(_SuiteBounds):
    """Grid bounds and tolerances for a suite run.

    ``tolerance`` only affects the two series checks; everything else is
    exact.  ``oracle_cap`` bounds the brute-force anchoring and may not
    exceed the enumeration hard cap.  Every construction is validated,
    ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SuiteConfig:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("max_n", "max_r", "max_m", "oracle_cap", "series_order", "wilf_bound"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.oracle_cap > oracle.DEFAULT_CAP:
            raise ValueError(
                f"oracle_cap must be at most {oracle.DEFAULT_CAP}, got {self.oracle_cap}"
            )
        if not isinstance(self.tolerance, Fraction) or self.tolerance <= 0:
            raise ValueError(f"tolerance must be a positive Fraction, got {self.tolerance!r}")
        if self.tolerance * 10**TOL_EXPONENT_LIMIT < 1:
            raise ValueError(f"tolerance must be at least 1e-{TOL_EXPONENT_LIMIT}")
        # Measured in bits: str() of a longer integer is what fails.
        tol = self.tolerance
        if max(tol.numerator.bit_length(), tol.denominator.bit_length()) > _TOL_MAX_BITS:
            raise ValueError(
                f"tolerance numerator and denominator must stay below "
                f"10**{2 * TOL_EXPONENT_LIMIT}"
            )
        return self

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> SuiteConfig:
        return cls(*iterable)

    def to_dict(self) -> dict[str, object]:
        return {**self._asdict(), "tolerance": str(self.tolerance)}


class CheckReport(NamedTuple):
    check_id: str
    status: Status
    bounds: Mapping[str, str]
    ms: int
    witness: Witness | None = None
    error: str | None = None
    # Grid points evaluated, the witness point included; not rendered.
    points: int = 0

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "id": self.check_id,
            "status": self.status.value,
            "bounds": dict(self.bounds),
            "ms": self.ms,
        }
        if self.witness is not None:
            out["witness"] = {
                "params": {k: _json_scalar(v) for k, v in self.witness.params.items()},
                "lhs": self.witness.lhs,
                "rhs": self.witness.rhs,
            }
        if self.error is not None:
            out["error"] = self.error
        return out


class SuiteReport(NamedTuple):
    results: tuple[CheckReport, ...]
    config: SuiteConfig

    @property
    def overall(self) -> str:
        expected = (Status.PASS, Status.KNOWN_FAILING, Status.NOT_REPRODUCED)
        ok = all(r.status in expected for r in self.results)
        return "pass" if ok else "fail"


class InconclusiveError(Exception):
    """A series check could not certify its truncation tail."""

    def __init__(self, params: Mapping[str, object], achieved: str, required: str) -> None:
        super().__init__(f"tail not certified: have {achieved}, need {required}")
        self.params = dict(params)
        self.achieved = achieved
        self.required = required


def _json_scalar(value: object) -> object:
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < 2**53 else str(value)
    return str(value)


# ----------------------------------------------------------------------
# grids


_GRID_GLOBALS: dict[str, object] = {"__builtins__": {}, "min": min, "max": max, "range": range}


class Grid:
    """Ordered index axes for one scan, and the bounds they render.

    Each keyword ``name=(lo, hi, *defs)`` adds an axis that runs over the
    integers ``lo..hi`` inside the axes before it.  ``lo`` and ``hi`` are
    ints or expressions in the outer indices; each def ``"name=expr"``
    binds a helper they may use.  The axis renders as ``"lo..hi"`` followed
    by its defs.  ``constraint`` is an expression that skips the points
    where it is false, rendered under the key ``constraint``, and ``notes``
    are further bounds entries.  ``params`` lists the indices a witness
    reports, in order; by default every axis, outermost first.

    The loop nest is compiled once into one generator function; its
    expressions see the outer indices, helpers, min and max, no builtins.
    """

    def __init__(
        self,
        *,
        constraint: str | None = None,
        notes: Mapping[str, str] | None = None,
        params: tuple[str, ...] | None = None,
        **axes: tuple[int | str, ...],
    ) -> None:
        self.bounds: dict[str, str] = {}
        lines, pad = ["def points():"], " "
        for name, (lo, hi, *defs) in axes.items():
            lines += [f"{pad}{h} = ({expr})" for h, _, expr in (d.partition("=") for d in defs)]
            lines.append(f"{pad}for {name} in range(({lo}), ({hi}) + 1):")
            pad += " "
            self.bounds[name] = ", ".join([f"{lo}..{hi}", *defs])
        if constraint is not None:
            lines.append(f"{pad}if ({constraint}):")
            pad += " "
            self.bounds["constraint"] = constraint
        lines.append(f"{pad}yield {{{', '.join(f'{name!r}: {name}' for name in axes)}}}")
        scope = dict(_GRID_GLOBALS)
        exec("\n".join(lines), scope)
        self._points = scope.pop("points")  # its globals keep no cycle back to it
        self.bounds.update(notes or {})
        self.params = tuple(axes) if params is None else params

    def points(self) -> Iterator[dict[str, int]]:
        """The grid points in scan order, each as {axis name: value}."""
        return self._points()


Comparisons = Iterable[tuple[Mapping[str, object], object, object]]


def scan(
    grid: Grid,
    compare: Callable[..., Comparisons],
    show: Callable[..., str] = str,
) -> Witness | None:
    """The first comparison on the grid, in scan order, whose sides differ.

    ``compare(**point)`` yields ``(extra_params, lhs, rhs)`` triples.  The
    witness params are the point's ``grid.params`` followed by the extras,
    and ``show`` renders its two sides.
    """
    for point in grid.points():
        for extra, lhs, rhs in compare(**point):
            if lhs != rhs:
                params: dict[str, object] = {key: point[key] for key in grid.params}
                params.update(extra)
                return Witness(params, show(lhs), show(rhs))
    return None


# ----------------------------------------------------------------------
# registry


class _CheckDef(NamedTuple):
    check_id: str
    summary: str
    grids: Callable[[SuiteConfig], Grid | tuple[Grid, ...]]
    compare: Callable[..., Comparisons]
    show: Callable[..., str] = str
    known_failing: bool = False
    corrected_id: str | None = None


_REGISTRY: dict[str, _CheckDef] = {}


def _check(
    check_id: str,
    summary: str,
    grids: Callable[[SuiteConfig], Grid | tuple[Grid, ...]],
    known_failing: bool = False,
    corrected_id: str | None = None,
    show: Callable[..., str] = str,
) -> Callable[[Callable[..., Comparisons]], Callable[..., Comparisons]]:
    """Register ``compare(cfg, **point)`` as a check over ``grids(cfg)``.

    Several grids are scanned one after another and report their bounds
    together.
    """

    def deco(compare: Callable[..., Comparisons]) -> Callable[..., Comparisons]:
        if check_id in _REGISTRY:
            raise ValueError(f"duplicate check id {check_id!r}")
        _REGISTRY[check_id] = _CheckDef(
            check_id, summary, grids, compare, show, known_failing, corrected_id
        )
        return compare

    return deco


def registered_ids() -> list[str]:
    """All check ids, in registry (reporting) order."""
    return list(_REGISTRY)


def check_summary(check_id: str) -> str:
    return _lookup(check_id).summary


def known_failing_ids() -> list[str]:
    return [d.check_id for d in _REGISTRY.values() if d.known_failing]


def corrected_id_for(check_id: str) -> str | None:
    """Id of the repaired counterpart of a known-failing check, if any."""
    return _lookup(check_id).corrected_id


def _lookup(check_id: str) -> _CheckDef:
    try:
        return _REGISTRY[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}") from None


# ----------------------------------------------------------------------
# small shared helpers


def approx_e(eps: Fraction) -> Fraction:
    """Rational lower partial sum of e with certified error below eps.

    Returns sum(1/j! for j <= J) where the standard remainder bound
    sum_{j>J} 1/j! < 2/(J+1)! is below eps.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    total = Fraction(0)
    j = 0
    fact = 1
    while True:
        total += Fraction(1, fact)
        j += 1
        fact *= j
        if Fraction(2, fact) < eps:
            return total


def _dec_str(x: Fraction, places: int = 40) -> str:
    """Exact fixed-point decimal rendering of a rational, sign included."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole, rem = divmod(x.numerator, x.denominator)
    scaled = rem * 10**places // x.denominator
    digits = str(scaled).rjust(places, "0").rstrip("0")
    return f"{sign}{whole}.{digits}" if digits else f"{sign}{whole}"


def _tol_str(x: Fraction) -> str:
    """Compact rendering for tolerances: reciprocal powers of ten as 1e-k."""
    if x.numerator == 1 and x.denominator > 1:
        k = len(str(x.denominator)) - 1
        if x.denominator == 10**k:
            return f"1e-{k}"
    return str(x)


# ----------------------------------------------------------------------
# per-run tables
#
# What a check reads at many grid points (kernel rows, columns and streams,
# Bernoulli rows, the polynomials of prop_3_6_*, the series of egf_all) is
# made once and kept here, for the latest index alone where it needs fewer
# indices than the grid.  Every cell comes from the public kernel, looked up
# in ``seq`` when needed; the Stirling columns are the run's stirling2_row
# rows, transposed.  Each check empties these tables, and check() and
# run_all() the ``polynomials`` caches, before they run, so nothing a check
# reads outlives its public run.  A row reader returns the kept row at once
# when long enough (``()`` never is), else builds its grower.

_tables: dict[object, object] = {}


def _row(key: object, n: int, entry: Callable[[int], object]) -> list:
    """The list [entry(0), ..., entry(n)], or a longer one, grown once per run."""
    row = _tables.setdefault(key, [])
    row.extend(map(entry, range(len(row), n + 1)))
    return row


def _kernel_row(name: str, n: int, *fixed: int) -> list:
    """``row[i]`` is seq.<name>(i, *fixed) for i <= n, kept under the tuple
    ``(name, *fixed)``; for ``stirling2_row``, ``row[m][k]`` is stirling2(m, k)
    for k <= m."""
    key = (name, *fixed)
    row = _tables.get(key, ())
    if len(row) > n:
        return row
    kernel = getattr(seq, name)
    return _row(key, n, (lambda i: kernel(i, *fixed)) if fixed else kernel)


def _latest(key: object, n: int, make: Callable[[], object]) -> object:
    """make(), kept under ``key`` for the latest n only."""
    slot = _tables.get(key)
    if slot is None or slot[0] != n:
        slot = _tables[key] = (n, make())
    return slot[1]


def _stirling_sums(weights: list[int], first: int = 0) -> list[int]:
    """[sum_k weights[k] * stirling2(k, j) for j = first..len(weights)-1]: one
    dot product per j over column j of the run's stirling2_row rows, whose
    columns are kept under "stirling2_row columns"."""
    S = _kernel_row("stirling2_row", len(weights) - 1)
    cols = _tables.setdefault("stirling2_row columns", [])
    for k in range(len(cols), len(weights)):
        cols.append([])
        for col, s in zip(cols, S[k]):
            col.append(s)
    return [sum(map(mul, weights[j:], cols[j])) for j in range(first, len(weights))]


def _convolution(n: int, r: int) -> list[int]:
    """[T_0, ..., T_{n-r}], T_j = sum_{k<=n-r} C(n,k)*stirling2(n-k,r)*stirling2(k,j),
    kept by r for the latest n."""
    rows = _latest("convolutions", n, dict)
    if r not in rows:
        S = _kernel_row("stirling2_row", n)
        rows[r] = _stirling_sums([math.comb(n, k) * S[n - k][r] for k in range(n - r + 1)])
    return rows[r]


# ----------------------------------------------------------------------
# number-level identities


@_check(
    "thm_2_3",
    "pdb_number(n,r) = sum_k C(n,k)*stirling2(k,r)*deranged_bell(n-k)",
    lambda c: Grid(n=(0, c.max_n), r=(0, c.max_r)),
)
def _thm_2_3(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    S, D = _kernel_row("stirling2_row", n), _kernel_row("deranged_bell", n)
    rhs = sum(math.comb(n, k) * S[k][r] * D[n - k] for k in range(r, n + 1))
    yield {}, _kernel_row("pdb_number", n, r)[n], rhs


@_check(
    "thm_2_4",
    "deranged_bell(n) = sum_r (-1)^r/r! * truncated_ordered_bell(n,r)",
    lambda c: Grid(n=(0, c.max_n)),
)
def _thm_2_4(cfg: SuiteConfig, n: int) -> Comparisons:
    rhs = sum(
        Fraction((-1) ** r * t, math.factorial(r))
        for r, t in enumerate(seq.truncated_ordered_bell_row(n))
    )
    yield {}, Fraction(seq.deranged_bell(n)), rhs


@_check(
    "thm_2_7",
    "pdb_number(n,r)-(r+1)*pdb_number(n,r+1) = "
    "sum_k C(n,k)*stirling2(k,r)*complementary_bell(n-k); at r = 0 this is the "
    "first equality of the abstract's headline identity, "
    "complementary_bell(n) = pdb_number(n,0)-pdb_number(n,1)",
    lambda c: Grid(n=(0, c.max_n), r=(0, f"min(n,{c.max_r})")),
)
def _thm_2_7(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    lhs = _kernel_row("pdb_number", n, r)[n] - (r + 1) * _kernel_row("pdb_number", n, r + 1)[n]
    S, phi = _kernel_row("stirling2_row", n), _kernel_row("complementary_bell", n)
    rhs = sum(math.comb(n, k) * S[k][r] * phi[n - k] for k in range(r, n + 1))
    yield {}, lhs, rhs


def _remark_2_8_terms(n: int, cfg: SuiteConfig) -> tuple[int, ...]:
    """pdb(n,0), pdb(n,1), pdb(n,2), counted in the oracle cap, comp_bell(n), comp_bell(n+1)."""
    if n <= cfg.oracle_cap:
        w = (*oracle.brute_pdb_row(n, cfg.oracle_cap), 0, 0)[:3]
    else:
        w = seq.pdb_number(n, 0), seq.pdb_number(n, 1), seq.pdb_number(n, 2)
    return (*w, seq.complementary_bell(n), seq.complementary_bell(n + 1))


@_check(
    "remark_2_8_printed",
    "stated forms pdb(n,1)-2*pdb(n,2) = comp_bell(n+1)-comp_bell(n) and "
    "pdb(n,0)-2*pdb(n,2) = comp_bell(n+1); scanned from n = 3, the first n "
    "where every term of both statements is nonzero (fails as stated)",
    lambda c: Grid(n=(3, max(c.max_n, 3))),
    known_failing=True,
    corrected_id="remark_2_8_corrected",
)
def _remark_2_8_printed(cfg: SuiteConfig, n: int) -> Comparisons:
    w0, w1, w2, phi_n, phi_n1 = _remark_2_8_terms(n, cfg)
    yield {"statement": 1}, w1 - 2 * w2, phi_n1 - phi_n
    yield {"statement": 2}, w0 - 2 * w2, phi_n1


@_check(
    "remark_2_8_corrected",
    "sign-corrected forms pdb(n,1)-2*pdb(n,2) = -(comp_bell(n+1)+comp_bell(n)) "
    "and pdb(n,0)-2*pdb(n,2) = -comp_bell(n+1), anchored to brute_pdb_row "
    "within the oracle cap; the second form, shifted to pdb(n-1,0)-2*pdb(n-1,2) "
    "= -comp_bell(n), is the second equality of the abstract's headline "
    "identity, which holds only with this sign",
    lambda c: Grid(n=(0, c.max_n), notes={"oracle_anchor": f"n<={c.oracle_cap}"}),
)
def _remark_2_8_corrected(cfg: SuiteConfig, n: int) -> Comparisons:
    w0, w1, w2, phi_n, phi_n1 = _remark_2_8_terms(n, cfg)
    yield {"statement": 1}, w1 - 2 * w2, -(phi_n1 + phi_n)
    yield {"statement": 2}, w0 - 2 * w2, -phi_n1


@_check(
    "thm_2_9",
    "(r+1)*pdb_number(n,r+1) = sum_{j=r}^{n-1} C(n,j)*ordered_bell(n-j)"
    "*(pdb_number(j,r)-(r+1)*pdb_number(j,r+1))",
    lambda c: Grid(n=(1, c.max_n), r=(0, f"min(n-1,{c.max_r})")),
)
def _thm_2_9(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    ob = _kernel_row("ordered_bell", n)
    w, w1 = _kernel_row("pdb_number", n, r), _kernel_row("pdb_number", n, r + 1)
    rhs = sum(math.comb(n, j) * ob[n - j] * (w[j] - (r + 1) * w1[j]) for j in range(r, n))
    yield {}, (r + 1) * w1[n], rhs


# ----------------------------------------------------------------------
# series identities with certified tails

_J_MAX = 512


def _series_grid(cfg: SuiteConfig, **notes: str) -> Grid:
    notes = {"tolerance": _tol_str(cfg.tolerance), **notes}
    return Grid(n=(1, min(cfg.max_n, 8)), r=(0, min(cfg.max_r, 3)), notes=notes)


def _certify(n: int, r: int, cfg: SuiteConfig, tail: Callable[[int], Fraction | None]) -> int:
    """First cutoff J on the schedule 8, 12, 18, 27, ... up to _J_MAX whose
    proven tail bound ``tail(J)`` is below a tenth of the tolerance.

    ``tail(J)`` is None where its proof does not apply at J.
    """
    tol = cfg.tolerance
    J = 8
    while J <= _J_MAX:
        bound = tail(J)
        if bound is not None and bound < tol / 10:
            return J
        J += max(4, J // 2)
    raise InconclusiveError(
        {"n": n, "r": r, "J_max": _J_MAX},
        f"no cutoff J <= {_J_MAX} certified",
        f"tail bound below {_tol_str(tol / 10)}",
    )


def _alternating(
    r: int, J: int, num: Callable[[int, int], int], den: Callable[[int], int]
) -> Fraction:
    """sum_i (-1)^(r-i) C(r,i) * sum_{j<J} num(i, j)/den(j), where every
    den(j) divides den(J-1): the integer terms are summed over den(J-1)."""
    scale = den(J - 1)
    lifts = [scale // den(j) for j in range(J)]
    total = sum(
        (-1) ** (r - i) * math.comb(r, i) * sum(num(i, j) * lift for j, lift in enumerate(lifts))
        for i in range(r + 1)
    )
    return Fraction(total, scale)


def _tail_a(n: int, r: int, cfg: SuiteConfig, J: int) -> Fraction | None:
    """Tail bound past J for the alternating series sum_j (-1)^j r_ordered_bell(n,i+j)/j!.

    The term ratio t_{j+1}/t_j = r_ordered_bell(n,i+j+1)/((j+1)*r_ordered_bell
    (n,i+j)) is at most 2/(j+1) because consecutive r_ordered_bell values grow
    by at most a factor of 2, so past j >= 3 the terms at least halve and the
    tail from J is at most twice the first omitted term.  The factor-2 growth
    is certified independently by the r_ordered_bell_geometric check and
    guarded again here at the cutoff.
    """
    total_tail = Fraction(0)
    row = seq.r_ordered_bell_row(n, r + J + 1)
    for i in range(r + 1):
        w_prev, w_last, w_next = row[i + J - 1 : i + J + 2]
        t_prev = Fraction(w_prev, math.factorial(J - 1))
        t_last = Fraction(w_last, math.factorial(J))
        if t_last >= t_prev or w_next > 2 * w_last or t_prev >= cfg.tolerance / 100:
            return None
        total_tail += math.comb(r, i) * 2 * t_last
    return total_tail


def _e_error(cfg: SuiteConfig) -> Fraction:
    # The e approximation error enters the right side scaled by
    # r!*pdb_number(n,r) < 4*10**6 on the capped grid, so holding it nine
    # orders below the tolerance keeps its share under tolerance/1000.  The
    # 1e-30 floor keeps the default configuration at full precision.
    return min(Fraction(1, 10**30), cfg.tolerance / 10**9)


@_check(
    "thm_2_10_a",
    "sum_i (-1)^(r-i) C(r,i) * sum_j (-1)^j r_ordered_bell(n,i+j)/j! equals "
    "r!*pdb_number(n,r)/e within tolerance, with a certified series tail",
    lambda c: _series_grid(c, e_error_below=_tol_str(_e_error(c))),
    show=_dec_str,
)
def _thm_2_10_a(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    J = _certify(n, r, cfg, functools.partial(_tail_a, n, r, cfg))
    row = seq.r_ordered_bell_row(n, r + J)
    lhs = _alternating(r, J, lambda i, j: (-1) ** j * row[i + j], math.factorial)
    rhs = math.factorial(r) * _kernel_row("pdb_number", n, r)[n] / approx_e(_e_error(cfg))
    # Sides within the tolerance count as equal.
    yield {"J": J}, lhs, lhs if abs(lhs - rhs) < cfg.tolerance else rhs


def _tail_b(n: int, r: int, M: int, J: int) -> Fraction | None:
    """Tail bound past J for sum_j complementary_r_bell(n,j+i)/2^(j+1).

    Uses |complementary_r_bell(n,m)| <= M*(m+1)^n with M the largest
    |complementary_bell| value up to n, giving a convergent dominating
    series with ratio ((m+2)/(m+1))^n / 2 < 1 once m is large.  The bound
    is re-checked against the actual term at the cutoff.
    """
    total = Fraction(0)
    row = _row(("complementary_r_bell", n), J + r, functools.partial(seq.complementary_r_bell, n))
    for i in range(r + 1):
        base = J + i + 1
        ratio = Fraction((base + 1) ** n, 2 * base**n)
        if ratio >= 1 or abs(row[J + i]) > M * base**n:
            return None
        first = Fraction(M * base**n, 2 ** (J + 1))
        total += math.comb(r, i) * first / (1 - ratio)
    return total


@_check(
    "thm_2_10_b",
    "sum_i (-1)^(r-i) C(r,i) * sum_j complementary_r_bell(n,j+i)/2^(j+1) "
    "equals r!*pdb_number(n,r) within tolerance, with a certified tail",
    _series_grid,
    show=_dec_str,
)
def _thm_2_10_b(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    M = max(map(abs, _kernel_row("complementary_bell", n)[: n + 1]))
    J = _certify(n, r, cfg, functools.partial(_tail_b, n, r, M))
    row = _row(("complementary_r_bell", n), J + r, functools.partial(seq.complementary_r_bell, n))
    lhs = _alternating(r, J, lambda i, j: row[j + i], lambda j: 2 ** (j + 1))
    rhs = Fraction(math.factorial(r) * _kernel_row("pdb_number", n, r)[n])
    # Sides within the tolerance count as equal.
    yield {"J": J}, lhs, lhs if abs(lhs - rhs) < cfg.tolerance else rhs


# ----------------------------------------------------------------------
# polynomial identities


@_check(
    "thm_3_1",
    "C(m+r,m)*pdb_poly(n,m+r) = y^r * sum_k C(n,k)*stirling2(n-k,r)*pdb_poly(k,m)",
    lambda c: Grid(
        n=(0, c.max_n), m=(0, c.max_m), r=(0, c.max_r), constraint="m+r<=n"
    ),
)
def _thm_3_1(cfg: SuiteConfig, n: int, m: int, r: int) -> Comparisons:
    lhs = math.comb(m + r, m) * poly.pdb_poly(n, m + r)
    # Coefficient j of pdb_poly(k, m) is stirling2(k, j)*partial_derangement(j, m),
    # so the right side is y^r * sum_j partial_derangement(j, m)*T_j*y^j, T as in _convolution.
    T = _convolution(n, r)
    D = _kernel_row("partial_derangement", n - r, m)
    yield {}, lhs, poly.IntPolynomial._of([0] * r + list(map(mul, D, T)))


def _cor_3_2_grid(cfg: SuiteConfig, j: tuple[int | str, str], **notes: str) -> Grid:
    return Grid(
        n=(0, min(cfg.max_n, 12)),
        m=(0, cfg.max_m),
        r=(0, cfg.max_r),
        j=j,
        constraint="m+r<=n",
        notes=notes,
    )


def _cor_3_2_sides(n: int, m: int, r: int, j: int) -> tuple[int, int]:
    """Both sides of the division-free form from the sequence kernels; 0 for j+r > n."""
    if j + r > n:
        return 0, 0
    S, T = _kernel_row("stirling2_row", n), _convolution(n, r)
    d = _kernel_row("partial_derangement", j + r, r + m)[j + r]
    return _kernel_row("partial_derangement", j, m)[j] * T[j], math.comb(m + r, m) * S[n][j + r] * d


@_check(
    "cor_3_2_printed",
    "stated ratio form: sum_k C(n,k)*stirling2(n-k,r)*stirling2(k,j)"
    "*partial_derangement(j,m) = C(m+r,m)*stirling2(n,j+r)"
    "*partial_derangement(j+r,r+m)/partial_derangement(j-r,r), whose divisor "
    "vanishes at grid points such as n = 1, m = 0, r = 0, j = 1, the first "
    "witness (fails as stated)",
    lambda c: _cor_3_2_grid(c, j=("r", "n")),
    known_failing=True,
    corrected_id="cor_3_2_corrected",
)
def _cor_3_2_printed(cfg: SuiteConfig, n: int, m: int, r: int, j: int) -> Comparisons:
    lhs, numerator = _cor_3_2_sides(n, m, r, j)
    denom = _kernel_row("partial_derangement", j - r, r)[j - r]
    if denom == 0:
        yield {}, lhs, f"undefined: division by partial_derangement({j - r},{r}) = 0"
    else:
        yield {}, lhs, Fraction(numerator, denom)


@_check(
    "cor_3_2_corrected",
    "division-free form: sum_k C(n,k)*stirling2(n-k,r)*stirling2(k,j)"
    "*partial_derangement(j,m) = C(m+r,m)*stirling2(n,j+r)"
    "*partial_derangement(j+r,r+m), anchored to brute enumeration within "
    "the oracle cap",
    lambda c: _cor_3_2_grid(c, j=(0, "n"), oracle_anchor=f"n<={c.oracle_cap}"),
)
def _cor_3_2_corrected(cfg: SuiteConfig, n: int, m: int, r: int, j: int) -> Comparisons:
    cap = cfg.oracle_cap
    if n > cap:
        yield {}, *_cor_3_2_sides(n, m, r, j)
        return
    # Zero Stirling factors skip the enumeration of their partner terms.
    lhs = sum(
        math.comb(n, k) * s1 * s2 * oracle.brute_partial_derangement(j, m, cap)
        for k in range(j, n + 1)
        if (s1 := oracle.brute_stirling2(n - k, r, cap))
        and (s2 := oracle.brute_stirling2(k, j, cap))
    )
    s3 = oracle.brute_stirling2(n, j + r, cap)
    rhs = (
        math.comb(m + r, m) * s3 * oracle.brute_partial_derangement(j + r, r + m, cap)
        if s3
        else 0
    )
    yield {}, lhs, rhs


@_check(
    "thm_3_3",
    "pdb_poly(n,r)-(r+1)*pdb_poly(n,r+1) = "
    "y^r * sum_k C(n,k)*stirling2(k,r)*exponential_poly(n-k) at -y",
    lambda c: Grid(n=(0, c.max_n), r=(0, f"min(n,{c.max_r})")),
)
def _thm_3_3(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    lhs = poly.pdb_poly(n, r) - (r + 1) * poly.pdb_poly(n, r + 1)
    S = _kernel_row("stirling2_row", n)
    rhs = poly.weighted_sum(
        (math.comb(n, k) * S[k][r], poly.exponential_poly(n - k)) for k in range(r, n + 1)
    )
    yield {}, lhs, rhs.reflected().times_y_power(r)


@_check(
    "cor_3_4",
    "r!*(pdb_poly(n,r)-(r+1)*pdb_poly(n,r+1)) = "
    "y^r * sum_i (-1)^(r-i)*C(r,i)*r_exponential_poly(n,i) at -y",
    lambda c: Grid(n=(0, c.max_n), r=(0, f"min(n,{c.max_r})")),
)
def _cor_3_4(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    lhs = math.factorial(r) * (poly.pdb_poly(n, r) - (r + 1) * poly.pdb_poly(n, r + 1))
    rhs = poly.weighted_sum(
        ((-1) ** (r - i) * math.comb(r, i), poly.r_exponential_poly(n, i)) for i in range(r + 1)
    )
    yield {}, lhs, rhs.reflected().times_y_power(r)


@_check(
    "cor_3_5_a",
    "sum_k C(n,k)*stirling2(n-k,r-1)*stirling2(k,j-r+1) = (-1)^(j-r+1)"
    "*stirling2(n,j)*(partial_derangement(j,r-1)-r*partial_derangement(j,r))",
    lambda c: Grid(n=(0, c.max_n), r=(1, c.max_r), j=("max(0,r-1)", "n")),
)
def _cor_3_5_a(cfg: SuiteConfig, n: int, r: int, j: int) -> Comparisons:
    S = _kernel_row("stirling2_row", n)
    d0, d1 = _kernel_row("partial_derangement", n, r - 1), _kernel_row("partial_derangement", n, r)
    i = j - r + 1
    lhs = _convolution(n, r - 1)[i]
    yield {}, lhs, (-1) ** i * S[n][j] * (d0[j] - r * d1[j])


def _cor_3_5_b_sides(cfg: SuiteConfig, n: int, r: int, j: int) -> tuple[int, int]:
    # R[i] is row n+i of triangle i.  The grid visits every n from 0 up, so the
    # rows come in turn off one stream per i, r_stirling2_rows(max_n+i, i, i).
    tri = range(cfg.max_r)
    rows = _latest(
        "r_stirling2_rows",
        None,
        lambda: zip(*map(seq.r_stirling2_rows, range(cfg.max_n, cfg.max_n + cfg.max_r), tri, tri)),
    )
    R = _latest("rows n+i", n, rows.__next__)
    # Terms whose lower index j-(r-1-i) is negative vanish.
    lhs = sum(
        (-1) ** i * math.comb(r - 1, i) * R[i][j - r + i + 1] for i in range(max(0, r - 1 - j), r)
    )
    d0, d1 = _kernel_row("partial_derangement", n, r - 1), _kernel_row("partial_derangement", n, r)
    return lhs, (-1) ** j * _kernel_row("stirling2_row", n)[n][j] * (d0[j] - r * d1[j])


def _cor_3_5_b_grid(cfg: SuiteConfig) -> Grid:
    return Grid(n=(0, cfg.max_n), r=(1, cfg.max_r), j=(0, "n"))


@_check(
    "cor_3_5_b_printed",
    "stated alternating r_stirling2 form: sum_i (-1)^i*C(r-1,i)"
    "*r_stirling2(n+i,j-(r-1-i),i) = (-1)^j*stirling2(n,j)"
    "*(partial_derangement(j,r-1)-r*partial_derangement(j,r)); a factor "
    "(r-1)! is missing on the right (fails as stated from r = 3 on)",
    _cor_3_5_b_grid,
    known_failing=True,
    corrected_id="cor_3_5_b",
)
def _cor_3_5_b_printed(cfg: SuiteConfig, n: int, r: int, j: int) -> Comparisons:
    yield {}, *_cor_3_5_b_sides(cfg, n, r, j)


@_check(
    "cor_3_5_b",
    "alternating r_stirling2 form with the missing factorial restored: "
    "sum_i (-1)^i*C(r-1,i)*r_stirling2(n+i,j-(r-1-i),i) = (r-1)!*(-1)^j"
    "*stirling2(n,j)*(partial_derangement(j,r-1)-r*partial_derangement(j,r))",
    _cor_3_5_b_grid,
)
def _cor_3_5_b(cfg: SuiteConfig, n: int, r: int, j: int) -> Comparisons:
    lhs, base = _cor_3_5_b_sides(cfg, n, r, j)
    yield {}, lhs, math.factorial(r - 1) * base


def _prop_3_6_grid(cfg: SuiteConfig) -> Grid:
    return Grid(n=(0, cfg.max_n), z=("-zmax", "zmax", "zmax=max(3,(n+2)//2)"))


def _z_rows(n: int, shifted: bool, other: Callable[[int], poly.IntPolynomial]) -> tuple[list, ...]:
    """Both sides of prop_3_6_* as rows in z: (left, right, unread), left being
    [pdb_poly(n, r) for r <= n].  ``unread`` is [({}, left, right)] if the rows
    agree, else None.

    Swapping the two finite sums of sum_r C(n,r) * exponential_poly(r) at c*y
    times other(n-r), c = z - 1 if ``shifted`` else z, gives sum_k c^k * H_k with
    H_k = y^k * sum_r C(n,r)*[y^k]exponential_poly(r)*other(n-r).  Every
    coefficient of every exponential_poly(r) is read, so k runs to the largest
    degree among them.  The H_k are expanded in z by a Taylor shift (repeated
    synthetic division by c + 1 on padded lists), which is exact, so
    sum_j z^j * right[j] is sum_k c^k * H_k at every z.
    """
    terms = [
        (math.comb(n, r), poly.exponential_poly(r).coefficients, other(n - r))
        for r in range(n + 1)
    ]
    # Only the coefficient lists of the H_k are kept: holding the H_k beside
    # them through the shift raised the suite's peak memory.
    rows = []
    for k in range(max(len(e) for _, e, _ in terms)):
        h_k = poly.weighted_sum((b * e[k], q) for b, e, q in terms if k < len(e)).times_y_power(k)
        rows.append(list(h_k.coefficients))
    width = max(map(len, rows))
    rows = [row + [0] * (width - len(row)) for row in rows]
    for i in range(len(rows) - 1 if shifted else 0):
        for j in range(len(rows) - 2, i - 1, -1):
            rows[j] = list(map(sub, rows[j], rows[j + 1]))
    left = [poly.pdb_poly(n, r) for r in range(n + 1)]
    right = list(map(poly.IntPolynomial._of, rows))
    return left, right, [({}, left, right)] if left == right else None


def _prop_3_6(key: str, n: int, z: int, shifted: bool, other: Callable[..., object]) -> Comparisons:
    """Both sides of prop_3_6_* at z.  They are polynomials in z of at most n + 1
    rows, and there are 2*zmax+1 >= n+2 grid z, so they agree at every z of n
    exactly when their rows agree: the first z of n yields the row comparison
    (kept under ``key``), the others nothing.  Where the rows differ, every z
    yields sum_j z^j*row_j of the left and the right rows."""
    left, right, unread = _latest(key, n, lambda: _z_rows(n, shifted, other))
    if unread is None:
        at_z = (poly.weighted_sum((z**j, p) for j, p in enumerate(rows)) for rows in (left, right))
        yield {}, *at_z
    while unread:
        yield unread.pop()


@_check(
    "prop_3_6_a",
    "sum_r pdb_poly(n,r)*z^r = sum_r C(n,r)*exponential_poly(r) at (z-1)y "
    "times geometric_poly(n-r), checked at 2*zmax+1 >= n+2 integer z",
    _prop_3_6_grid,
)
def _prop_3_6_a(cfg: SuiteConfig, n: int, z: int) -> Comparisons:
    return _prop_3_6("prop_3_6_a", n, z, True, poly.geometric_poly)


@_check(
    "prop_3_6_b",
    "sum_r pdb_poly(n,r)*z^r = sum_r C(n,r)*exponential_poly(r) at z*y "
    "times pdb_poly(n-r,0), checked at 2*zmax+1 >= n+2 integer z",
    _prop_3_6_grid,
)
def _prop_3_6_b(cfg: SuiteConfig, n: int, z: int) -> Comparisons:
    return _prop_3_6("prop_3_6_b", n, z, False, lambda m: poly.pdb_poly(m, 0))


@_check(
    "cor_3_7",
    "sum_r pdb_poly(n,r) = geometric_poly(n), and the same value through "
    "sum_r C(n,r)*exponential_poly(r)*pdb_poly(n-r,0)",
    lambda c: Grid(n=(0, c.max_n)),
)
def _cor_3_7(cfg: SuiteConfig, n: int) -> Comparisons:
    target = poly.geometric_poly(n)
    row_sum = poly.weighted_sum((1, poly.pdb_poly(n, r)) for r in range(n + 1))
    yield {"form": 1}, row_sum, target
    convolved = poly.weighted_sum(
        (math.comb(n, r), poly.exponential_poly(r) * poly.pdb_poly(n - r, 0))
        for r in range(n + 1)
    )
    yield {"form": 2}, convolved, target


@_check(
    "cor_3_8",
    "2*sum_r (-1)^r*derangement(r)*pdb_poly(n,r) = geometric_poly(n) plus its "
    "reflection; particular values at y = 1 and y = -1; and the alternating "
    "derangement convolution sum_i (-1)^i*C(k,i)*d_i*d_(k-i) in {0, k!}",
    lambda c: (Grid(n=(0, c.max_n)), Grid(k=(0, c.max_n))),
)
def _cor_3_8(cfg: SuiteConfig, n: int | None = None, k: int | None = None) -> Comparisons:
    if k is not None:  # part 3, on the second grid
        d = _kernel_row("derangement", k)
        conv = sum((-1) ** i * math.comb(k, i) * d[i] * d[k - i] for i in range(k + 1))
        yield {"part": 3}, conv, 0 if k % 2 else math.factorial(k)
        return
    d = _kernel_row("derangement", n)
    lhs = poly.weighted_sum((2 * (-1) ** r * d[r], poly.pdb_poly(n, r)) for r in range(n + 1))
    g = poly.geometric_poly(n)
    yield {"part": 1}, lhs, g + g.reflected()
    even_value = seq.ordered_bell(n) + (-1) ** n
    # The grid visits every n once, in turn, as the one pdb_rows stream yields them.
    w = next(_latest("pdb_rows", None, functools.partial(seq.pdb_rows, cfg.max_n, n)))
    at_plus = 2 * sum((-1) ** r * d[r] * w[r] for r in range(n + 1))
    yield {"part": 2, "y": 1}, at_plus, even_value
    # Evaluation is linear: the part 1 sum at -1 is the weighted sum of the values at -1.
    yield {"part": 2, "y": -1}, lhs.evaluate(-1), even_value


@_check(
    "cor_3_9",
    "sum_{r>=1} r*pdb_poly(n,r) = geometric_poly(n) for n >= 1",
    lambda c: Grid(n=(1, c.max_n)),
)
def _cor_3_9(cfg: SuiteConfig, n: int) -> Comparisons:
    lhs = poly.weighted_sum((r, poly.pdb_poly(n, r)) for r in range(1, n + 1))
    yield {}, lhs, poly.geometric_poly(n)


# ----------------------------------------------------------------------
# Bernoulli-weighted identities
#
# Both sides are multiplied by the lcm of the denominators of the Bernoulli
# weights in the sum (reported as the witness param "scale"), so every
# comparison is between integers or integer polynomials.


def _bernoulli_row(n: int, r: int | None) -> tuple[int, list[int]]:
    """L and [A_0, ..., A_n], A_j = sum_k C(n+s,k+s)*L*B_(n-k)*stirling2(k+s,j+s),
    where B_i is higher_bernoulli(i, r), or bernoulli(i) for r None, L is the lcm
    of the denominators of B_0..B_n and s is r, or 0 for r None.  The B_i as
    (numerator, denominator) pairs, their prefix lcms and the rows by n are kept
    for the latest r.  A side scaled by L' = _bernoulli_row(t, r)[0] reads only
    A_j free of B_(>t): L/L' divides them."""
    pairs, lcms, rows = _latest("bernoulli", r, lambda: ([], [1], {}))
    if n not in rows:
        for i in range(len(pairs), n + 1):
            p, d = (bernoulli_number(i) if r is None else higher_bernoulli(i, r)).as_integer_ratio()
            pairs.append((p, d))
            lcms.append(math.lcm(lcms[-1], d))
        s, scale = r or 0, lcms[n + 1]
        weights = [p * (scale // d) for p, d in pairs[n::-1]]
        shifted = [0] * s + [math.comb(n + s, k + s) * w for k, w in enumerate(weights)]
        rows[n] = scale, _stirling_sums(shifted, s)
    return rows[n]


@_check(
    "thm_3_10",
    "C(m+r,m)*sum_k C(n+r,k+r)*higher_bernoulli(n-k,r)*pdb_poly(k+r,m+r) = "
    "C(n+r,r)*y^r*pdb_poly(n,m), coefficient-wise in y, plus the first-order "
    "form m*sum_k C(n,k)*bernoulli(n-k)*pdb_poly(k,m) = n*y*pdb_poly(n-1,m-1)",
    lambda c: (
        Grid(r=(1, c.max_r), m=(1, c.max_m), n=("m", c.max_n), params=("n", "m", "r")),
        Grid(m=(1, c.max_m), n=("m", c.max_n), params=("n", "m")),
    ),
)
def _thm_3_10(cfg: SuiteConfig, n: int, m: int, r: int | None = None) -> Comparisons:
    # Coefficient j+s of pdb_poly(k+s, m+s) is stirling2(k+s, j+s)*partial_derangement(j+s, m+s),
    # so that of the sum over k is partial_derangement(j+s, m+s)*A_j/(L/scale), 0 for j < m.
    s = r or 0  # r is None for the first-order form, on the second grid
    scale = _bernoulli_row(n - m, r)[0]
    top, A = _bernoulli_row(n, r)
    outer, q = (m if r is None else math.comb(m + r, m)), top // scale
    D = _kernel_row("partial_derangement", n + s, m + s)
    lifted = [outer * D[j + s] * (A[j] // q) for j in range(m, n + 1)]
    lhs = poly.IntPolynomial._of([0] * (m + s) + lifted)
    if r is None:
        rhs = scale * n * poly.pdb_poly(n - 1, m - 1).times_y_power(1)
        yield {"r": 1, "form": "first-order", "scale": scale}, lhs, rhs
        return
    rhs = scale * math.comb(n + r, r) * poly.pdb_poly(n, m).times_y_power(r)
    yield {"scale": scale}, lhs, rhs


@_check(
    "cor_3_11",
    "C(j+r,r)*sum_k C(n+r,k+r)*stirling2(k+r,j+r)*higher_bernoulli(n-k,r) = "
    "C(n+r,r)*stirling2(n,j); at r = 1 this is the classic Bernoulli-Stirling "
    "inversion (j+1)*sum_k C(n+1,k+1)*stirling2(k+1,j+1)*bernoulli(n-k) = "
    "(n+1)*stirling2(n,j)",
    lambda c: Grid(r=(1, c.max_r), n=(1, c.max_n), j=(0, "n"), params=("n", "r", "j")),
)
def _cor_3_11(cfg: SuiteConfig, n: int, r: int, j: int) -> Comparisons:
    scale = _bernoulli_row(n - j, r)[0]
    top, A = _bernoulli_row(n, r)
    lhs = math.comb(j + r, r) * (A[j] // (top // scale))
    rhs = scale * math.comb(n + r, r) * _kernel_row("stirling2_row", n)[n][j]
    yield {"scale": scale}, lhs, rhs


# ----------------------------------------------------------------------
# cross-cutting checks


def _egf_series(
    order: int,
) -> list[tuple[str, dict[str, object], ser.TruncatedSeries, Callable[[int], object]]]:
    """Every series ``egf_all`` compares, with its family, its params and its
    direct values."""
    families = (
        [
            ("partial_derangement", r, lambda n, r=r: seq.partial_derangement(n, r))
            for r in range(4)
        ]
        + [
            ("ordered_bell", None, lambda n: seq.ordered_bell(n)),
            ("deranged_bell", None, lambda n: seq.deranged_bell(n)),
        ]
        + [("stirling_column", k, lambda n, k=k: seq.stirling2(n, k)) for k in range(6)]
        + [("higher_bernoulli", r, lambda n, r=r: higher_bernoulli(n, r)) for r in range(5)]
    )
    series = [
        (
            family,
            {} if param is None else {"param": param},
            ser.egf_family(family, order, param),
            direct,
        )
        for family, param, direct in families
    ]
    series += [
        (
            "pdb",
            {"param": r, "y": str(y)},
            ser.egf_pdb(r, y, order),
            lambda n, r=r, y=y: poly.pdb_poly(n, r).evaluate(y),
        )
        for r in range(4)
        for y in (Fraction(1), Fraction(-1), Fraction(1, 2))
    ]
    return series


@_check(
    "egf_all",
    "every exponential generating series family reproduces its direct "
    "values once coefficient n is scaled by n!",
    lambda c: Grid(
        n=(0, min(c.max_n, c.series_order)),
        notes={"order": str(min(c.max_n, c.series_order))},
        params=(),
    ),
)
def _egf_all(cfg: SuiteConfig, n: int) -> Comparisons:
    # A run expands each series once.
    expanded = _latest("egf_series", None, lambda: _egf_series(min(cfg.max_n, cfg.series_order)))
    # The witness names the series around n, so the comparisons carry every param.
    for family, params, series, direct in expanded:
        yield {"family": family, "n": n, **params}, series.egf_coeff(n), direct(n)


def oracle_cells(n: int, cap: int) -> Iterator[tuple[str, list[int], list[int]]]:
    """Each kernel's values at ``n`` beside the same values counted by
    literal enumeration within ``cap``: ``(kind, kernel, enumerated)``.

    The permutation kernel comes last.
    """
    ks = range(n + 1)
    yield "pdb_row", seq.pdb_row(n), oracle.brute_pdb_row(n, cap)
    yield "stirling2", seq.stirling2_row(n), [oracle.brute_stirling2(n, k, cap) for k in ks]
    yield "bell", [seq.bell(n)], [oracle.brute_bell(n, cap)]
    yield (
        "complementary_bell",
        [seq.complementary_bell(n)],
        [oracle.brute_complementary_bell(n, cap)],
    )
    yield "ordered_bell", [seq.ordered_bell(n)], [oracle.brute_ordered_bell(n, cap)]
    yield (
        "partial_derangement",
        [seq.partial_derangement(n, r) for r in ks],
        [oracle.brute_partial_derangement(n, r, cap) for r in ks],
    )


@_check(
    "oracle_all",
    "sequence kernels agree with literal enumeration of partitions, block "
    "orderings, and permutations within the oracle cap",
    lambda c: Grid(
        n=(0, min(c.max_n, c.oracle_cap)),
        notes={"permutations": f"0..{min(c.max_n, c.oracle_cap)}"},
    ),
)
def _oracle_all(cfg: SuiteConfig, n: int) -> Comparisons:
    for kind, kernel, enumerated in oracle_cells(n, min(cfg.max_n, cfg.oracle_cap)):
        yield {"kind": kind}, enumerated, kernel


@_check(
    "wilf_scan",
    "complementary_bell(n) = 0 only at n = 2 within the scan bound",
    lambda c: Grid(n=(1, c.wilf_bound)),
)
def _wilf_scan(cfg: SuiteConfig, n: int) -> Comparisons:
    # The residues of every n come in turn.  A nonzero one proves
    # complementary_bell(n) != 0; all are 0 at n = 2 alone up to 10**6.
    residues = _latest("residues", None, functools.partial(seq.complementary_bell_residues, n))
    if not any(next(residues)):
        value = seq.complementary_bell(n)
        if n == 2 or value == 0:
            yield {}, value, 0 if n == 2 else "nonzero expected for n != 2"


# ----------------------------------------------------------------------
# exponential-polynomial recurrences


@_check(
    "eq_14_printed",
    "stated recurrence sum_k C(n,k)*exponential_poly(k) = exponential_poly(n+1) "
    "without the leading factor y (fails as stated, already at n = 0)",
    lambda c: Grid(n=(0, c.max_n)),
    known_failing=True,
    corrected_id="eq_14_corrected",
)
def _eq_14_printed(cfg: SuiteConfig, n: int) -> Comparisons:
    lhs = poly.weighted_sum((math.comb(n, k), poly.exponential_poly(k)) for k in range(n + 1))
    yield {}, lhs, poly.exponential_poly(n + 1)


@_check(
    "eq_14_corrected",
    "y*sum_k C(n,k)*exponential_poly(k) = exponential_poly(n+1)",
    lambda c: Grid(n=(0, c.max_n)),
)
def _eq_14_corrected(cfg: SuiteConfig, n: int) -> Comparisons:
    lhs = poly.weighted_sum((math.comb(n, k), poly.exponential_poly(k)) for k in range(n + 1))
    yield {}, lhs.times_y_power(1), poly.exponential_poly(n + 1)


@_check(
    "eq_15",
    "r_exponential_poly(n,r) = sum_k C(n,k)*r^k*exponential_poly(n-k)",
    lambda c: Grid(n=(0, c.max_n), r=(0, c.max_r)),
)
def _eq_15(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    rhs = poly.weighted_sum(
        (math.comb(n, k) * r**k, poly.exponential_poly(n - k)) for k in range(n + 1)
    )
    yield {}, poly.r_exponential_poly(n, r), rhs


@_check(
    "r_ordered_bell_geometric",
    "r_ordered_bell(n,r) = sum_m sum_i (-1)^(m-i)*C(m,i)*(i+r)^n, the exact "
    "finite form of the binary-weighted series sum_k (k+r)^n/2^(k+1)",
    lambda c: Grid(n=(0, c.max_n), r=(0, c.max_r)),
)
def _r_ordered_bell_geometric(cfg: SuiteConfig, n: int, r: int) -> Comparisons:
    # Regrouped by i, the double sum is sum_i a_i*(i+r)^n with a_i = sum_m
    # (-1)^(m-i)*C(m,i): a_n = 1 and a_(i-1) = 2*a_i + (-1)^(n+1-i)*C(n+1,i).
    rhs, a = 0, 1
    for i in range(n, -1, -1):
        rhs += a * (i + r) ** n
        a = 2 * a + (-1) ** (n + 1 - i) * math.comb(n + 1, i)
    yield {}, seq.r_ordered_bell(n, r), rhs

# ----------------------------------------------------------------------
# runners


def check(check_id: str, config: SuiteConfig | None = None) -> CheckReport:
    """Run one registered check and report its status.

    The grids are scanned in order until one yields a witness.  A check
    whose grids hold no point is ``vacuous``; a known-failing check that
    finds no witness on points it did evaluate is ``not-reproduced-on-grid``.
    Raises ValueError for an unknown id.  Library errors other than an
    uncertified tail propagate; :func:`run_all` converts them to error
    reports instead.
    """
    poly._clear_caches()
    return _run(_lookup(check_id), config if config is not None else SuiteConfig())


def _run(defn: _CheckDef, cfg: SuiteConfig) -> CheckReport:
    start = time.perf_counter()
    _tables.clear()
    grids = defn.grids(cfg)
    grids = grids if isinstance(grids, tuple) else (grids,)
    bounds = {key: text for grid in grids for key, text in grid.bounds.items()}
    points = 0

    def compare(**point: int) -> Comparisons:
        nonlocal points
        points += 1
        return defn.compare(cfg, **point)

    try:
        witness = next(filter(None, (scan(grid, compare, defn.show) for grid in grids)), None)
    except InconclusiveError as exc:
        status, witness = Status.INCONCLUSIVE, Witness(exc.params, exc.achieved, exc.required)
    else:
        if points == 0:
            status = Status.VACUOUS
        elif witness is None:
            status = Status.NOT_REPRODUCED if defn.known_failing else Status.PASS
        else:
            status = Status.KNOWN_FAILING if defn.known_failing else Status.FAIL
    ms = int(round((time.perf_counter() - start) * 1000))
    return CheckReport(defn.check_id, status, bounds, ms, witness, points=points)


def run_all(
    config: SuiteConfig | None = None, ids: Iterable[str] | None = None
) -> SuiteReport:
    """Run the whole suite (or a subset) in registry order.

    Per-check exceptions other than uncertified tails become reports with
    status ``error``; the run never aborts mid-suite.  Unknown requested
    ids raise ValueError before anything runs.
    """
    cfg = config if config is not None else SuiteConfig()
    selected = set(_REGISTRY) if ids is None else {_lookup(cid).check_id for cid in ids}
    poly._clear_caches()
    results = []
    for cid, defn in _REGISTRY.items():
        if cid not in selected:
            continue
        try:
            results.append(_run(defn, cfg))
        except Exception as exc:
            capped = isinstance(exc, oracle.CapExceededError)
            kind = "resource-cap" if capped else type(exc).__name__
            results.append(
                CheckReport(
                    check_id=cid, status=Status.ERROR, bounds={}, ms=0, error=f"{kind}: {exc}"
                )
            )
    return SuiteReport(results=tuple(results), config=cfg)
