"""Command-line front end.

Four subcommands: ``table`` prints sequence and polynomial families,
``check`` runs the identity suite, ``oracle`` compares the sequence kernels
against literal enumeration cell by cell, and ``egf`` lists generating
series coefficients.  Output formats are text, canonical JSON (sorted keys,
two-space indent, rationals as strings, so parse + re-serialize is
byte-identical), and CSV with a mandatory header row.

A table is streamed as it is made: JSON and text are written a few cells at
a time, and CSV a row at a time.
The check, oracle and egf reports are small, so each command builds its
results, CSV rows and text lines in one pass, and one writer
(:func:`_report`) prints the form the invocation asks for.

Each table and egf family, and the check and oracle subcommands, declare
once (:class:`Spec`) the flags they read and the cap on each flag that has
one.  Any other flag is a usage error, and a value over its cap is refused
before any work starts.

Exit codes: 0 pass, 1 identity failure or unexpected error, 2 usage error,
3 resource cap, 4 inconclusive series tolerance or a vacuous grid.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from contextlib import nullcontext
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

# The package attribute ``bernoulli`` is the function, not this submodule
# (see the package docstring), so the callables are imported by name.
from .bernoulli import bernoulli as bernoulli_number
from .bernoulli import higher_bernoulli
from . import checks
from . import oracle
from . import polynomials as poly
from . import sequences as seq
from . import series as ser

__all__ = ["RunConfig", "canonical_json", "main"]

# Soft resource limits for the table and egf commands; the enumeration
# oracle has its own hard cap.
MAX_TABLE_N = 1000
MAX_ORDER = 256
# Five families have caps of their own, on a whole table (--max-n), a single
# row (--n) or r, all set so that a request at the cap stays within
# TABLE_BUDGET even on a vCPU running at half speed.  CPU time and peak RSS,
# shared 2-vCPU x86 host, Python 3.11 (a range is the spread of repeated
# runs or of the three formats), with JSON and text tables written _BATCH
# cells at a time and CSV tables row by row:
#   pdb       --max-n 1000: 17.0-20.2 s, 18-27 MB, mostly str(int)
#             --n 1000:     0.5-0.7 s, 18-22 MB, rolling every row before n forward
#   pdb_poly  --max-n 180: 3.8-4.9 s, 23-33 MB (--max-n 200 as text, with a
#                          pdb_poly cache: 5.8 s, 88 MB)
#             --n 550:     5.1-6.5 s, 102-406 MB (text and JSON 102-103 MB, CSV
#                          406 MB: CSV joins the row into one string)
#                          (--n 600 as text, from the Stirling memo: 8.5 s, 168 MB)
#   truncated_ordered_bell --max-n 800: 15.3-17.9 s, 19-23 MB
#                          (--max-n 900, from the Stirling memo: 28.8-33.0 s), mostly str(int)
#   r_ordered_bell --n 1000 --max-r 1000: 1.6-1.7 s, 21-30 MB
#                  --max-n 1000 --r 1000: 10.5-16.1 s, 18 MB
#   higher_bernoulli --max-n 1000 --r 1000: 3.6-3.9 s, 18 MB, one recurrence
#                    for any r; a cell has at most 2,594 digits, where str(int)
#                    stops at 4,300 (--r 10000: 3,705; --r 100000: 4,717)
# For pdb_poly --n, memory, not time, is still the nearer edge of the budget.
# With the soft limit only: partial_derangement --max-n 1000: 12.7-15.5 s,
# 18-22 MB, mostly str(int); r_stirling2 --max-n 1000 --r 0: 8.9-10.6 s,
# 18-22 MB, less for a larger r (rows n < r are zeros).
TABLE_BUDGET = "60 s of CPU time and 1 GiB of memory"
# Cells per chunk of a JSON or text row: a write to a write-through stream
# (PYTHONUNBUFFERED) costs ~1 us however short, and 8 pdb_poly cells are MBs.
_BATCH = 8

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_RESOURCE = 3
_EXIT_INCONCLUSIVE = 4


class RunConfig(NamedTuple):
    """Parsed invocation: one command plus the flags it honors."""

    command: str
    max_n: int = 10
    max_r: int = 8
    n: int | None = None
    r: int | None = None
    order: int = 24
    tolerance: Fraction = Fraction(1, 10**9)
    fmt: str = "text"
    out: str | None = None
    oracle_cap: int = 8
    family: str | None = None
    ids: tuple[str, ...] = ()


def canonical_json(payload: object) -> str:
    """Stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _csv_text(rows: Iterable[Sequence[object]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _parse_tol(text: str) -> Fraction:
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from exc
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text}")
    # Checked on the decimal exponent, before the Fraction is built: its
    # cost grows with the exponent.
    limit = checks.TOL_EXPONENT_LIMIT
    if abs(value.adjusted()) > limit:
        raise argparse.ArgumentTypeError(
            f"tolerance must be at least 1e-{limit} and below 1e{limit + 1}, got {text}"
        )
    digits = len(value.as_tuple().digits)
    if digits > limit:
        raise argparse.ArgumentTypeError(
            f"tolerance must have at most {limit} significant digits, got {digits}"
        )
    return Fraction(value)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# ----------------------------------------------------------------------
# declarations

# Each flag sets the RunConfig field named by its dest; one not given keeps
# the field's RunConfig default, or the subcommand's own default for --max-n.
_FLAGS: dict[str, dict[str, object]] = {
    "--max-n": {"dest": "max_n", "type": _nonneg},
    "--max-r": {"dest": "max_r", "type": _nonneg},
    "--n": {"dest": "n", "type": _nonneg},
    "--r": {"dest": "r", "type": _nonneg},
    "--order": {"dest": "order", "type": _nonneg},
    "--tol": {"dest": "tolerance", "type": _parse_tol, "metavar": "TOL"},
    "--oracle-cap": {"dest": "oracle_cap", "type": _nonneg},
}

# The largest value a flag accepts, and the reason printed when it is exceeded.
Cap = tuple[int, str]


class Spec(NamedTuple):
    """The flags one command or family reads besides --format and --out, each
    mapped to its cap or None; ``row``, those of a table's single-row mode;
    and the kernel: for a table family, ``kernel(cfg, ns)`` yields the row
    of each n of ``ns`` in turn (``ns`` is 0..max_n, or the one n of --n);
    for an egf family, ``kernel(cfg)`` is the series."""

    flags: dict[str, Cap | None]
    kernel: Callable[..., Any] | None = None
    row: dict[str, Cap | None] | None = None


_TABLE_N: Cap = (MAX_TABLE_N, "the soft limit on table sizes")
_MEASURED = f"set so that a request at the cap stays within {TABLE_BUDGET}"
_ORDER: Cap = (MAX_ORDER, "the soft limit on series orders")
_ENUMERATION: Cap = (oracle.DEFAULT_CAP, oracle._COST_HINT)
_WHOLE: dict[str, Cap | None] = {"--max-n": _TABLE_N}
_ROW: dict[str, Cap | None] = {"--n": _TABLE_N}

# A kernel yields values, not text: a row is one value, or the list of the
# row's values for k = 0, 1, ...; the writers format them.  The lambdas look
# the kernels up at call time, so a wrapper installed on a module after
# import (a profiler or tracer) sees the calls.
_TABLES: dict[str, Spec] = {
    "stirling2": Spec(_WHOLE, lambda c, ns: seq.stirling2_rows(ns[-1], ns[0]), _ROW),
    "r_stirling2": Spec(
        {"--max-n": _TABLE_N, "--r": _TABLE_N},
        lambda c, ns: seq.r_stirling2_rows(ns[-1], c.r or 0, ns[0]),
    ),
    "derangement": Spec(_WHOLE, lambda c, ns: map(seq.derangement, ns)),
    "partial_derangement": Spec(_WHOLE, lambda c, ns: map(seq.partial_derangement_row, ns), _ROW),
    "bell": Spec(_WHOLE, lambda c, ns: map(seq.bell, ns)),
    "complementary_bell": Spec(_WHOLE, lambda c, ns: map(seq.complementary_bell, ns)),
    "ordered_bell": Spec(_WHOLE, lambda c, ns: map(seq.ordered_bell, ns)),
    "r_ordered_bell": Spec(
        {"--max-n": _TABLE_N, "--r": (1000, _MEASURED)},
        lambda c, ns: (
            seq.r_ordered_bell(n, c.r or 0) if c.n is None else seq.r_ordered_bell_row(n, c.max_r)
            for n in ns
        ),
        {"--n": _TABLE_N, "--max-r": (1000, _MEASURED)},
    ),
    "truncated_ordered_bell": Spec(
        {"--max-n": (800, _MEASURED)},
        lambda c, ns: seq.truncated_ordered_bell_rows(ns[-1], ns[0]),
        _ROW,
    ),
    "deranged_bell": Spec(_WHOLE, lambda c, ns: map(seq.deranged_bell, ns)),
    "pdb": Spec(
        {"--max-n": (MAX_TABLE_N, _MEASURED)},
        lambda c, ns: seq.pdb_rows(ns[-1], ns[0]),
        {"--n": (MAX_TABLE_N, _MEASURED)},
    ),
    "pdb_poly": Spec(
        {"--max-n": (180, _MEASURED)},
        lambda c, ns: poly.pdb_poly_rows(ns[-1], ns[0]),
        {"--n": (550, _MEASURED)},
    ),
    "bernoulli": Spec(_WHOLE, lambda c, ns: map(bernoulli_number, ns)),
    "higher_bernoulli": Spec(
        {"--max-n": _TABLE_N, "--r": (1000, _MEASURED)},
        lambda c, ns: map(higher_bernoulli, ns, repeat(1 if c.r is None else c.r)),
    ),
}

_EGF_R: dict[str, Cap | None] = {"--r": _ORDER, "--order": _ORDER}
_EGF: dict[str, Spec] = {
    "partial_derangement": Spec(
        _EGF_R, lambda c: ser.egf_family("partial_derangement", c.order, c.r or 0)
    ),
    "ordered_bell": Spec({"--order": _ORDER}, lambda c: ser.egf_family("ordered_bell", c.order)),
    "deranged_bell": Spec({"--order": _ORDER}, lambda c: ser.egf_family("deranged_bell", c.order)),
    "stirling_column": Spec(
        _EGF_R, lambda c: ser.egf_family("stirling_column", c.order, c.r or 0)
    ),
    "higher_bernoulli": Spec(
        _EGF_R, lambda c: ser.egf_family("higher_bernoulli", c.order, 1 if c.r is None else c.r)
    ),
    "pdb": Spec(_EGF_R, lambda c: ser.egf_pdb(c.r or 0, Fraction(1), c.order)),
}

# Every declaration by command and family; check and oracle have no family.
_SPECS: dict[str, dict[str | None, Spec]] = {
    "table": _TABLES,
    "check": {
        None: Spec(
            {"--max-n": None, "--max-r": None, "--order": None, "--tol": None}
            | {"--oracle-cap": _ENUMERATION}
        )
    },
    "oracle": {None: Spec({"--max-n": _ENUMERATION})},
    "egf": _EGF,
}


def _declared(cfg: RunConfig) -> dict[str, Cap | None]:
    """The flags an invocation may give; for a table given --n, its row mode's."""
    spec = _SPECS[cfg.command][cfg.family]
    return spec.row if spec.row and cfg.n is not None else spec.flags


def _over_cap(cfg: RunConfig, declared: dict[str, Cap | None]) -> str | None:
    """The refusal for the first declared flag whose value is over its cap."""
    for flag, cap in declared.items():
        value = getattr(cfg, str(_FLAGS[flag]["dest"]))
        if cap is not None and value is not None and value > cap[0]:
            where = " ".join(filter(None, (cfg.command, cfg.family)))
            return f"resource cap: {where} {flag} is limited to {cap[0]}; {cap[1]}\n"
    return None


# ----------------------------------------------------------------------
# table


def _table_rows(cfg: RunConfig) -> Iterator[tuple[int, list[tuple[int | None, Any]]]]:
    """One (n, [(k, value), ...]) row per n asked for; k is None for a one-index
    family.  A kernel that yields too few or too many rows raises ValueError."""
    ns = range(cfg.max_n + 1) if cfg.n is None else (cfg.n,)
    for n, row in zip(ns, _TABLES[cfg.family or ""].kernel(cfg, ns), strict=True):
        yield n, list(enumerate(row)) if isinstance(row, list) else [(None, row)]


def _json_chunks(cfg: RunConfig) -> Iterator[str]:
    """The canonical JSON of a table, one chunk per _BATCH cells of a row.

    The text around the results list is canonical_json's own; each result
    object is written at the indent and in the sorted key order that
    canonical_json gives it, and so is every separator, so the whole is
    byte for byte canonical_json of the collected table.
    """
    head, _, tail = canonical_json(
        {"command": "table", "config": _config_echo(cfg), "results": []}
    ).rpartition("[]")
    family = encode_basestring_ascii(cfg.family or "")
    yield head
    sep = "[\n"
    for n, cells in _table_rows(cfg):
        for i in range(0, len(cells), _BATCH):
            items = []
            for k, value in cells[i : i + _BATCH]:
                key = "" if k is None else f'      "k": {k},\n'
                items.append(
                    f'{sep}    {{\n      "family": {family},\n{key}      "n": {n},\n'
                    f'      "value": {encode_basestring_ascii(str(value))}\n    }}'
                )
                sep = ",\n"
            yield "".join(items)
    yield ("[]" if sep == "[\n" else "\n  ]") + tail


def _csv_chunks(cfg: RunConfig) -> Iterator[str]:
    """The CSV of a table, one chunk per row n, as csv.writer writes it.

    csv.writer quotes only a field holding a comma, a quote or a line break
    (a carriage return too, on some Python versions); a row whose text holds
    more commas or line breaks than its separators, or any quote or carriage
    return, is handed to csv.writer instead.  Run per cell, this guard made
    the write loop of ``stirling2 --max-n 300`` 30 % slower (0.074 to 0.096 s).
    """
    family = cfg.family
    yield "family,n,k,value\n"
    for n, cells in _table_rows(cfg):
        text = "".join([f"{family},{n},{'' if k is None else k},{v}\n" for k, v in cells])
        if (
            text.count(",") != 3 * len(cells)
            or text.count("\n") != len(cells)
            or '"' in text
            or "\r" in text
        ):
            text = _csv_text([family, n, k, v] for k, v in cells)
        yield text


def _text_chunks(cfg: RunConfig) -> Iterator[str]:
    """The text of a table, a chunk per _BATCH cells of a row; the last one
    ends the line."""
    family = cfg.family
    # Polynomial cells contain spaces, so their row uses a wider separator.
    sep = " | " if family == "pdb_poly" else " "
    yield f"table {family}\n"
    for n, cells in _table_rows(cfg):
        head = f"n={n}: "
        if not cells:
            yield f"{head}\n"
        for i in range(0, len(cells), _BATCH):
            batch = enumerate(cells[i : i + _BATCH], i)
            parts = [f"{sep if j else head}{value}" for j, (_, value) in batch]
            if i + _BATCH >= len(cells):
                parts.append("\n")
            yield "".join(parts)


def _cmd_table(cfg: RunConfig) -> tuple[int, Iterator[str]]:
    chunks = {"json": _json_chunks, "csv": _csv_chunks}.get(cfg.fmt, _text_chunks)
    return _EXIT_PASS, chunks(cfg)


# ----------------------------------------------------------------------
# check


def _config_echo(cfg: RunConfig) -> dict[str, object]:
    return {
        "max_n": cfg.max_n,
        "max_r": cfg.max_r,
        "n": cfg.n,
        "r": cfg.r,
        "order": cfg.order,
        "format": cfg.fmt,
        "oracle_cap": cfg.oracle_cap,
    }


def _suite_config(cfg: RunConfig) -> checks.SuiteConfig:
    return checks.SuiteConfig(
        max_n=cfg.max_n,
        max_r=cfg.max_r,
        max_m=cfg.max_r,
        oracle_cap=cfg.oracle_cap,
        series_order=cfg.order,
        tolerance=cfg.tolerance,
    )


def _check_exit_code(report: checks.SuiteReport) -> int:
    statuses = [r.status for r in report.results]
    if any(s is checks.Status.FAIL for s in statuses):
        return _EXIT_FAIL
    if any(s in (checks.Status.INCONCLUSIVE, checks.Status.VACUOUS) for s in statuses):
        return _EXIT_INCONCLUSIVE
    errored = [r for r in report.results if r.status is checks.Status.ERROR]
    if errored:
        if any(r.error and r.error.startswith("resource-cap:") for r in errored):
            return _EXIT_RESOURCE
        return _EXIT_FAIL
    return _EXIT_PASS


def _report(
    cfg: RunConfig, config: dict[str, object], results: list, header: list, rows: list, lines: list
) -> str:
    """A small report in the invocation's format: canonical JSON of the
    command, its config echo and ``results``; CSV of ``header`` and ``rows``;
    or the text ``lines``."""
    if cfg.fmt == "json":
        return canonical_json({"command": cfg.command, "config": config, "results": results})
    if cfg.fmt == "csv":
        return _csv_text([header, *rows])
    return "\n".join(lines) + "\n"


def _render_check(report: checks.SuiteReport, cfg: RunConfig) -> str:
    results, rows, lines = [], [], []
    for r in report.results:
        w = r.witness
        bounds = [f"{k}={v}" for k, v in sorted(r.bounds.items())]
        params = [f"{k}={v}" for k, v in w.params.items()] if w else []
        lhs, rhs = (w.lhs, w.rhs) if w else ("", "")
        results.append(r.to_dict())
        cells = [";".join(bounds), ";".join(params), lhs, rhs, r.ms, r.error or ""]
        rows.append([r.check_id, r.status.value, *cells])
        suffix = f" ({', '.join(bounds)})" if bounds else ""
        lines.append(f"check {r.check_id}: {r.status.value}{suffix} [{r.ms} ms]")
        if w:
            lines.append(f"  witness {' '.join(params)}: lhs={lhs} rhs={rhs}")
        if r.error is not None:
            lines.append(f"  error: {r.error}")
    counts = Counter(r.status.value for r in report.results)
    tally = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"overall: {report.overall} ({len(report.results)} checks: {tally})")
    header = ["id", "status", "bounds", "witness_params", "lhs", "rhs", "ms", "error"]
    return _report(cfg, report.config.to_dict(), results, header, rows, lines)


def _cmd_check(cfg: RunConfig) -> tuple[int, str]:
    ids = None if not cfg.ids or "all" in cfg.ids else list(cfg.ids)
    report = checks.run_all(_suite_config(cfg), ids)
    return _check_exit_code(report), _render_check(report, cfg)


# ----------------------------------------------------------------------
# oracle


def _cmd_oracle(cfg: RunConfig) -> tuple[int, str]:
    results, rows, lines = [], [], [f"oracle comparison up to n={cfg.max_n}"]
    for n in range(cfg.max_n + 1):
        for kind, formula, brute in checks.oracle_cells(n, cfg.max_n):
            f, b = [str(v) for v in formula], [str(v) for v in brute]
            equal = formula == brute
            results.append({"n": n, "kind": kind, "formula": f, "brute": b, "equal": equal})
            rows += ([n, kind, i, x, y, str(x == y).lower()] for i, (x, y) in enumerate(zip(f, b)))
            mark = "ok" if equal else "MISMATCH"
            lines.append(f"n={n} {kind}: formula {' '.join(f)} | brute {' '.join(b)} | {mark}")
    all_equal = all(c["equal"] for c in results)
    lines.append("all cells equal" if all_equal else "MISMATCH FOUND")
    header = ["n", "kind", "index", "formula", "brute", "equal"]
    report = _report(cfg, _config_echo(cfg), results, header, rows, lines)
    return (_EXIT_PASS if all_equal else _EXIT_FAIL), report


# ----------------------------------------------------------------------
# egf


def _cmd_egf(cfg: RunConfig) -> tuple[int, str]:
    series = _EGF[cfg.family or ""].kernel(cfg)
    results, rows, lines = [], [], [f"egf {cfg.family} order {cfg.order}"]
    for n in range(cfg.order + 1):
        c, f = str(series.coeff(n)), str(series.egf_coeff(n))
        results.append({"n": n, "c_n": c, "n_factorial_c_n": f})
        rows.append([n, c, f])
        lines.append(f"n={n}: c_n={c} n!*c_n={f}")
    header = ["n", "c_n", "n_factorial_c_n"]
    return _EXIT_PASS, _report(cfg, _config_echo(cfg), results, header, rows, lines)


# ----------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdbell",
        description=(
            "Exact tables, identity checks, enumeration cross-checks, and "
            "generating-series listings for ordered set partitions with "
            "deranged blocks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        # The union of its declarations' flags; main refuses the unread ones.
        specs = _SPECS[name]
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, kwargs in _FLAGS.items():
            if any(flag in {**s.flags, **(s.row or {})} for s in specs.values()):
                p.add_argument(flag, **kwargs)
        p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"))
        p.add_argument("--out", dest="out")
        if None not in specs:
            p.add_argument("family", choices=tuple(specs))
        return p

    add("table", "print a sequence or polynomial family")
    p_check = add("check", "run identity checks")
    p_check.add_argument("ids", nargs="*", default=["all"])
    p_check.set_defaults(max_n=20)
    add("oracle", "compare kernels against enumeration").set_defaults(max_n=6)
    add("egf", "list generating series coefficients")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        fields = vars(parser.parse_args(argv))
        if "ids" in fields:
            fields["ids"] = tuple(fields["ids"])
        cfg = RunConfig(**fields)
        declared = _declared(cfg)
        unread = [f for f, kw in _FLAGS.items() if kw["dest"] in fields and f not in declared]
        if unread:
            parser.error(f"unrecognized arguments: {' '.join(unread)}")
        unknown = [i for i in cfg.ids if i != "all" and i not in checks.registered_ids()]
        if unknown:
            parser.error(f"unknown check id {unknown[0]!r}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    refusal = _over_cap(cfg, declared)
    if refusal:
        sys.stderr.write(refusal)
        return _EXIT_RESOURCE
    run = {"table": _cmd_table, "check": _cmd_check, "oracle": _cmd_oracle, "egf": _cmd_egf}
    try:
        code, output = run[cfg.command](cfg)
    except oracle.CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return _EXIT_RESOURCE
    # A table arrives in chunks, and each is written as it is made.
    chunks = (output,) if isinstance(output, str) else output
    with open(cfg.out, "w", encoding="utf-8") if cfg.out else nullcontext(sys.stdout) as handle:
        handle.writelines(chunks)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
