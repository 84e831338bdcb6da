"""Command-line front end.

Four subcommands: ``table`` prints sequence and polynomial families,
``check`` runs the identity suite, ``oracle`` compares the sequence kernels
against literal enumeration cell by cell, and ``egf`` lists generating
series coefficients.  Output formats are text, canonical JSON (sorted keys,
two-space indent, rationals as strings, so parse + re-serialize is
byte-identical), and CSV with a mandatory header row.

Exit codes: 0 pass, 1 identity failure or unexpected error, 2 usage error,
3 resource cap, 4 inconclusive series tolerance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Sequence

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
# The two families whose cost grows fastest have caps of their own, one on a
# whole table (--max-n) and one on a single row (--n), set so that a request
# at the cap stays within TABLE_BUDGET even on a vCPU running at half speed.
# CPU time and peak RSS, shared 2-vCPU x86 host, Python 3.11 (a range is
# the spread of repeated runs):
#   pdb       --max-n 450: 20-26 s, 245 MB  (--max-n 500: 39 s)
#             --n 1000:    13.4 s, 432 MB
#   pdb_poly  --max-n 180: 3.2-3.5 s, 814 MB  (--max-n 200: 1.2 GB)
#             --n 550:     5.1-5.4 s, 846 MB  (--n 600: 8.0 s, 1105 MB)
TABLE_BUDGET = "60 s of CPU time and 1 GiB of memory"
FAMILY_TABLE_CAPS: dict[str, tuple[int, int]] = {
    "pdb": (450, MAX_TABLE_N),
    "pdb_poly": (180, 550),
}

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_RESOURCE = 3
_EXIT_INCONCLUSIVE = 4


@dataclass(frozen=True)
class RunConfig:
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


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _parse_tol(text: str) -> Fraction:
    try:
        value = Fraction(Decimal(text))
    except (InvalidOperation, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text}")
    return value


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# ----------------------------------------------------------------------
# table families

_SEQ_FAMILIES: dict[str, Callable[[int], object]] = {
    "derangement": seq.derangement,
    "bell": seq.bell,
    "complementary_bell": seq.complementary_bell,
    "ordered_bell": seq.ordered_bell,
    "deranged_bell": seq.deranged_bell,
    "bernoulli": bernoulli_number,
}

# The lambdas look the kernels up at call time, so a wrapper installed on the
# sequences module after import (a profiler or tracer) sees these calls.
_ROW_FAMILIES: dict[str, Callable[[int], list[object]]] = {
    "stirling2": lambda n: seq.stirling2_row(n),
    "partial_derangement": lambda n: [
        seq.partial_derangement(n, r) for r in range(n + 1)
    ],
    "truncated_ordered_bell": lambda n: seq.truncated_ordered_bell_row(n),
    "pdb": lambda n: seq.pdb_row(n),
    "pdb_poly": lambda n: [str(poly.pdb_poly(n, r)) for r in range(n + 1)],
}

TABLE_FAMILIES = (
    "stirling2",
    "r_stirling2",
    "derangement",
    "partial_derangement",
    "bell",
    "complementary_bell",
    "ordered_bell",
    "r_ordered_bell",
    "truncated_ordered_bell",
    "deranged_bell",
    "pdb",
    "pdb_poly",
    "bernoulli",
    "higher_bernoulli",
)

EGF_FAMILY_CHOICES = (*ser.EGF_FAMILIES, "pdb")


def _table_rows(cfg: RunConfig) -> list[tuple[int, object]]:
    """One (n, cells) row per n: the list of the row's values for k = 0, 1,
    ..., or the one value of a family that has a single value per n."""
    family = cfg.family or ""
    r = cfg.r if cfg.r is not None else 0
    ns = range(cfg.max_n + 1)
    if family in _SEQ_FAMILIES:
        return [(n, _SEQ_FAMILIES[family](n)) for n in ns]
    if family in _ROW_FAMILIES:
        return [(n, _ROW_FAMILIES[family](n)) for n in ([cfg.n] if cfg.n is not None else ns)]
    if family == "r_stirling2":
        return [(n, [seq.r_stirling2(n, k, r) for k in range(n + 1)]) for n in ns]
    if family == "r_ordered_bell":
        if cfg.n is not None:
            return [(cfg.n, [seq.r_ordered_bell(cfg.n, k) for k in range(cfg.max_r + 1)])]
        return [(n, seq.r_ordered_bell(n, r)) for n in ns]
    if family == "higher_bernoulli":
        shift = cfg.r if cfg.r is not None else 1
        return [(n, higher_bernoulli(n, shift)) for n in ns]
    raise ValueError(f"unknown table family {family!r}")


def _render_table(cfg: RunConfig, rows: list[tuple[int, object]]) -> str:
    family = cfg.family
    if cfg.fmt == "json":
        results: list[dict[str, object]] = []
        for n, cells in rows:
            if isinstance(cells, list):
                results += [
                    {"family": family, "n": n, "k": k, "value": str(v)}
                    for k, v in enumerate(cells)
                ]
            else:
                results.append({"family": family, "n": n, "value": str(cells)})
        return canonical_json(
            {"command": "table", "config": _config_echo(cfg), "results": results}
        )
    if cfg.fmt == "csv":
        data = []
        for n, cells in rows:
            if isinstance(cells, list):
                data += [[family, n, k, v] for k, v in enumerate(cells)]
            else:
                data.append([family, n, "", cells])
        return _csv_text(["family", "n", "k", "value"], data)
    # Polynomial cells contain spaces, so their row uses a wider separator.
    sep = " | " if family == "pdb_poly" else " "
    lines = [f"table {family}"]
    for n, cells in rows:
        text = sep.join(map(str, cells)) if isinstance(cells, list) else cells
        lines.append(f"n={n}: {text}")
    return "\n".join(lines) + "\n"


def _cmd_table(cfg: RunConfig) -> tuple[int, str]:
    table_cap, row_cap = FAMILY_TABLE_CAPS.get(
        cfg.family or "", (MAX_TABLE_N, MAX_TABLE_N)
    )
    limits = [("--max-n", cfg.max_n, table_cap if cfg.n is None else MAX_TABLE_N)]
    if cfg.n is not None:
        limits.append(("--n", cfg.n, row_cap))
    for flag, n, cap in limits:
        if n > cap:
            return (
                _EXIT_RESOURCE,
                f"resource cap: table {cfg.family} {flag} is limited to {cap}; "
                f"pdb and pdb_poly are capped to stay within {TABLE_BUDGET}\n",
            )
    rows = _table_rows(cfg)
    return _EXIT_PASS, _render_table(cfg, rows)


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
    if any(s is checks.Status.INCONCLUSIVE for s in statuses):
        return _EXIT_INCONCLUSIVE
    errored = [r for r in report.results if r.status is checks.Status.ERROR]
    if errored:
        if any(r.error and r.error.startswith("resource-cap:") for r in errored):
            return _EXIT_RESOURCE
        return _EXIT_FAIL
    return _EXIT_PASS


def _render_check_text(report: checks.SuiteReport) -> str:
    lines = []
    for r in report.results:
        bounds = ", ".join(f"{k}={v}" for k, v in sorted(r.bounds.items()))
        suffix = f" ({bounds})" if bounds else ""
        lines.append(f"check {r.check_id}: {r.status.value}{suffix} [{r.ms} ms]")
        if r.witness is not None:
            params = " ".join(f"{k}={v}" for k, v in r.witness.params.items())
            lines.append(f"  witness {params}: lhs={r.witness.lhs} rhs={r.witness.rhs}")
        if r.error is not None:
            lines.append(f"  error: {r.error}")
    counts: dict[str, int] = {}
    for r in report.results:
        counts[r.status.value] = counts.get(r.status.value, 0) + 1
    tally = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"overall: {report.overall} ({len(report.results)} checks: {tally})")
    return "\n".join(lines) + "\n"


def _render_check(report: checks.SuiteReport, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        return canonical_json(
            {
                "command": "check",
                "config": report.config.to_dict(),
                "results": [r.to_dict() for r in report.results],
            }
        )
    if cfg.fmt == "csv":
        rows = []
        for r in report.results:
            bounds = ";".join(f"{k}={v}" for k, v in sorted(r.bounds.items()))
            if r.witness is not None:
                params = ";".join(f"{k}={v}" for k, v in r.witness.params.items())
                lhs, rhs = r.witness.lhs, r.witness.rhs
            else:
                params = lhs = rhs = ""
            rows.append(
                [r.check_id, r.status.value, bounds, params, lhs, rhs, r.ms, r.error or ""]
            )
        return _csv_text(
            ["id", "status", "bounds", "witness_params", "lhs", "rhs", "ms", "error"],
            rows,
        )
    return _render_check_text(report)


def _cmd_check(cfg: RunConfig) -> tuple[int, str]:
    if cfg.oracle_cap > oracle.DEFAULT_CAP:
        return (
            _EXIT_RESOURCE,
            f"resource cap: --oracle-cap is limited to {oracle.DEFAULT_CAP}; "
            f"{oracle._COST_HINT}\n",
        )
    ids = None if not cfg.ids or "all" in cfg.ids else list(cfg.ids)
    report = checks.run_all(_suite_config(cfg), ids)
    return _check_exit_code(report), _render_check(report, cfg)


# ----------------------------------------------------------------------
# oracle


def _oracle_cells(cap: int) -> list[dict[str, object]]:
    return [
        {
            "n": n,
            "kind": kind,
            "formula": [str(v) for v in formula],
            "brute": [str(v) for v in brute],
            "equal": formula == brute,
        }
        for n in range(cap + 1)
        for kind, formula, brute in checks.oracle_cells(n, cap)
    ]


def _cmd_oracle(cfg: RunConfig) -> tuple[int, str]:
    cap = cfg.max_n
    if cap > oracle.DEFAULT_CAP:
        return (
            _EXIT_RESOURCE,
            f"resource cap: oracle enumeration is limited to n <= {oracle.DEFAULT_CAP}; "
            f"{oracle._COST_HINT}\n",
        )
    cells = _oracle_cells(cap)
    all_equal = all(c["equal"] for c in cells)
    code = _EXIT_PASS if all_equal else _EXIT_FAIL
    if cfg.fmt == "json":
        return code, canonical_json(
            {"command": "oracle", "config": _config_echo(cfg), "results": cells}
        )
    if cfg.fmt == "csv":
        rows = []
        for c in cells:
            for idx, (f_val, b_val) in enumerate(zip(c["formula"], c["brute"])):
                rows.append(
                    [c["n"], c["kind"], idx, f_val, b_val, str(f_val == b_val).lower()]
                )
        return code, _csv_text(["n", "kind", "index", "formula", "brute", "equal"], rows)
    lines = [f"oracle comparison up to n={cap}"]
    for c in cells:
        mark = "ok" if c["equal"] else "MISMATCH"
        lines.append(
            f"n={c['n']} {c['kind']}: formula {' '.join(c['formula'])} | "
            f"brute {' '.join(c['brute'])} | {mark}"
        )
    lines.append("all cells equal" if all_equal else "MISMATCH FOUND")
    return code, "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# egf


def _cmd_egf(cfg: RunConfig) -> tuple[int, str]:
    family = cfg.family or ""
    order = cfg.order
    if order > MAX_ORDER:
        return (
            _EXIT_RESOURCE,
            f"resource cap: series order is limited to {MAX_ORDER}\n",
        )
    param = cfg.r if cfg.r is not None else (1 if family == "higher_bernoulli" else 0)
    if family == "pdb":
        series = ser.egf_pdb(param, Fraction(1), order)
    else:
        series = ser.egf_family(family, order, param)
    rows = [
        {"n": n, "c_n": str(series.coeff(n)), "n_factorial_c_n": str(series.egf_coeff(n))}
        for n in range(order + 1)
    ]
    if cfg.fmt == "json":
        return _EXIT_PASS, canonical_json(
            {"command": "egf", "config": _config_echo(cfg), "results": rows}
        )
    if cfg.fmt == "csv":
        return _EXIT_PASS, _csv_text(
            ["n", "c_n", "n_factorial_c_n"],
            [[r["n"], r["c_n"], r["n_factorial_c_n"]] for r in rows],
        )
    lines = [f"egf {family} order {order}"]
    for r_ in rows:
        lines.append(f"n={r_['n']}: c_n={r_['c_n']} n!*c_n={r_['n_factorial_c_n']}")
    return _EXIT_PASS, "\n".join(lines) + "\n"


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
    # Each flag sets the RunConfig field named by its dest.  A subcommand
    # takes only the flags it reads; a field whose flag is not given keeps
    # its RunConfig default, or the subcommand's own default for --max-n.
    flags: dict[str, dict[str, object]] = {
        "--max-n": {"dest": "max_n", "type": _nonneg},
        "--max-r": {"dest": "max_r", "type": _nonneg},
        "--n": {"dest": "n", "type": _nonneg},
        "--r": {"dest": "r", "type": _nonneg},
        "--order": {"dest": "order", "type": _nonneg},
        "--tol": {"dest": "tolerance", "type": _parse_tol, "metavar": "TOL"},
        "--format": {"dest": "fmt", "choices": ("text", "json", "csv")},
        "--out": {"dest": "out"},
        "--oracle-cap": {"dest": "oracle_cap", "type": _nonneg},
    }

    def add(name: str, help_text: str, *names: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in names + ("--format", "--out"):
            p.add_argument(flag, **flags[flag])
        return p

    p_table = add(
        "table", "print a sequence or polynomial family", "--max-n", "--max-r", "--n", "--r"
    )
    p_table.add_argument("family", choices=TABLE_FAMILIES)

    p_check = add(
        "check", "run identity checks", "--max-n", "--max-r", "--order", "--tol", "--oracle-cap"
    )
    p_check.add_argument("ids", nargs="*", default=["all"])
    p_check.set_defaults(max_n=20)

    add("oracle", "compare kernels against enumeration", "--max-n").set_defaults(max_n=6)

    p_egf = add("egf", "list generating series coefficients", "--r", "--order")
    p_egf.add_argument("family", choices=EGF_FAMILY_CHOICES)
    return parser


def _run(cfg: RunConfig) -> tuple[int, str]:
    if cfg.command == "table":
        return _cmd_table(cfg)
    if cfg.command == "check":
        return _cmd_check(cfg)
    if cfg.command == "oracle":
        return _cmd_oracle(cfg)
    if cfg.command == "egf":
        return _cmd_egf(cfg)
    raise ValueError(f"unknown command {cfg.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else _EXIT_USAGE
        return code
    fields = vars(args)
    if "ids" in fields:
        fields["ids"] = tuple(fields["ids"])
    cfg = RunConfig(**fields)
    try:
        code, text = _run(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except oracle.CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return _EXIT_RESOURCE
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
