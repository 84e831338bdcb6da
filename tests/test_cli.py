"""Command-line interface: rendering, exit codes, and format contracts."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import pytest

from pdbell import checks, cli
from pdbell import polynomials as poly
from pdbell import sequences as seq
from pdbell import series as ser
from pdbell.bernoulli import bernoulli
from pdbell.checks import CheckReport, Status, SuiteConfig, SuiteReport
from pdbell.cli import MAX_TABLE_N, _check_exit_code, canonical_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# table


def test_table_pdb_text(capsys):
    code, out, err = run_cli(capsys, "table", "pdb", "--max-n", "3")
    assert code == 0
    assert err == ""
    assert out == (
        "table pdb\n"
        "n=0: 1\n"
        "n=1: 0 1\n"
        "n=2: 1 1 1\n"
        "n=3: 5 4 3 1\n"
    )


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling2", "--n", "4")
    assert code == 0
    assert out == "table stirling2\nn=4: 0 1 7 6 1\n"


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "pdb", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out == (
        "family,n,k,value\n"
        "pdb,0,0,1\n"
        "pdb,1,0,0\n"
        "pdb,1,1,1\n"
        "pdb,2,0,1\n"
        "pdb,2,1,1\n"
        "pdb,2,2,1\n"
    )


def test_table_json_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "table", "bell", "--max-n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "results"}
    assert doc["command"] == "table"
    assert "overall" not in doc
    assert [row["value"] for row in doc["results"]] == ["1", "1", "2", "5", "15"]
    assert all("k" not in row for row in doc["results"])
    assert canonical_json(doc) == out  # parse + re-serialize is byte-identical


def test_table_polynomial_rows_use_bar_separator(capsys):
    code, out, _ = run_cli(capsys, "table", "pdb_poly", "--n", "2")
    assert code == 0
    line = out.splitlines()[1]
    assert line.startswith("n=2: ")
    assert line.count(" | ") == 2  # three polynomial cells


def test_table_r_ordered_bell_row_and_sequence(capsys):
    code, out, _ = run_cli(capsys, "table", "r_ordered_bell", "--n", "1", "--max-r", "5")
    assert code == 0
    assert out == "table r_ordered_bell\nn=1: 1 2 3 4 5 6\n"
    code, out, _ = run_cli(capsys, "table", "r_ordered_bell", "--max-n", "3", "--r", "0")
    assert code == 0
    assert out == "table r_ordered_bell\nn=0: 1\nn=1: 1\nn=2: 3\nn=3: 13\n"


def test_table_higher_bernoulli_defaults_to_first_order(capsys):
    code, out, _ = run_cli(capsys, "table", "higher_bernoulli", "--max-n", "3")
    assert code == 0
    values = [line.split(": ")[1] for line in out.splitlines()[1:]]
    assert values == [str(bernoulli(n)) for n in range(4)]


def test_table_resource_cap(capsys):
    code, out, err = run_cli(capsys, "table", "bell", "--max-n", "1001")
    assert code == 3
    assert out == ""
    assert "resource cap" in err


# The row kernel each table with a row mode reads, and its calls for
# --max-n 7 and then for --n 5.
TABLE_ROW_KERNELS = {
    "pdb": ("pdb_rows", [(7, 0)], [(5, 5)]),
    "stirling2": ("stirling2_rows", [(7, 0)], [(5, 5)]),
    "pdb_poly": ("stirling2_rows", [(7, 0)], [(5, 5)]),
    "truncated_ordered_bell": ("stirling2_rows", [(7, 0)], [(5, 5)]),
    "partial_derangement": ("partial_derangement_row", [(n,) for n in range(8)], [(5,)]),
}
# Kernels of one row or one cell, which no table reads.
UNREAD_KERNELS = (
    "pdb_row",
    "stirling2_row",
    "truncated_ordered_bell_row",
    "stirling2",
    "partial_derangement",
    "truncated_ordered_bell",
    "pdb_number",
)


@pytest.mark.parametrize("family", sorted(TABLE_ROW_KERNELS))
def test_table_reads_rows_in_turn(capsys, monkeypatch, family):
    # A whole table and a single row both read the family's row kernel, a
    # stream once from the first n asked for up to the last, looked up when
    # the table runs; none reads a per-n row kernel or a per-cell kernel.
    expected = run_cli(capsys, "table", family, "--max-n", "7", "--format", "csv")[1]
    row_out = run_cli(capsys, "table", family, "--n", "5")[1]
    name, whole_calls, row_calls = TABLE_ROW_KERNELS[family]
    kernel = getattr(seq, name)
    calls = []
    monkeypatch.setattr(seq, name, lambda *args: calls.append(args) or kernel(*args))
    for other in UNREAD_KERNELS:
        monkeypatch.setattr(seq, other, lambda *args, other=other: pytest.fail(f"read {other}"))
    monkeypatch.setattr(poly, "pdb_poly", lambda *args: pytest.fail("read pdb_poly"))
    assert run_cli(capsys, "table", family, "--max-n", "7", "--format", "csv")[1] == expected
    assert calls == whole_calls
    assert run_cli(capsys, "table", family, "--n", "5")[1] == row_out
    assert calls == whole_calls + row_calls


@pytest.mark.parametrize("family", sorted(TABLE_ROW_KERNELS))
@pytest.mark.parametrize("n", [0, 7, 60])
def test_table_row_is_that_row_of_the_whole_table(capsys, family, n):
    whole = run_cli(capsys, "table", family, "--max-n", str(n), "--format", "csv")[1]
    head, *lines = whole.splitlines(keepends=True)
    last = [line for line in lines if line.startswith(f"{family},{n},")]
    assert len(last) == n + 1
    row = run_cli(capsys, "table", family, "--n", str(n), "--format", "csv")[1]
    assert row == head + "".join(last)


# Every two-index table, by the library kernel of one cell (n, k).
PER_CELL = {
    ("stirling2",): lambda n, k: seq.stirling2(n, k),
    ("r_stirling2", "--r", "0"): lambda n, k: seq.r_stirling2(n, k, 0),
    ("r_stirling2", "--r", "3"): lambda n, k: seq.r_stirling2(n, k, 3),
    ("partial_derangement",): lambda n, k: seq.partial_derangement(n, k),
    ("truncated_ordered_bell",): lambda n, k: seq.truncated_ordered_bell(n, k),
    ("pdb",): lambda n, k: seq.pdb_number(n, k),
    ("pdb_poly",): lambda n, k: poly.pdb_poly(n, k),
}


def _memo_sizes():
    """The row count of every memo in sequences, and the pdb_poly cache size."""
    triangles = {r: len(memo._rows) for r, memo in seq._triangles.items()}
    memos = len(seq._derangements._rows), len(seq._bells._rows)
    return triangles, memos, poly.pdb_poly.cache_info().currsize


@pytest.mark.parametrize("table", sorted(PER_CELL), ids=" ".join)
@pytest.mark.parametrize("max_n", [0, 1, 7, 30])
def test_two_index_table_is_its_cells_and_fills_no_memo(capsys, monkeypatch, table, max_n):
    # Run from no Stirling triangle and an empty pdb_poly cache, a table in
    # every format fills neither.  The derangement numbers, which the
    # partial_derangement and pdb_poly tables read, are grown to max_n first.
    monkeypatch.setattr(seq, "_triangles", {})
    monkeypatch.setattr(poly, "pdb_poly", lru_cache(maxsize=4096)(poly.pdb_poly.__wrapped__))
    seq.derangement(max_n)
    before = _memo_sizes()
    family, *flags = table
    argv = ["table", family, "--max-n", str(max_n), *flags, "--format"]
    outs = {fmt: run_cli(capsys, *argv, fmt) for fmt in ("text", "json", "csv")}
    assert _memo_sizes() == before
    assert {code for code, _, _ in outs.values()} == {0}

    rows = [[PER_CELL[table](n, k) for k in range(n + 1)] for n in range(max_n + 1)]
    sep = " | " if family == "pdb_poly" else " "
    lines = [f"n={n}: {sep.join(map(str, row))}\n" for n, row in enumerate(rows)]
    assert outs["text"][1] == "".join([f"table {family}\n", *lines])
    cells = [(n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [("family", "n", "k", "value"), *((family, n, k, v) for n, k, v in cells)]
    )
    assert outs["csv"][1] == buf.getvalue()
    results = [{"family": family, "k": k, "n": n, "value": str(v)} for n, k, v in cells]
    config = json.loads(outs["json"][1])["config"]
    doc = {"command": "table", "config": config, "results": results}
    assert outs["json"][1] == canonical_json(doc)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("flag", ["--max-n", "--n"])
def test_table_kernel_short_of_rows_raises(capsys, monkeypatch, fmt, flag):
    # A row stream that ends early fails the run instead of ending the table
    # short: what was written before is a part of the table, never a whole.
    argv = ["table", "pdb", flag, "5", "--format", fmt]
    whole = run_cli(capsys, *argv)[1]
    rows = seq.pdb_rows
    monkeypatch.setattr(
        seq, "pdb_rows", lambda max_n, first: islice(rows(max_n, first), max_n - first)
    )
    with pytest.raises(ValueError, match="shorter"):
        main(argv)
    out = capsys.readouterr().out
    assert whole.startswith(out) and len(out) < len(whole)


def test_cap_refusal_does_not_create_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, err = run_cli(capsys, "table", "pdb", "--max-n", "1001", "--out", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap: table pdb --max-n is limited to 1000;")
    assert not target.exists()


@pytest.mark.parametrize("family", ["pdb", "pdb_poly"])
def test_table_family_caps(capsys, monkeypatch, family):
    spec = cli._TABLES[family]
    table_cap, row_cap = spec.flags["--max-n"][0], spec.row["--n"][0]
    # pdb rows stream one from the other, so a whole table fits the budget
    # up to the row cap.
    assert table_cap == row_cap if family == "pdb" else table_cap < row_cap
    assert row_cap <= MAX_TABLE_N
    computed = []
    monkeypatch.setattr(cli, "_table_rows", lambda cfg: computed.append(cfg) or [])
    for flag, cap in (("--max-n", table_cap), ("--n", row_cap)):
        code, out, err = run_cli(capsys, "table", family, flag, str(cap + 1))
        assert code == 3
        assert out == ""
        assert f"resource cap: table {family} {flag} is limited to {cap};" in err
        assert "60 s" in err
        assert computed == []  # refused before any work
    # The whole-table cap does not apply to a single row.
    for flag, n in (("--max-n", table_cap), ("--n", min(table_cap + 1, row_cap)), ("--n", row_cap)):
        code, _, _ = run_cli(capsys, "table", family, flag, str(n))
        assert code == 0
    assert len(computed) == 3


def test_table_truncated_ordered_bell_max_n_cap(capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "_table_rows", lambda cfg: computed.append(cfg) or [])
    code, out, err = run_cli(capsys, "table", "truncated_ordered_bell", "--max-n", "801")
    assert code == 3
    assert out == ""
    assert "resource cap: table truncated_ordered_bell --max-n is limited to 800;" in err
    assert "60 s" in err
    assert computed == []  # refused before any work
    # A single row keeps the soft limit on table sizes.
    for flag, n in (("--max-n", 800), ("--n", MAX_TABLE_N)):
        code, _, _ = run_cli(capsys, "table", "truncated_ordered_bell", flag, str(n))
        assert code == 0
    assert len(computed) == 2


@pytest.mark.parametrize("mode, flag", [("--n", "--max-r"), ("--max-n", "--r")])
def test_table_r_ordered_bell_r_caps(capsys, mode, flag):
    code, out, err = run_cli(capsys, "table", "r_ordered_bell", mode, "3", flag, "1001")
    assert code == 3
    assert out == ""
    assert f"resource cap: table r_ordered_bell {flag} is limited to 1000;" in err
    assert "60 s" in err
    code, out, _ = run_cli(
        capsys, "table", "r_ordered_bell", mode, "3", flag, "1000", "--format", "csv"
    )
    assert code == 0
    assert len(out.splitlines()) == (1002 if flag == "--max-r" else 5)


def test_table_higher_bernoulli_r_cap(capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "_table_rows", lambda cfg: computed.append(cfg) or [])
    cap = cli._TABLES["higher_bernoulli"].flags["--r"][0]
    for max_n in ("3", "200"):
        code, out, err = run_cli(
            capsys, "table", "higher_bernoulli", "--max-n", max_n, "--r", str(cap + 1)
        )
        assert code == 3
        assert out == ""
        assert f"resource cap: table higher_bernoulli --r is limited to {cap};" in err
        assert "60 s" in err
    assert computed == []  # refused before any work
    code, _, _ = run_cli(capsys, "table", "higher_bernoulli", "--max-n", "3", "--r", str(cap))
    assert code == 0
    assert len(computed) == 1


def test_table_r_stirling2_r_cap(capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "_table_rows", lambda cfg: computed.append(cfg) or [])
    code, out, err = run_cli(capsys, "table", "r_stirling2", "--max-n", "3", "--r", "1001")
    assert code == 3
    assert out == ""
    assert err == (
        "resource cap: table r_stirling2 --r is limited to 1000; the soft limit on table sizes\n"
    )
    assert computed == []  # refused before any work
    code, _, _ = run_cli(capsys, "table", "r_stirling2", "--max-n", "3", "--r", "1000")
    assert code == 0
    assert len(computed) == 1


def test_table_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "table", "no_such_family")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# check


def test_check_all_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--max-n", "8", "--max-r", "3")
    assert code == 0
    assert "overall: pass" in out
    assert out.count("known-failing-as-printed") >= 4


def test_check_selection_reports_in_registry_order(capsys):
    code, out, _ = run_cli(
        capsys, "check", "wilf_scan", "thm_2_3", "--max-n", "6", "--max-r", "2"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("check ")]
    assert lines[0].startswith("check thm_2_3:")
    assert lines[1].startswith("check wilf_scan:")


def test_check_known_failing_only_still_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "eq_14_printed", "--max-n", "5")
    assert code == 0
    assert "witness n=0: lhs=1 rhs=y" in out
    assert "overall: pass" in out


def test_check_unknown_id(capsys):
    code, out, err = run_cli(capsys, "check", "no_such_id")
    assert code == 2
    assert out == ""
    assert "unknown check id" in err


def test_check_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "check", "thm_2_3", "thm_2_9", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "config", "results"}
    assert "overall" not in doc
    assert canonical_json(doc) == out
    assert set(doc["config"]) == {
        "max_n",
        "max_r",
        "max_m",
        "oracle_cap",
        "series_order",
        "tolerance",
        "wilf_bound",
    }
    for result in doc["results"]:
        assert {"id", "status", "bounds", "ms"} <= set(result)


def test_check_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "check", "thm_2_3", "--max-n", "5", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "id,status,bounds,witness_params,lhs,rhs,ms,error"


def test_check_oracle_cap_flag_limit(capsys):
    code, out, err = run_cli(capsys, "check", "--oracle-cap", "11")
    assert code == 3
    assert out == ""
    assert "3628800" in err


def test_check_empty_grid_is_vacuous_and_exits_4(capsys):
    code, out, _ = run_cli(capsys, "check", "--max-n", "0")
    assert code == 4
    assert "check thm_2_9: vacuous (n=1..0, r=0..min(n-1,8))" in out
    assert "check cor_3_2_printed: not-reproduced-on-grid" in out
    assert out.splitlines()[-1].startswith("overall: fail ")


def test_check_inconclusive_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "check", "thm_2_10_b", "--tol", "1e-300", "--max-n", "4"
    )
    assert code == 4
    assert "inconclusive" in out


def test_check_bad_tolerances_are_usage_errors(capsys):
    too_many_digits = "1." + "1" * 4400 + "e-5"
    for tol in ("0", "-1e-9", "abc", "inf", "1e-1001", "1e1001", "1e-10000000", too_many_digits):
        code, out, _ = run_cli(capsys, "check", "--tol", tol)
        assert code == 2
        assert out == ""


def test_check_smallest_tolerance_is_inconclusive(capsys):
    code, out, _ = run_cli(
        capsys, "check", "thm_2_10_a", "thm_2_10_b", "--tol", "1e-1000"
    )
    assert code == 4
    assert "check thm_2_10_a: inconclusive" in out
    assert "check thm_2_10_b: inconclusive" in out


def test_check_prints_other_tolerances_as_fractions(capsys):
    code, out, _ = run_cli(capsys, "check", "thm_2_10_a", "--tol", "2e-9")
    assert code == 0
    assert "tolerance=1/500000000)" in out.splitlines()[0]


def test_table_bad_counts_are_usage_errors(capsys):
    for value, message in (("abc", "not an integer: 'abc'"), ("-1", "must be nonnegative, got -1")):
        code, out, err = run_cli(capsys, "table", "pdb", "--max-n", value)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"argument --max-n: {message}")


def test_exit_code_priority():
    cfg = SuiteConfig()

    def report(*statuses_and_errors):
        results = tuple(
            CheckReport(
                check_id=f"c{i}", status=status, bounds={}, ms=0, error=error
            )
            for i, (status, error) in enumerate(statuses_and_errors)
        )
        return SuiteReport(results=results, config=cfg)

    ok = (Status.PASS, None)
    fail = (Status.FAIL, None)
    inconclusive = (Status.INCONCLUSIVE, None)
    cap_err = (Status.ERROR, "resource-cap: too big")
    other_err = (Status.ERROR, "RuntimeError: boom")

    assert _check_exit_code(report(ok, ok)) == 0
    assert _check_exit_code(report(ok, fail, inconclusive)) == 1
    assert _check_exit_code(report(ok, inconclusive, cap_err)) == 4
    assert _check_exit_code(report(ok, cap_err)) == 3
    assert _check_exit_code(report(ok, other_err)) == 1
    assert _check_exit_code(report(cap_err, other_err)) == 3
    assert _check_exit_code(report((Status.KNOWN_FAILING, None),)) == 0
    vacuous = (Status.VACUOUS, None)
    assert _check_exit_code(report(vacuous)) == 4
    assert _check_exit_code(report(fail, vacuous)) == 1
    assert _check_exit_code(report(vacuous, cap_err)) == 4
    assert _check_exit_code(report(ok, (Status.NOT_REPRODUCED, None))) == 0


# ----------------------------------------------------------------------
# oracle


def test_oracle_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "4")
    assert code == 0
    assert out.splitlines()[0] == "oracle comparison up to n=4"
    assert out.splitlines()[-1] == "all cells equal"
    assert "n=3 pdb_row: formula 5 4 3 1 | brute 5 4 3 1 | ok" in out


def test_oracle_resource_cap(capsys):
    code, out, err = run_cli(capsys, "oracle", "--max-n", "11")
    assert code == 3
    assert out == ""
    assert "resource cap" in err


def test_oracle_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert canonical_json(doc) == out
    assert all(cell["equal"] for cell in doc["results"])
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,kind,index,formula,brute,equal"


# sha256 of the oracle subcommand's stdout for --max-n N in each format, so
# any change to its cells, their order or their rendering shows
GOLDEN_ORACLE_SHA256 = {
    (0, "text"): "aee789e64ed5da16cd35cd81601f88fb830a48c5f84ad37bf9bac591cdbb16e8",
    (0, "json"): "83833fcf04891e847a0a093b3748823c4a194d752e581dbfa26c60c3718c97f3",
    (0, "csv"): "eac37aad4783ec854027343b64f5cd20b6d91c8f31c6744c59b7a7a5ca1ed6d9",
    (1, "text"): "ada47b9add03773f47c703d6ca0de92e9ae0b1f843c9bdf57844b9fb4a0f448e",
    (1, "json"): "49336d966a45d46e6a84c2edbb097113670b675da5d353c50703df7202be2739",
    (1, "csv"): "9d77230b1b0117632f93c6428de2cd27bf38557c302bf0b1863d3d779fe5a7b3",
    (2, "text"): "3605074ea59aa4b0d90de0ab4cfad5c0f43f2fe52c24b3c6ea0a2008c6a5e620",
    (2, "json"): "f2271fadad1f14200acacce54bd4b4793c1a723db81579df20d9b987cacce069",
    (2, "csv"): "6ed99ed797bdc64ce493052dabd94ec74d9983d97fde3449f1f9a2d2f2df6f0c",
    (3, "text"): "ef76c8a439c87b48b13a08d07d1a01c6427c607768eb0188b058a2bb6cda16e6",
    (3, "json"): "1792b083089614318274448e5bb87af8a879f14f332cdfabae2ee1d9866780e7",
    (3, "csv"): "5d8b9e26df7b3fa19cbbd5f034fb3636cc963a8ccaceeb83721231e1454e4ea7",
    (4, "text"): "332a34aaa22222c349463e907721e70b0d92f08a19a12c0b57d2ae5057b4d90a",
    (4, "json"): "11aeec548a135e532d2f131f3e1f9524a9aee01b0498b05ef0c5c8c7e08397c4",
    (4, "csv"): "702f5162fc303dfaad46e2bb723c95229295e6579f2fd27f9b8aa3ba0f093f2a",
    (5, "text"): "b63bd7392515b33af27cea7c5db1ef0e591b2664fc9b908d4640b175b3a1226e",
    (5, "json"): "206c81c1aa1a4d80471af966a36369fabde97ee6cda633ee2fe456b9dd8f2841",
    (5, "csv"): "c6525129c29eb1f082740f7505926cb4004a15995b274d8e03d8a20b9e2d5473",
    (6, "text"): "333908c00a766fde82163b982219f3c61627413102af2f44d82b534e10b1280d",
    (6, "json"): "3afadc83da0e4fb69f8903a374686f942343a1adaa1cfdffd0fef5921c12c496",
    (6, "csv"): "8daaced39d5e6c1ce19ea8c45bf6d64e82c08647ef7641e6b8c943ce3d54c4c9",
    (7, "text"): "d29735b9a2db3009d68f431420b0b4814adef53d29e80b4426db52a73aef7b36",
    (7, "json"): "dfc9a28abaa4ecc20c65439c821e48169c157dc24c659a1f44ed4d12b2746aa4",
    (7, "csv"): "9890c38446d8db883a7879bfe547d71fe5015bc6b1ca9264050ad17c2c07fc60",
    (8, "text"): "7e23170bb0ee42de3823a713a1a27c022ea38e0df4d35a06c26825bd4d970cf9",
    (8, "json"): "41977213e3a0ea575de76b10649dd9ef161c74854b6d8964322bf700d1db4a87",
    (8, "csv"): "d21e7ce18e34da3680c32c2b22d600e4558533bccbad577f8ba69c19d850d2fd",
}


@pytest.mark.parametrize("max_n, fmt", sorted(GOLDEN_ORACLE_SHA256))
def test_golden_oracle_output(capsys, max_n, fmt):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", str(max_n), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_ORACLE_SHA256[max_n, fmt]


# sha256 of the stdout of every table and egf family in each format, in each
# form the family reads: the whole table, a single row, a parameter r, and
# r_ordered_bell's row over r = 0..--max-r
GOLDEN_FAMILY_SHA256 = {
    ("table stirling2 --max-n 6", "text"): "67a8578552c982c582c8f98750b4bf39bb7c8716f1cb1fe9a4cd7e83a959622c",
    ("table stirling2 --max-n 6", "json"): "b9f8b588141c958c92f81c1b78e9c67da202e5279ef99349386dcffb0f392e36",
    ("table stirling2 --max-n 6", "csv"): "820f1901b6df5201121e11bb6ffb0cdb7d16069bfb4da0fe3ed5d70e74fefa23",
    ("table stirling2 --n 5", "text"): "327ad4f89fd3dbda1477c536831a1072b3e4bb55e5038c07b6c416a0153bbc5d",
    ("table stirling2 --n 5", "json"): "8c8a98cf528c0b47ffd1d6c134f09025935dfc5c95dac36674712870a867ece4",
    ("table stirling2 --n 5", "csv"): "235f3396403974e7cbbb4fb8188f33cf004d07bcaf7c0d55c35b4992c876c372",
    ("table r_stirling2 --max-n 6", "text"): "d329efa9d2fe93452cfd1df890db8de8c1469fec2bdacbb6408cb7bd32921ddd",
    ("table r_stirling2 --max-n 6", "json"): "96009ea75094c4d08fe8d3260e0e6a89d0d1e27d12d5f1c87154a93eea4878bc",
    ("table r_stirling2 --max-n 6", "csv"): "2e636631dfbf2cf365493e779dffcbbc0ed2df7f76f871348a12bde25a5b9fbb",
    ("table r_stirling2 --max-n 6 --r 2", "text"): "e56b63edbcc147faf57c172ac2fa77fa5e84ff0a4c223a36fe6cb046a026ca13",
    ("table r_stirling2 --max-n 6 --r 2", "json"): "03b7690353049211c30a5d468567766dc243ab3525cd66dc4f458a3a40c321bd",
    ("table r_stirling2 --max-n 6 --r 2", "csv"): "09cb9ba205d0cc9370cadc42727daef5246d1df2753c5ab0b98a13df2ff37a6f",
    ("table derangement --max-n 6", "text"): "69525c3d538152df2819df4cb820f431db4739a7e96aa6fa56fae6316b806007",
    ("table derangement --max-n 6", "json"): "2dc9c68c9315be6979ad2de32cc7e01f9bc94a8307de684f7a76e0044919ed42",
    ("table derangement --max-n 6", "csv"): "9a4f392987c6cebcf70342046201635ed22485a1928e81d3cb189861f6a1d30c",
    ("table partial_derangement --max-n 6", "text"): "1f022598a0d48cc71929818d1c3367989f5b10a4e32da6e4d3ecde37106132c9",
    ("table partial_derangement --max-n 6", "json"): "e3780498c14739242da5266da04cda642936a8046c55dea18cfb62b06ac141a3",
    ("table partial_derangement --max-n 6", "csv"): "7dc76f29ee650e6de5068546696285b0593eafb92a12cf0c9b6f14fb54cb8f78",
    ("table partial_derangement --n 5", "text"): "e93ae41bf1bbb0d3ad0040598576a42027b6750a1b5cead2d8a16c7fbf892ea4",
    ("table partial_derangement --n 5", "json"): "149240b879ba5a9b294569748a39c4615f4dc4392430ca86b5c75c19563265e2",
    ("table partial_derangement --n 5", "csv"): "06f2b9f5ab5f9ee9ef1f0411bc157dd151b8f7d93418597c1586820b0b38b079",
    ("table bell --max-n 6", "text"): "5c3cb4483621d9aea5797f27de3d625bc80a4558189fe6ac9683d1876e00bbdb",
    ("table bell --max-n 6", "json"): "c5762086c1815fadb211d54672ff32c214c00b04f1089e9c4d5dcbee6f9eb6b1",
    ("table bell --max-n 6", "csv"): "5e57d17071bf43a798608f7de3974eb7ca6528c1c7e5e8020101f32495dab311",
    ("table complementary_bell --max-n 6", "text"): "1073a9079cbd24400e86b86f4532cb4b6b52122926d34c485086995d4f4c76cc",
    ("table complementary_bell --max-n 6", "json"): "91998284870ee5b080dc45070df0755cdc0a19bab98b705cf4ea6d219be7efdb",
    ("table complementary_bell --max-n 6", "csv"): "80fdb96277b7c763c636eeee45536b7a8ce5b6445f3941604392b5ef72f66809",
    ("table ordered_bell --max-n 6", "text"): "6a7f8e84ab57ee78bb62baf38be118e96a45d49cdc46046977acc74eb1aafa1c",
    ("table ordered_bell --max-n 6", "json"): "522754050ec3231069529b193c70beac3c7631b1952d628c9f1397a839903739",
    ("table ordered_bell --max-n 6", "csv"): "6c2791afe26b9201da86f26bd8e6852c02480017c8e9f4bd6662c2dab02e8c2e",
    ("table r_ordered_bell --max-n 6", "text"): "ed4acfdb43178b231bb706ce639a779595c2e78d71ffb648e66e2072a9768686",
    ("table r_ordered_bell --max-n 6", "json"): "a2a58a7433c5897ed8d5d156ea1008f8e8cc176af6ed2174871d5bc775abd0e0",
    ("table r_ordered_bell --max-n 6", "csv"): "f00fcfa48a1a69044f7df22a593fc682e8997e8806d598062ab025e6e45a4cde",
    ("table r_ordered_bell --max-n 6 --r 2", "text"): "e630cb9fca99f0d612a9dc91aa1979dfc63c539f8da80d6f56c58712d59e9f19",
    ("table r_ordered_bell --max-n 6 --r 2", "json"): "4c2350442d7c3f4a13515943afc5f2a4913c665cb76c429277264ae258a81ddc",
    ("table r_ordered_bell --max-n 6 --r 2", "csv"): "d50651f6ca4a565c069d66e9b38711834b39686d3dd75590a9bf4ce63ef1cc0a",
    ("table r_ordered_bell --n 5", "text"): "d5dfc590c25c47c7e59ebd7e104c20126e5df237b1bb333c435e6aed35c9147f",
    ("table r_ordered_bell --n 5", "json"): "2b95a6da289789653d4901226b8b3a84d5260050dc29246557451d5013febf9f",
    ("table r_ordered_bell --n 5", "csv"): "ccd451b46c30a78eff85f8cb5ab4b545fdf6073d9f6917bc6ed5f1bea76e472d",
    ("table truncated_ordered_bell --max-n 6", "text"): "af94e22ea59788f87f50c039d3fc4fecb65f1660a7fc702499ec0ebcd5c90fd0",
    ("table truncated_ordered_bell --max-n 6", "json"): "93131c099c3f15041b9e487faa96ff7434fb1826039ff55b5f47465df247d9da",
    ("table truncated_ordered_bell --max-n 6", "csv"): "da5c429debbc7e781f769d003bf4412e01454f7575e5c1db0654993f9b16b249",
    ("table truncated_ordered_bell --n 5", "text"): "ce2cc40b7beea467c1fc4601d10f7d728a5102c658f40ba3fc73d13010155292",
    ("table truncated_ordered_bell --n 5", "json"): "8465b46b83d851211f272fb0f9655f5f8f357314ae0b2194770411d1b397a33b",
    ("table truncated_ordered_bell --n 5", "csv"): "8f0ab26384e201612154d8a8e6813bb6bdf81a9ff4e15451c8099b9fb863e0bf",
    ("table deranged_bell --max-n 6", "text"): "08f930a976e897f51270bbf9bc9dc5eac4a3c8e5a4071e974f9b327c94e3c615",
    ("table deranged_bell --max-n 6", "json"): "6e1133562f6e9dd8b37b9c9fae5d6a8aff537ba99560bf2ce927073845690ed7",
    ("table deranged_bell --max-n 6", "csv"): "584330ab104756f1c705239396ace35fcbd12143a956b14971dced8c706a17c6",
    ("table pdb --max-n 6", "text"): "c4e7970d63139a1fa91e41ad30cc15a97ccba104d0b7366a990951107484e9e1",
    ("table pdb --max-n 6", "json"): "189ec297f55cdc0f35d486bf191af64b0544729633605235337a21c14d802dc0",
    ("table pdb --max-n 6", "csv"): "4678e265ab5b4319d35bdbc6d86bf12711c2907329c5ee712e313d2ed4f3a9e3",
    ("table pdb --n 5", "text"): "5f1770c59efeff3940470f14dd5e9e21171be80ddb7b68c4eba1da1835ddc664",
    ("table pdb --n 5", "json"): "8df74c629e1d7fd1e93c5830d033bad2a681eb25581d53689ab8cfb1aacbec76",
    ("table pdb --n 5", "csv"): "7e452860d321eefe02526190879fbe9f00de21ada86fa7a7a5e52574356ba3b7",
    ("table pdb_poly --max-n 6", "text"): "f9e874f973f41411a7373d8f3e6d28261f1cdd9d5f52da41ae8adf1654d0cbaa",
    ("table pdb_poly --max-n 6", "json"): "ef6a2e09180904a5f2e2ef495a6e9fd4e313787573aec2ca37533422144eb0c5",
    ("table pdb_poly --max-n 6", "csv"): "a8d93445f4896ef16f76aafab284405c792d9f7a5acb95dbe3e3e24f5b81d8da",
    ("table pdb_poly --n 5", "text"): "58d7acf647cacc9d8eeddbfa3d7ab534f99914da3631976709597c23bfa66154",
    ("table pdb_poly --n 5", "json"): "d3100e025578cc175b4efd4e65259a93a16eb81125895942fcc95f9d26cb4628",
    ("table pdb_poly --n 5", "csv"): "465211d46f278ee1c907f47fe0194cf4bbafa05013d4564c1ef226064948b93a",
    ("table bernoulli --max-n 6", "text"): "56f282f1cd47eeea165159b3bb7f9cae4d9d315b0ea47422b5cd7a69f133738d",
    ("table bernoulli --max-n 6", "json"): "75cb3322ac923b2a7dac98d4ad561694b401dd2d02315f988d0e309c3b6bc373",
    ("table bernoulli --max-n 6", "csv"): "4e29d2bffc0736469839efafec727e8354673a9408d6439d1973bcd1bd30a4bb",
    ("table higher_bernoulli --max-n 6", "text"): "3bb061290e46aa022a132d5d4899cdaf49b8c81726cfcc72a1487825c96cbf5c",
    ("table higher_bernoulli --max-n 6", "json"): "d3b9e8f3d0bf616d89a85480079b58dc02103914b108c8c81d8fdc146431cde0",
    ("table higher_bernoulli --max-n 6", "csv"): "5d86fafae40d65e4ce50a1803f166da55d75f3d684049f764161c7532bc417de",
    ("table higher_bernoulli --max-n 6 --r 2", "text"): "5a67ba6f1f9cb5049408461914061821c900a3384e8b3ff7884fd5cf49fff778",
    ("table higher_bernoulli --max-n 6 --r 2", "json"): "d478a15e7432c76faf1a6c5be24d777dc2a604dee5c0d168cc239432d13002df",
    ("table higher_bernoulli --max-n 6 --r 2", "csv"): "cc87d7f24979ad02e721d6697807d1c71c7489f858d38cd0c3686dcbd170c830",
    ("table r_ordered_bell --n 3 --max-r 4", "text"): "e2d7826d7fe31290ae1a88dc96f117b26616fad2be334deec23d459ed81698e6",
    ("table r_ordered_bell --n 3 --max-r 4", "json"): "a129f434c14e20f2df7a8ed8324a87d631697a6a1ebee3dbf54416e950fec5f9",
    ("table r_ordered_bell --n 3 --max-r 4", "csv"): "9dd9a58d8dce200f230cec8b566b1291d86880778153798506279d0906a19d77",
    ("egf partial_derangement --order 8", "text"): "8926f8a166802950ce1208b90056dd8858e2bcac85cdab8ae9005deda8776840",
    ("egf partial_derangement --order 8", "json"): "56669468330f97971b8b29efe0aa4be4ea702011bb01d61d5e2ae2a31c327d3d",
    ("egf partial_derangement --order 8", "csv"): "8239dcfb9d96275fb10bdd5687740d5af604d4547d6e6c5648ad12f9adf8c7a2",
    ("egf partial_derangement --order 8 --r 2", "text"): "ad7e3a413eb974433e40d9c09b48ffd618a796cd8f5aa120c0daf00d2cc58998",
    ("egf partial_derangement --order 8 --r 2", "json"): "034d9e8f1891072998e87a8ac7b888673d47283d32411d096e137ae6d6bace67",
    ("egf partial_derangement --order 8 --r 2", "csv"): "51cc394d994175ee31cd475f612cd11bb4d08e51f4822f5b0c0e0a7f787e891b",
    ("egf ordered_bell --order 8", "text"): "8578ea581ccd422cfc9859c23e2905129903cf904d9d18cef23a143ac6a3427d",
    ("egf ordered_bell --order 8", "json"): "d5965b25a53a66af41a9a883e193ce2c1084580f73ab899df8d2b15d500894af",
    ("egf ordered_bell --order 8", "csv"): "d13007d7420fa948e434daa52adb068254cf466e7ac97d98ffe05787fef2024d",
    ("egf deranged_bell --order 8", "text"): "e37d98ce6bf32fe3005ffa0c0362cc50ba362f521619824c6433080a88decc85",
    ("egf deranged_bell --order 8", "json"): "041f4fb5539e5b4e92bb879d21c7e79c2e33c1b578e50955bad293ba23b18f84",
    ("egf deranged_bell --order 8", "csv"): "2a7071532e2b4f715d716347d3fab1f3a830ac3cde02b22d53f8338989b6552a",
    ("egf stirling_column --order 8", "text"): "b5cac9861636c8f3e935b1b53c3b82402df16151073dfc314b33d61c08a612be",
    ("egf stirling_column --order 8", "json"): "ed4f9f0747adc887f5fdabe467e9db6540e159b3fb772a149d4f2b18d1e96183",
    ("egf stirling_column --order 8", "csv"): "38c6d4a6412179454a7f6d7dcbafd0a0c16dae4f2bd094954ae82e0f2909cc05",
    ("egf stirling_column --order 8 --r 2", "text"): "0e34ad2eef34fc3bfae7f2ad0ff986521684da6133e146061c3a4109a79dd81b",
    ("egf stirling_column --order 8 --r 2", "json"): "ea69f5aa9830707e69789f139c51f8f1c9c5ea97283876f75aee0f6fb0e91488",
    ("egf stirling_column --order 8 --r 2", "csv"): "884f0c1fd12fc223ec89bd0d1f15aec238d4883e1479ee0f09b84a3f69a4d000",
    ("egf higher_bernoulli --order 8", "text"): "12c3044a560c2b43b608a72a55215b6fa95c1556bddd6e16e1b3d85f5d3e1ceb",
    ("egf higher_bernoulli --order 8", "json"): "7db47aa1dc570974e9621e465c7cd32300538681c0ce26424097b4ee424ca870",
    ("egf higher_bernoulli --order 8", "csv"): "c287078bdcb7fc92c1a4dda7c56b0e5f4ed94848717e2fcb9204926e8f54edad",
    ("egf higher_bernoulli --order 8 --r 2", "text"): "bdf65f0c8fb5591b38639987a7c0fdd4b11189dc2239ca3ed585249f385ffd78",
    ("egf higher_bernoulli --order 8 --r 2", "json"): "71aca92e390ab0dcbd3f5b2ba7ce39a9a1176cb881869b637d3fce9fde07b6fa",
    ("egf higher_bernoulli --order 8 --r 2", "csv"): "1be4a8c0ec9699f091cf829fee130f50996af8e74b6995961972f651cfa34038",
    ("egf pdb --order 8", "text"): "d50c5bcc394c2f22299b64375dbb4e65193fdbe69da310a70fbfcf7158cd2a32",
    ("egf pdb --order 8", "json"): "041f4fb5539e5b4e92bb879d21c7e79c2e33c1b578e50955bad293ba23b18f84",
    ("egf pdb --order 8", "csv"): "2a7071532e2b4f715d716347d3fab1f3a830ac3cde02b22d53f8338989b6552a",
    ("egf pdb --order 8 --r 2", "text"): "8f0a370e7dbbda60647e0efd989e7610436ec28f6423d3fb0d6c2ab81920b246",
    ("egf pdb --order 8 --r 2", "json"): "6f219866c031abd2a1bec79d2c19dbbd081c8261ea689eaad2215ec54b375023",
    ("egf pdb --order 8 --r 2", "csv"): "24060765cbf0245d3644250d37c26b3e2c8e11d2674ec7fc50c970f0f03db12a",
}


@pytest.mark.parametrize("argv, fmt", sorted(GOLDEN_FAMILY_SHA256))
def test_golden_family_output(capsys, argv, fmt):
    code, out, _ = run_cli(capsys, *argv.split(), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_FAMILY_SHA256[argv, fmt]


# ----------------------------------------------------------------------
# streamed tables: each format as its generic encoder writes it, row by row


def _csv_rewritten(text):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    return buf.getvalue()


TABLE_MODES = [
    (family, mode)
    for family, spec in cli._TABLES.items()
    for mode in [
        *(("--max-n", str(n)) for n in (0, 1, 7)),
        *((("--n", "0"), ("--n", "7")) if spec.row else ()),
    ]
]


@pytest.mark.parametrize("family, mode", TABLE_MODES)
def test_streamed_table_formats_match_generic_encoders(capsys, family, mode):
    argv = ["table", family, *mode]
    outs = {}
    for fmt in ("text", "json", "csv"):
        code, outs[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
    doc = json.loads(outs["json"])
    assert canonical_json(doc) == outs["json"]
    assert _csv_rewritten(outs["csv"]) == outs["csv"]
    # The three formats carry the same cells in the same order.
    results = doc["results"]
    assert list(csv.reader(io.StringIO(outs["csv"]))) == [["family", "n", "k", "value"]] + [
        [r["family"], str(r["n"]), str(r.get("k", "")), r["value"]] for r in results
    ]
    by_n = {}
    for r in results:
        by_n.setdefault(r["n"], []).append(r["value"])
    sep = " | " if family == "pdb_poly" else " "
    assert outs["text"].splitlines() == [f"table {family}"] + [
        f"n={n}: {sep.join(values)}" for n, values in by_n.items()
    ]


def test_empty_table_prints_canonical_empty_results(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_table_rows", lambda cfg: [])
    code, out, _ = run_cli(capsys, "table", "pdb", "--max-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == []
    assert out == canonical_json(doc)
    assert '\n  "results": []\n}\n' in out
    assert run_cli(capsys, "table", "pdb", "--max-n", "3", "--format", "csv")[1] == (
        "family,n,k,value\n"
    )
    assert run_cli(capsys, "table", "pdb", "--max-n", "3")[1] == "table pdb\n"


def test_table_cells_needing_quotes_match_generic_encoders(capsys, monkeypatch):
    odd = ['a,"b', "c\nd", "e\rf", 'g"', "h,", "é"]
    monkeypatch.setattr(seq, "stirling2_row", lambda n: [n, *odd[: n + 1]])
    monkeypatch.setattr(
        seq, "stirling2_rows", lambda m, first: map(seq.stirling2_row, range(first, m + 1))
    )
    monkeypatch.setattr(seq, "bell", lambda n: odd[n])
    for family, max_n in (("stirling2", 5), ("bell", 5)):
        ns = range(max_n + 1)
        rows = list(zip(ns, cli._TABLES[family].kernel(None, ns), strict=True))
        argv = ["table", family, "--max-n", str(max_n)]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "n", "k", "value"])
        for n, cells in rows:
            if isinstance(cells, list):
                writer.writerows([family, n, k, v] for k, v in enumerate(cells))
            else:
                writer.writerow([family, n, "", cells])
        assert out == buf.getvalue()
        assert '"a,""b"' in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert out == canonical_json(json.loads(out))
        assert "\\u00e9" in out


class _LoggedWrites(io.StringIO):
    """A text stream that logs every write into a shared event list."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def write(self, text):
        self.events.append(("write", text))
        return super().write(text)


ROW_MARKERS = {"text": "n={n}: ", "json": '"n": {n},', "csv": "pdb,{n},"}


@pytest.mark.parametrize("fmt", sorted(ROW_MARKERS))
def test_table_rows_are_written_before_the_next_is_made(capsys, monkeypatch, tmp_path, fmt):
    events = []
    table_rows = cli._table_rows

    def logged_rows(cfg):
        for n, cells in table_rows(cfg):
            events.append(("row", n))
            yield n, cells

    def assert_streamed():
        rows = [i for i, (kind, _) in enumerate(events) if kind == "row"]
        assert [events[i][1] for i in rows] == list(range(5))
        for i in rows:
            kind, text = events[i + 1]
            assert kind == "write"
            assert ROW_MARKERS[fmt].format(n=events[i][1]) in text

    monkeypatch.setattr(cli, "_table_rows", logged_rows)
    argv = ["table", "pdb", "--max-n", "4", "--format", fmt]
    stdout = _LoggedWrites(events)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert_streamed()

    events.clear()
    files = []

    def logged_open(path, mode, encoding):
        files.append(_LoggedWrites(events))
        files[-1].close = lambda: None
        return files[-1]

    monkeypatch.setattr(cli, "open", logged_open, raising=False)
    assert main([*argv, "--out", str(tmp_path / "table.out")]) == 0
    assert_streamed()
    assert files[0].getvalue() == stdout.getvalue()


def _table_writes(monkeypatch, *argv):
    events = []
    monkeypatch.setattr(sys, "stdout", _LoggedWrites(events))
    assert main(["table", *argv]) == 0
    return [text for _, text in events]


@pytest.mark.parametrize("fmt", sorted(ROW_MARKERS))
def test_a_long_row_is_cut_into_writes_of_at_most_a_chunk_and_a_cell(monkeypatch, fmt):
    # The row of pdb_poly --n 120 is about 1.2 MB of text in every format.
    writes = _table_writes(monkeypatch, "pdb_poly", "--n", "120", "--format", fmt)
    cell = max(len(str(p)) for p in next(poly.pdb_poly_rows(120, 120))) + 100
    assert len("".join(writes)) > 1_000_000
    assert len(writes) > 1_000_000 // (cli._CHUNK + cell)
    assert max(map(len, writes)) <= cli._CHUNK + cell


@pytest.mark.parametrize("fmt", sorted(ROW_MARKERS))
def test_a_small_table_makes_one_write_per_row(monkeypatch, fmt):
    writes = _table_writes(monkeypatch, "pdb", "--max-n", "4", "--format", fmt)
    for n in range(5):
        assert ROW_MARKERS[fmt].format(n=n) in writes[n]
    # The header rides with row 0; JSON closes its results list in a last write.
    assert writes[5:] == (["\n  ]\n}\n"] if fmt == "json" else [])


@pytest.mark.parametrize("fmt", sorted(ROW_MARKERS))
def test_out_file_gets_the_bytes_of_stdout(capsys, tmp_path, fmt):
    target = tmp_path / "table.out"
    argv = ["table", "pdb_poly", "--max-n", "5", "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, quiet, _ = run_cli(capsys, *argv, "--out", str(target))
    assert (code, quiet) == (0, "")
    assert target.read_bytes() == out.encode("ascii")


# Runs main in a child and prints the child's own peak RSS in MB at exit.
# The spawner's RUSAGE_CHILDREN cannot serve: Linux carries the spawning
# process's peak across exec, and a pytest process is larger than the bound.
_PEAK_RSS_CHILD = """
import sys
from pdbell.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(int(peak.split()[1]) // 1024)
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("fmt", sorted(ROW_MARKERS))
def test_pdb_poly_row_holds_no_copies_of_itself(tmp_path, fmt):
    # Written in writes of about 64 KiB, this row of 351 polynomials peaks at
    # about 34 MB in every format.  A copy of the row as strings took it to
    # 75 MB as text, and that copy joined into one string to 174 MB as JSON.
    argv = ["table", "pdb_poly", "--n", "350", "--format", fmt, "--out", str(tmp_path / "row")]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64


# ----------------------------------------------------------------------
# egf


def test_egf_deranged_bell(capsys):
    code, out, _ = run_cli(capsys, "egf", "deranged_bell", "--order", "5")
    assert code == 0
    values = [line.rsplit("=", 1)[1] for line in out.splitlines()[1:]]
    assert values == ["1", "0", "1", "5", "28", "199"]


def test_egf_ordered_bell(capsys):
    code, out, _ = run_cli(capsys, "egf", "ordered_bell", "--order", "3")
    assert code == 0
    values = [line.rsplit("=", 1)[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "3", "13"]


def test_egf_pdb_with_parameter(capsys):
    code, out, _ = run_cli(capsys, "egf", "pdb", "--r", "1", "--order", "3")
    assert code == 0
    assert out.splitlines()[-1].endswith("n!*c_n=4")  # pdb_number(3, 1)


def test_egf_higher_bernoulli_defaults_to_first_order(capsys):
    code, out, _ = run_cli(
        capsys, "egf", "higher_bernoulli", "--order", "2", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "n,c_n,n_factorial_c_n\n"
        "0,1,1\n"
        "1,-1/2,-1/2\n"
        "2,1/12,1/6\n"
    )


def test_egf_order_cap(capsys):
    code, out, err = run_cli(capsys, "egf", "deranged_bell", "--order", "257")
    assert code == 3
    assert out == ""
    assert "resource cap" in err


@pytest.mark.parametrize(
    "family", ["partial_derangement", "stirling_column", "higher_bernoulli", "pdb"]
)
def test_egf_parameter_cap(capsys, monkeypatch, family):
    built = []
    monkeypatch.setattr(ser, "egf_family", lambda *args: built.append(args))
    monkeypatch.setattr(ser, "egf_pdb", lambda *args: built.append(args))
    for r in ("257", "3000000"):
        start = time.process_time()
        code, out, err = run_cli(capsys, "egf", family, "--r", r, "--order", "4")
        assert time.process_time() - start < 1
        assert code == 3
        assert out == ""
        assert err.startswith(f"resource cap: egf {family} --r is limited to 256; ")
    assert built == []  # refused before any series is built
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "egf", family, "--r", "256", "--order", "4")
    assert code == 0


def test_egf_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "egf", "stirling_column", "--r", "2", "--order", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert canonical_json(doc) == out
    # n! c_n recovers the k = 2 Stirling column.
    assert [row["n_factorial_c_n"] for row in doc["results"]] == [
        "0", "0", "1", "3", "7", "15", "31",
    ]


# ----------------------------------------------------------------------
# the three formats of the check, oracle and egf reports


def _report_forms(render):
    """The JSON document, the CSV rows read back and the text lines of a
    report, given ``render(fmt)`` for each format."""
    outs = {fmt: render(fmt) for fmt in ("text", "json", "csv")}
    doc = json.loads(outs["json"])
    assert canonical_json(doc) == outs["json"]
    assert _csv_rewritten(outs["csv"]) == outs["csv"]
    return doc, list(csv.reader(io.StringIO(outs["csv"]))), outs["text"].splitlines()


def test_check_report_formats_agree(monkeypatch):
    def broken(n):
        raise ValueError(f'deranged_bell({n}): no, "not" today')

    monkeypatch.setattr(seq, "deranged_bell", broken)
    ids = ["thm_2_3", "remark_2_8_printed", "thm_2_9", "eq_14_printed"]
    report = checks.run_all(SuiteConfig(max_n=6, max_r=2, max_m=2, oracle_cap=5), ids)
    doc, rows, lines = _report_forms(
        lambda fmt: cli._render_check(report, cli.RunConfig("check", fmt=fmt))
    )
    results = doc["results"]
    assert [r["status"] for r in results] == [
        "error", "known-failing-as-printed", "pass", "known-failing-as-printed"
    ]
    expected_rows = [["id", "status", "bounds", "witness_params", "lhs", "rhs", "ms", "error"]]
    expected_lines = []
    for r in results:
        bounds = [f"{k}={v}" for k, v in sorted(r["bounds"].items())]
        w = r.get("witness", {"params": {}, "lhs": "", "rhs": ""})
        params = [f"{k}={v}" for k, v in w["params"].items()]
        expected_rows.append(
            [
                r["id"],
                r["status"],
                ";".join(bounds),
                ";".join(params),
                w["lhs"],
                w["rhs"],
                str(r["ms"]),
                r.get("error", ""),
            ]
        )
        suffix = f" ({', '.join(bounds)})" if bounds else ""
        expected_lines.append(f"check {r['id']}: {r['status']}{suffix} [{r['ms']} ms]")
        if "witness" in r:
            expected_lines.append(f"  witness {' '.join(params)}: lhs={w['lhs']} rhs={w['rhs']}")
        if "error" in r:
            expected_lines.append(f"  error: {r['error']}")
    assert rows == expected_rows
    assert lines[:-1] == expected_lines
    assert lines[-1] == "overall: fail (4 checks: 1 error, 2 known-failing-as-printed, 1 pass)"
    # A comma and a double quote in an error message survive the CSV round trip.
    assert rows[1][7] == results[0]["error"] == 'ValueError: deranged_bell(0): no, "not" today'


def test_oracle_report_formats_agree(capsys):
    doc, rows, lines = _report_forms(
        lambda fmt: run_cli(capsys, "oracle", "--max-n", "5", "--format", fmt)[1]
    )
    results = doc["results"]
    assert [(c["n"], c["kind"]) for c in results[:2]] == [(0, "pdb_row"), (0, "stirling2")]
    assert all(c["equal"] == (c["formula"] == c["brute"]) for c in results)
    assert rows == [["n", "kind", "index", "formula", "brute", "equal"]] + [
        [str(c["n"]), c["kind"], str(i), f, b, str(f == b).lower()]
        for c in results
        for i, (f, b) in enumerate(zip(c["formula"], c["brute"], strict=True))
    ]
    assert lines == ["oracle comparison up to n=5"] + [
        f"n={c['n']} {c['kind']}: formula {' '.join(c['formula'])} | "
        f"brute {' '.join(c['brute'])} | ok"
        for c in results
    ] + ["all cells equal"]


@pytest.mark.parametrize(
    "family, flags",
    [("deranged_bell", ()), ("higher_bernoulli", ("--r", "3")), ("pdb", ("--r", "2"))],
)
def test_egf_report_formats_agree(capsys, family, flags):
    doc, rows, lines = _report_forms(
        lambda fmt: run_cli(capsys, "egf", family, *flags, "--order", "12", "--format", fmt)[1]
    )
    results = doc["results"]
    assert [r["n"] for r in results] == list(range(13))
    assert rows == [["n", "c_n", "n_factorial_c_n"]] + [
        [str(r["n"]), r["c_n"], r["n_factorial_c_n"]] for r in results
    ]
    assert lines == [f"egf {family} order 12"] + [
        f"n={r['n']}: c_n={r['c_n']} n!*c_n={r['n_factorial_c_n']}" for r in results
    ]


# ----------------------------------------------------------------------
# per-subcommand flags

POSITIONAL = {"table": ["bell"], "egf": ["deranged_bell"]}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", "--n"),
        ("check", "--r"),
        ("table", "--order"),
        ("table", "--tol"),
        ("table", "--oracle-cap"),
        ("oracle", "--max-r"),
        ("oracle", "--n"),
        ("oracle", "--r"),
        ("oracle", "--order"),
        ("oracle", "--tol"),
        ("oracle", "--oracle-cap"),
        ("egf", "--max-n"),
        ("egf", "--max-r"),
        ("egf", "--n"),
        ("egf", "--tol"),
        ("egf", "--oracle-cap"),
        # a flag the subcommand takes but the family, or its mode, does not read
        ("table bell", "--n"),
        ("table pdb --n 3", "--r"),
        ("table pdb --n 3", "--max-r"),
        ("table pdb --n 3", "--max-n"),
        ("table stirling2 --max-n 2", "--r"),
        ("table r_ordered_bell --max-n 2", "--max-r"),
        ("egf ordered_bell", "--r"),
    ],
)
def test_subcommand_refuses_flags_it_does_not_read(capsys, command, flag):
    value = "1e-9" if flag == "--tol" else "1"
    argv = command.split() + POSITIONAL.get(command, [])
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv, max_n",
    [
        (["table", "bell", "--max-n", "2"], 2),
        (["oracle", "--max-n", "2"], 2),
        (["oracle"], 6),
        (["egf", "deranged_bell", "--order", "2"], 10),
    ],
)
def test_json_config_echo_keeps_defaults_of_dropped_flags(capsys, argv, max_n):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert config == {
        "format": "json",
        "max_n": max_n,
        "max_r": 8,
        "n": None,
        "order": 2 if argv[0] == "egf" else 24,
        "oracle_cap": 8,
        "r": None,
    }


# ----------------------------------------------------------------------
# output redirection and process entry


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys, "table", "pdb", "--max-n", "1", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == (
        "family,n,k,value\npdb,0,0,1\npdb,1,0,0\npdb,1,1,1\n"
    )


def test_out_flag_preserves_exit_code(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys,
        "check", "thm_2_10_b", "--tol", "1e-300", "--max-n", "4", "--out", str(target),
    )
    assert code == 4
    assert out == ""
    assert "inconclusive" in target.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [["table", "pdb", "--max-n", "3"], ["check", "thm_2_4"]])
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_unwritable_out_is_a_usage_error_with_nothing_run(capsys, monkeypatch, tmp_path, argv, where):
    def not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(checks, "run_all", not_run)
    monkeypatch.setattr(cli, "_table_rows", not_run)
    target = str(tmp_path / where)
    code, out, err = run_cli(capsys, *argv, "--out", target)
    assert (code, out) == (2, "")
    reason = "No such file or directory" if where != "." else "Is a directory"
    assert err == f"pdbell: cannot write --out {target}: {reason}\n"


def test_a_closed_stdout_pipe_ends_quietly_with_exit_1():
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdbell", "table", "stirling2", "--max-n", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"table stirling2\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_module_execution_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "pdbell", "table", "bell", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "table bell\nn=0: 1\nn=1: 1\nn=2: 2\nn=3: 5\n"


def test_library_value_error_is_not_a_usage_error(monkeypatch):
    def broken(n):
        raise ValueError("kernel fault")

    monkeypatch.setattr(seq, "bell", broken)
    with pytest.raises(ValueError, match="kernel fault"):
        main(["table", "bell", "--max-n", "2"])


def test_main_returns_int_for_help():
    # argparse exits 0 for --help; main converts that to a return value.
    assert main(["--help"]) == 0
