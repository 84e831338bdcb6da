"""Command-line interface: rendering, exit codes, and format contracts."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from pdbell import checks, cli
from pdbell.bernoulli import bernoulli
from pdbell.checks import CheckReport, Status, SuiteConfig, SuiteReport
from pdbell.cli import (
    FAMILY_TABLE_CAPS,
    MAX_TABLE_N,
    _check_exit_code,
    canonical_json,
    main,
)


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
    code, out, _ = run_cli(capsys, "table", "bell", "--max-n", "1001")
    assert code == 3
    assert "resource cap" in out


@pytest.mark.parametrize("family", sorted(FAMILY_TABLE_CAPS))
def test_table_family_caps(capsys, monkeypatch, family):
    table_cap, row_cap = FAMILY_TABLE_CAPS[family]
    assert table_cap < row_cap <= MAX_TABLE_N
    computed = []
    monkeypatch.setattr(cli, "_table_rows", lambda cfg: computed.append(cfg) or [])
    for flag, cap in (("--max-n", table_cap), ("--n", row_cap)):
        code, out, _ = run_cli(capsys, "table", family, flag, str(cap + 1))
        assert code == 3
        assert f"resource cap: table {family} {flag} is limited to {cap};" in out
        assert "60 s" in out
        assert computed == []  # refused before any work
    # The whole-table cap does not apply to a single row.
    for flag, n in (("--max-n", table_cap), ("--n", table_cap + 1), ("--n", row_cap)):
        code, _, _ = run_cli(capsys, "table", family, flag, str(n))
        assert code == 0
    assert len(computed) == 3


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
    code, out, _ = run_cli(capsys, "check", "--oracle-cap", "11")
    assert code == 3
    assert "102247563" in out


def test_check_inconclusive_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "check", "thm_2_10_b", "--tol", "1e-300", "--max-n", "4"
    )
    assert code == 4
    assert "inconclusive" in out


def test_check_bad_tolerances_are_usage_errors(capsys):
    for tol in ("0", "-1e-9", "abc"):
        code, _, _ = run_cli(capsys, "check", "--tol", tol)
        assert code == 2


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


# ----------------------------------------------------------------------
# oracle


def test_oracle_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "4")
    assert code == 0
    assert out.splitlines()[0] == "oracle comparison up to n=4"
    assert out.splitlines()[-1] == "all cells equal"
    assert "n=3 pdb_row: formula 5 4 3 1 | brute 5 4 3 1 | ok" in out


def test_oracle_resource_cap(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "11")
    assert code == 3
    assert "resource cap" in out


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
    code, out, _ = run_cli(capsys, "egf", "deranged_bell", "--order", "257")
    assert code == 3
    assert "resource cap" in out


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
    ],
)
def test_subcommand_refuses_flags_it_does_not_read(capsys, command, flag):
    value = "1e-9" if flag == "--tol" else "1"
    code, out, err = run_cli(capsys, command, *POSITIONAL.get(command, []), flag, value)
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


def test_module_execution_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "pdbell", "table", "bell", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "table bell\nn=0: 1\nn=1: 1\nn=2: 2\nn=3: 5\n"


def test_main_returns_int_for_help():
    # argparse exits 0 for --help; main converts that to a return value.
    assert main(["--help"]) == 0
