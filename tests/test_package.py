"""The package's public names, its records, and what importing it loads."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pdbell
from pdbell import checks, cli, oracle
from pdbell import polynomials as poly
from pdbell import series as ser
from pdbell.bernoulli import bernoulli as bernoulli_number, higher_bernoulli
from pdbell.checks import Status

SUBMODULES = ("bernoulli", "checks", "cli", "oracle", "polynomials", "sequences", "series")


@pytest.mark.parametrize("module_name", ("pdbell", *(f"pdbell.{m}" for m in SUBMODULES)))
def test_every_exported_name_resolves(module_name):
    # pdbell.bernoulli is the function, so submodules are imported by full name.
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


LAYERS = ("sequences", "polynomials", "bernoulli", "series", "oracle", "checks")


def test_package_exports_every_layer_name():
    layers = {m: importlib.import_module(f"pdbell.{m}") for m in LAYERS}
    expected = ["__version__", *(name for m in LAYERS for name in layers[m].__all__)]
    assert pdbell.__all__ == expected
    assert len(set(expected)) == len(expected)
    for m, module in layers.items():
        for name in module.__all__:
            assert getattr(pdbell, name) is getattr(module, name), (m, name)
    assert pdbell.bernoulli is layers["bernoulli"].bernoulli
    assert pdbell.pdb_rows is layers["sequences"].pdb_rows


def enumerate_partitions(*args):
    """oracle.enumerate_partitions run to its end: as a generator, it checks
    its arguments on the first next()."""
    return list(oracle.enumerate_partitions(*args))


P = poly.IntPolynomial([1, 2])
S = ser.TruncatedSeries.one(3)
INDEX_ENTRY_POINTS = [
    ("k", P.coeff, (-1,)),
    ("r", P.times_y_power, (-1,)),
    ("n", poly.exponential_poly, (-1,)),
    ("n", poly.r_exponential_poly, (-1, 0)),
    ("r", poly.r_exponential_poly, (0, -1)),
    ("n", poly.geometric_poly, (-1,)),
    ("n", poly.pdb_poly, (-1, 0)),
    ("r", poly.pdb_poly, (0, -1)),
    ("max_n", poly.pdb_poly_rows, (-1,)),
    ("first", poly.pdb_poly_rows, (3, -1)),
    ("n", higher_bernoulli, (-1, 1)),
    ("r", higher_bernoulli, (0, -1)),
    ("n", bernoulli_number, (-1,)),
    ("order", ser.TruncatedSeries, ([1], -1)),
    ("order", ser.TruncatedSeries.zero, (-1,)),
    ("order", ser.TruncatedSeries.one, (-1,)),
    ("order", ser.TruncatedSeries.t, (-1,)),
    ("order", ser.TruncatedSeries.from_constant, (1, -1)),
    ("n", S.coeff, (-1,)),
    ("n", S.egf_coeff, (-1,)),
    ("r", S.shift, (-1,)),
    ("k", S.pow, (-1,)),
    ("order", ser.expm1, (-1,)),
    ("r", ser.egf_pdb, (-1, 1, 3)),
    ("order", ser.egf_pdb, (0, 1, -1)),
    ("order", ser.bernoulli_base_series, (-1,)),
    ("order", ser.egf_family, ("ordered_bell", -1)),
    ("param", ser.egf_family, ("partial_derangement", 3, -1)),
    ("param", ser.egf_family, ("stirling_column", 3, -1)),
    ("param", ser.egf_family, ("higher_bernoulli", 3, -1)),
    ("n", enumerate_partitions, (-1,)),
    ("cap", enumerate_partitions, (3, -1)),
    ("n", oracle.brute_pdb_row, (-1,)),
    ("cap", oracle.brute_pdb_row, (3, -1)),
    ("n", oracle.brute_pdb, (-1, 0)),
    ("r", oracle.brute_pdb, (3, -1)),
    ("cap", oracle.brute_pdb, (3, 0, -1)),
    ("n", oracle.brute_partial_derangement, (-1, 0)),
    ("r", oracle.brute_partial_derangement, (3, -1)),
    ("cap", oracle.brute_partial_derangement, (3, 0, -1)),
    ("n", oracle.brute_stirling2, (-1, 0)),
    ("k", oracle.brute_stirling2, (3, -1)),
    ("cap", oracle.brute_stirling2, (3, 0, -1)),
    ("n", oracle.brute_bell, (-1,)),
    ("cap", oracle.brute_bell, (3, -1)),
    ("n", oracle.brute_complementary_bell, (-1,)),
    ("cap", oracle.brute_complementary_bell, (3, -1)),
    ("n", oracle.brute_ordered_bell, (-1,)),
    ("cap", oracle.brute_ordered_bell, (3, -1)),
]


@pytest.mark.parametrize(
    "name, fn, args",
    INDEX_ENTRY_POINTS,
    ids=[
        f"{fn.__qualname__}-{args[0]}-{name}"
        if fn is ser.egf_family
        else f"{fn.__qualname__}-{name}"
        for name, fn, args in INDEX_ENTRY_POINTS
    ],
)
def test_a_negative_index_reads_the_same_in_every_layer(name, fn, args):
    # Every layer checks its indices with sequences._require_nonnegative, the
    # oracle its cap too: a negative cap is a ValueError, not a
    # CapExceededError (a RuntimeError).
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
        fn(*args)


def test_cli_start_up_imports_no_dataclasses():
    # -S keeps the interpreter's site hooks out: only pdbell's imports count.
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    code = f"import sys, pdbell.cli; print(*sorted({heavy!r} & set(sys.modules)))"
    src = str(Path(pdbell.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == []


_WITNESS = checks.Witness({"n": 3}, "1", "2")
_REPORT = checks.CheckReport("thm_2_3", Status.FAIL, {"n": "0..3"}, 7, _WITNESS, "boom")

# Each record: its fields in constructor order, a value for each field that
# differs from its default, and the defaults of the trailing fields.
RECORDS = {
    "Witness": (checks.Witness, ("params", "lhs", "rhs"), ({"n": 3}, "1", "2"), {}),
    "SuiteConfig": (
        checks.SuiteConfig,
        ("max_n", "max_r", "max_m", "oracle_cap", "series_order", "tolerance", "wilf_bound"),
        (3, 2, 1, 4, 5, Fraction(1, 10**6), 50),
        {
            "max_n": 20, "max_r": 8, "max_m": 8, "oracle_cap": 8,
            "series_order": 24, "tolerance": Fraction(1, 10**9), "wilf_bound": 200,
        },
    ),
    "CheckReport": (
        checks.CheckReport,
        ("check_id", "status", "bounds", "ms", "witness", "error", "points"),
        ("thm_2_3", Status.FAIL, {"n": "0..3"}, 7, _WITNESS, "boom", 12),
        {"witness": None, "error": None, "points": 0},
    ),
    "SuiteReport": (
        checks.SuiteReport,
        ("results", "config"),
        ((_REPORT,), checks.SuiteConfig(max_n=3)),
        {},
    ),
    "_CheckDef": (
        checks._CheckDef,
        ("check_id", "summary", "grids", "compare", "show", "known_failing", "corrected_id"),
        ("c", "a check", len, max, repr, True, "c_fixed"),
        {"show": str, "known_failing": False, "corrected_id": None},
    ),
    "PartitionRGS": (oracle.PartitionRGS, ("rgs",), ((0, 1, 0),), {}),
    "RunConfig": (
        cli.RunConfig,
        (
            "command", "max_n", "max_r", "n", "r", "order", "tolerance",
            "fmt", "out", "oracle_cap", "family", "ids",
        ),
        ("table", 5, 4, 3, 2, 16, Fraction(1, 10), "json", "t.out", 6, "pdb", ("thm_2_3",)),
        {
            "max_n": 10, "max_r": 8, "n": None, "r": None, "order": 24,
            "tolerance": Fraction(1, 10**9), "fmt": "text", "out": None,
            "oracle_cap": 8, "family": None, "ids": (),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    cls, fields, values, defaults = RECORDS[name]
    record = cls(*values)
    assert [getattr(record, f) for f in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == record
    required = values[: len(fields) - len(defaults)]
    assert {f: getattr(cls(*required), f) for f in defaults} == defaults
    if defaults:
        assert cls(*required) != record
    for attr, value in [*zip(fields, values), ("extra", 0)]:
        with pytest.raises(AttributeError):
            setattr(record, attr, value)


def test_record_repr_text():
    assert repr(checks.SuiteConfig()) == (
        "SuiteConfig(max_n=20, max_r=8, max_m=8, oracle_cap=8, series_order=24, "
        "tolerance=Fraction(1, 1000000000), wilf_bound=200)"
    )
    assert repr(cli.RunConfig("check")) == (
        "RunConfig(command='check', max_n=10, max_r=8, n=None, r=None, order=24, "
        "tolerance=Fraction(1, 1000000000), fmt='text', out=None, oracle_cap=8, "
        "family=None, ids=())"
    )


def test_validated_records_validate_a_changed_copy():
    with pytest.raises(ValueError, match="max_n must be a nonnegative integer, got -1"):
        checks.SuiteConfig()._replace(max_n=-1)
    with pytest.raises(ValueError, match=r"not a restricted growth string: \(1,\)"):
        oracle.PartitionRGS((0,))._replace(rgs=(1,))
