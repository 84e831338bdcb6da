"""Identity suite: registry shape, witnesses, statuses, and determinism."""

import hashlib
import importlib.util
import json
import math
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pdbell import checks, cli, oracle
from pdbell import polynomials as poly
from pdbell import sequences as seq
from pdbell import series as ser
from pdbell.bernoulli import bernoulli, higher_bernoulli
from pdbell.checks import Status, SuiteConfig

SMALL = SuiteConfig(max_n=8, max_r=3, max_m=3, oracle_cap=6)

EXPECTED_IDS = [
    "thm_2_3",
    "thm_2_4",
    "thm_2_7",
    "remark_2_8_printed",
    "remark_2_8_corrected",
    "thm_2_9",
    "thm_2_10_a",
    "thm_2_10_b",
    "thm_3_1",
    "cor_3_2_printed",
    "cor_3_2_corrected",
    "thm_3_3",
    "cor_3_4",
    "cor_3_5_a",
    "cor_3_5_b_printed",
    "cor_3_5_b",
    "prop_3_6_a",
    "prop_3_6_b",
    "cor_3_7",
    "cor_3_8",
    "cor_3_9",
    "thm_3_10",
    "cor_3_11",
    "egf_all",
    "oracle_all",
    "wilf_scan",
    "eq_14_printed",
    "eq_14_corrected",
    "eq_15",
    "r_ordered_bell_geometric",
]

KNOWN_FAILING = {
    "remark_2_8_printed": "remark_2_8_corrected",
    "cor_3_2_printed": "cor_3_2_corrected",
    "cor_3_5_b_printed": "cor_3_5_b",
    "eq_14_printed": "eq_14_corrected",
}


@pytest.fixture(scope="module")
def small_run():
    return checks.run_all(SMALL)


# ----------------------------------------------------------------------
# registry


def test_registry_order_and_contents():
    assert checks.registered_ids() == EXPECTED_IDS


def test_every_check_has_a_summary():
    for cid in checks.registered_ids():
        summary = checks.check_summary(cid)
        assert isinstance(summary, str) and summary


def test_known_failing_ids_and_pairing():
    assert checks.known_failing_ids() == list(KNOWN_FAILING)
    for printed, corrected in KNOWN_FAILING.items():
        assert checks.corrected_id_for(printed) == corrected
        assert corrected in EXPECTED_IDS
    for cid in EXPECTED_IDS:
        if cid not in KNOWN_FAILING:
            assert checks.corrected_id_for(cid) is None


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        checks.check("no_such_check", SMALL)
    with pytest.raises(ValueError):
        checks.check_summary("nope")
    with pytest.raises(ValueError):
        checks.run_all(SMALL, ids=["thm_2_3", "bogus"])


# ----------------------------------------------------------------------
# suite statuses


def test_overall_pass_with_exactly_four_known_failing(small_run):
    by_status = {}
    for rep in small_run.results:
        by_status.setdefault(rep.status, []).append(rep.check_id)
    assert small_run.overall == "pass"
    assert sorted(by_status[Status.KNOWN_FAILING]) == sorted(KNOWN_FAILING)
    assert Status.FAIL not in by_status
    assert Status.ERROR not in by_status
    assert Status.INCONCLUSIVE not in by_status
    assert len(by_status[Status.PASS]) == len(EXPECTED_IDS) - len(KNOWN_FAILING)


def test_results_keep_registry_order(small_run):
    assert [r.check_id for r in small_run.results] == EXPECTED_IDS


def test_pass_never_carries_witness_fail_always_does(small_run):
    for rep in small_run.results:
        if rep.status is Status.PASS:
            assert rep.witness is None
        if rep.status in (Status.FAIL, Status.KNOWN_FAILING):
            assert rep.witness is not None


def test_corrected_counterparts_pass(small_run):
    status = {r.check_id: r.status for r in small_run.results}
    for corrected in KNOWN_FAILING.values():
        assert status[corrected] is Status.PASS


def test_subset_selection_runs_in_registry_order():
    report = checks.run_all(SMALL, ids=["wilf_scan", "thm_2_3"])
    assert [r.check_id for r in report.results] == ["thm_2_3", "wilf_scan"]
    assert report.overall == "pass"


# ----------------------------------------------------------------------
# the four stated-form failures, with exact first witnesses


def test_remark_2_8_printed_witness(small_run):
    rep = next(r for r in small_run.results if r.check_id == "remark_2_8_printed")
    assert rep.status is Status.KNOWN_FAILING
    assert rep.witness.params == {"n": 3, "statement": 1}
    assert rep.witness.lhs == "-2"
    assert rep.witness.rhs == "0"


def test_remark_2_8_stated_forms_fail_beyond_the_witness():
    # The stated first form also fails at n = 0 and n = 2 (and happens to
    # hold at n = 1); the scan starts at n = 3, the first n where every
    # term of both statements is nonzero.
    def stated_gap(n):
        w1 = seq.pdb_number(n, 1)
        w2 = seq.pdb_number(n, 2)
        return w1 - 2 * w2, seq.complementary_bell(n + 1) - seq.complementary_bell(n)

    assert stated_gap(0) == (0, -2)
    assert stated_gap(2) == (-1, 1)
    lhs1, rhs1 = stated_gap(1)
    assert lhs1 == rhs1
    # Second stated form at the witness row: -1 against +1.
    assert seq.pdb_number(3, 0) - 2 * seq.pdb_number(3, 2) == -1
    assert seq.complementary_bell(4) == 1


def test_cor_3_2_printed_witness(small_run):
    rep = next(r for r in small_run.results if r.check_id == "cor_3_2_printed")
    assert rep.status is Status.KNOWN_FAILING
    assert rep.witness.params == {"n": 1, "m": 0, "r": 0, "j": 1}
    assert rep.witness.lhs == "0"
    assert rep.witness.rhs == "undefined: division by partial_derangement(1,0) = 0"


def test_cor_3_5_b_printed_witness(small_run):
    rep = next(r for r in small_run.results if r.check_id == "cor_3_5_b_printed")
    assert rep.status is Status.KNOWN_FAILING
    assert rep.witness.params == {"n": 2, "r": 3, "j": 2}
    assert rep.witness.lhs == "2"
    assert rep.witness.rhs == "1"


def test_eq_14_printed_witness(small_run):
    rep = next(r for r in small_run.results if r.check_id == "eq_14_printed")
    assert rep.status is Status.KNOWN_FAILING
    assert rep.witness.params == {"n": 0}
    assert rep.witness.lhs == "1"
    assert rep.witness.rhs == "y"


# ----------------------------------------------------------------------
# the grid primitive


def test_grid_walks_axes_in_order_and_renders_its_bounds():
    grid = checks.Grid(
        m=(0, 2), r=(0, "min(m,1)"), constraint="m+r<=2", notes={"cap": "x"}, params=("r", "m")
    )
    assert grid.bounds == {"m": "0..2", "r": "0..min(m,1)", "constraint": "m+r<=2", "cap": "x"}
    assert [(p["m"], p["r"]) for p in grid.points()] == [(0, 0), (1, 0), (1, 1), (2, 0)]
    witness = checks.scan(grid, lambda m, r: [({"part": 1}, m * r, 0)])
    assert list(witness.params.items()) == [("r", 1), ("m", 1), ("part", 1)]
    assert (witness.lhs, witness.rhs) == ("1", "0")

    helpers = checks.Grid(n=(0, 1), z=("-w", "w", "w=n+1"))
    assert helpers.bounds == {"n": "0..1", "z": "-w..w, w=n+1"}
    assert [p["z"] for p in helpers.points()] == [-1, 0, 1, -2, -1, 0, 1, 2]


def _reference_points(constraint=None, notes=None, params=None, **axes):
    """The points of Grid(**spec), by a nested walk that evaluates each end
    with eval() where the loop reaches it."""
    scope = {"__builtins__": {}, "min": min, "max": max}
    env = {}
    names = list(axes)

    def value(end):
        return end if isinstance(end, int) else eval(end, scope, env)

    def walk(depth):
        if depth == len(names):
            if constraint is None or value(constraint):
                yield {name: env[name] for name in names}
            return
        lo, hi, *defs = axes[names[depth]]
        for helper, _, expr in (d.partition("=") for d in defs):
            env[helper] = value(expr)
        for v in range(value(lo), value(hi) + 1):
            env[names[depth]] = v
            yield from walk(depth + 1)

    return list(walk(0))


@pytest.mark.parametrize(
    "cfg", [SMALL, SuiteConfig(), SuiteConfig(max_n=32)], ids=["small", "default", "max_n=32"]
)
def test_compiled_grid_points_equal_a_nested_walk(monkeypatch, cfg):
    specs = []
    grid_type = checks.Grid

    def recording_grid(**spec):
        specs.append(spec)
        return grid_type(**spec)

    monkeypatch.setattr(checks, "Grid", recording_grid)
    for defn in checks._REGISTRY.values():
        defn.grids(cfg)
    assert len(specs) == 32  # cor_3_8 and thm_3_10 scan two grids each
    for spec in specs:
        assert list(grid_type(**spec).points()) == _reference_points(**spec)


def test_grid_expressions_see_no_builtins():
    with pytest.raises(NameError):
        list(checks.Grid(n=(0, "abs(-1)")).points())
    with pytest.raises(NameError):
        list(checks.Grid(n=(0, 2), constraint="len([n])").points())


# ----------------------------------------------------------------------
# golden reports: the sha256 of the check JSON (``ms`` removed) and the
# known-failing witness lines of the default and the SMALL suite, so any
# change of bounds, witnesses or scan order shows


GOLDEN_JSON_SHA256 = {
    "default": "b923c830ac131c4b4a5322a9123f6ad1ed6a1e24378d87fb2751ac504b815c9b",
    "small": "97ebc022b40b60625db02fbae32095b34c94045b02f1ae9c3aad1e596f316ca5",
}

GOLDEN_WITNESS_LINES = {
    "default": [
        "check remark_2_8_printed: known-failing-as-printed (n=3..20)",
        "  witness n=3 statement=1: lhs=-2 rhs=0",
        "check cor_3_2_printed: known-failing-as-printed "
        "(constraint=m+r<=n, j=r..n, m=0..8, n=0..12, r=0..8)",
        "  witness n=1 m=0 r=0 j=1: lhs=0 "
        "rhs=undefined: division by partial_derangement(1,0) = 0",
        "check cor_3_5_b_printed: known-failing-as-printed (j=0..n, n=0..20, r=1..8)",
        "  witness n=2 r=3 j=2: lhs=2 rhs=1",
        "check eq_14_printed: known-failing-as-printed (n=0..20)",
        "  witness n=0: lhs=1 rhs=y",
    ],
    "small": [
        "check remark_2_8_printed: known-failing-as-printed (n=3..8)",
        "  witness n=3 statement=1: lhs=-2 rhs=0",
        "check cor_3_2_printed: known-failing-as-printed "
        "(constraint=m+r<=n, j=r..n, m=0..3, n=0..8, r=0..3)",
        "  witness n=1 m=0 r=0 j=1: lhs=0 "
        "rhs=undefined: division by partial_derangement(1,0) = 0",
        "check cor_3_5_b_printed: known-failing-as-printed (j=0..n, n=0..8, r=1..3)",
        "  witness n=2 r=3 j=2: lhs=2 rhs=1",
        "check eq_14_printed: known-failing-as-printed (n=0..8)",
        "  witness n=0: lhs=1 rhs=y",
    ],
}


@pytest.fixture(scope="module")
def golden_runs(small_run):
    return {"default": checks.run_all(SuiteConfig()), "small": small_run}


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON_SHA256))
def test_golden_check_json(golden_runs, name):
    out = cli._render_check(golden_runs[name], cli.RunConfig("check", fmt="json"))
    doc = json.loads(out)
    for result in doc["results"]:
        del result["ms"]
    digest = hashlib.sha256(cli.canonical_json(doc).encode("ascii")).hexdigest()
    assert digest == GOLDEN_JSON_SHA256[name]


BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", sorted(BENCH_DIGESTS), ids=lambda job: job.replace(" ", "_"))
def test_benchmark_suite_output_matches_its_recorded_digest(capsys, job):
    # Every benchmark job, run in-process; its digest file is only read.
    code = cli.main(job.split())
    body = capsys.readouterr().out.encode("ascii")
    if job.startswith("check "):
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        body, timings = workloads.strip_ms(body)
        assert list(timings) == EXPECTED_IDS
    assert code == BENCH_DIGESTS[job]["exit"]
    assert hashlib.sha256(body).hexdigest() == BENCH_DIGESTS[job]["sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN_WITNESS_LINES))
def test_golden_known_failing_text(golden_runs, name):
    lines = cli._render_check(golden_runs[name], cli.RunConfig("check")).splitlines()
    picked = []
    for i, line in enumerate(lines):
        if line.startswith("check ") and "known-failing-as-printed" in line:
            picked += [line.rsplit(" [", 1)[0], lines[i + 1]]
    assert picked == GOLDEN_WITNESS_LINES[name]


def test_witnesses_are_deterministic():
    first = checks.check("remark_2_8_printed", SMALL)
    second = checks.check("remark_2_8_printed", SMALL)
    assert first.witness == second.witness
    assert first.bounds == second.bounds
    assert first.status == second.status


def test_known_failing_with_grid_too_small_to_witness_is_not_reproduced():
    # The stated Cor 3.5(b) form first fails at r = 3; on a grid capped at
    # r <= 2 the stated form is true, so the failure is not reproduced there.
    tiny = SuiteConfig(max_n=6, max_r=2, max_m=2, oracle_cap=5)
    rep = checks.check("cor_3_5_b_printed", tiny)
    assert rep.status is Status.NOT_REPRODUCED
    assert rep.witness is None


@pytest.mark.parametrize(
    "cfg, vacuous, not_reproduced",
    [
        (
            SuiteConfig(max_n=0),
            {"thm_2_9", "thm_2_10_a", "thm_2_10_b", "cor_3_9", "thm_3_10", "cor_3_11"},
            {"cor_3_2_printed", "cor_3_5_b_printed"},
        ),
        (
            SuiteConfig(max_r=0, max_m=0),
            {"cor_3_5_a", "cor_3_5_b_printed", "cor_3_5_b", "thm_3_10", "cor_3_11"},
            set(),
        ),
    ],
    ids=["max_n=0", "max_r=0"],
)
def test_empty_grids_are_vacuous_and_unwitnessed_printed_forms_not_reproduced(
    cfg, vacuous, not_reproduced
):
    report = checks.run_all(cfg)
    by_status = {}
    for rep in report.results:
        by_status.setdefault(rep.status, set()).add(rep.check_id)
    assert by_status.get(Status.VACUOUS, set()) == vacuous
    assert by_status.get(Status.NOT_REPRODUCED, set()) == not_reproduced
    for rep in report.results:
        if rep.status is Status.VACUOUS:
            assert rep.witness is None
            assert rep.bounds
    assert report.overall == "fail"


def test_no_check_is_vacuous_or_unreproduced_on_the_standard_grids(golden_runs):
    # The golden digests and the benchmark's max_n=32 suite pin these grids.
    for report in (*golden_runs.values(), checks.run_all(SuiteConfig(max_n=32))):
        unevaluated = {
            rep.check_id
            for rep in report.results
            if rep.status in (Status.VACUOUS, Status.NOT_REPRODUCED)
        }
        assert unevaluated == set(), report.config
        assert report.overall == "pass"


# ----------------------------------------------------------------------
# division-free Bernoulli checks: one perturbed Bernoulli value must fail
# the check at the first point whose sum uses it, with the scale reported


@pytest.mark.parametrize(
    "check_id, kernel, at, params",
    [
        ("thm_3_10", "higher_bernoulli", (2, 2), {"n": 3, "m": 1, "r": 2, "scale": 42}),
        (
            "thm_3_10",
            "bernoulli_number",
            (4,),
            {"n": 5, "m": 1, "r": 1, "form": "first-order", "scale": 210},
        ),
        ("cor_3_11", "higher_bernoulli", (2, 2), {"n": 2, "r": 2, "j": 0, "scale": 42}),
    ],
)
def test_bernoulli_fault_injection(monkeypatch, check_id, kernel, at, params):
    original = getattr(checks, kernel)

    def perturbed(*args):
        return original(*args) + (Fraction(1, 7) if args == at else 0)

    monkeypatch.setattr(checks, kernel, perturbed)
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == list(params.items())
    # Both sides are scaled to integers, so neither shows a fraction.
    assert "/" not in rep.witness.lhs + rep.witness.rhs


def test_every_check_run_reads_the_kernels_afresh(monkeypatch):
    # A run keeps the Bernoulli rows it read; the next run must not reuse them.
    cfg = SuiteConfig(max_n=2, max_r=1)
    assert checks.check("cor_3_11", cfg).status is Status.PASS
    original = checks.higher_bernoulli
    monkeypatch.setattr(
        checks,
        "higher_bernoulli",
        lambda n, r: original(n, r) + (Fraction(1, 7) if (n, r) == (2, 1) else 0),
    )
    assert checks.check("cor_3_11", cfg).status is Status.FAIL
    # The same for the sequence kernels' columns.
    cfg = SuiteConfig(max_n=3, max_r=1)
    assert checks.check("thm_2_9", cfg).status is Status.PASS
    pdb_number = seq.pdb_number
    monkeypatch.setattr(seq, "pdb_number", lambda n, r: pdb_number(n, r) + ((n, r) == (2, 0)))
    assert checks.check("thm_2_9", cfg).status is Status.FAIL


# ----------------------------------------------------------------------
# kernels read from per-run rows and columns: one perturbed sequence value
# must fail the check at the same first point as the sums that called the
# kernel term by term did


@pytest.mark.parametrize(
    "check_id, kernel, at, params",
    [
        ("thm_2_3", "deranged_bell", (3,), {"n": 3, "r": 0}),
        ("thm_2_7", "complementary_bell", (3,), {"n": 3, "r": 0}),
        ("thm_2_9", "pdb_number", (2, 0), {"n": 3, "r": 0}),
        ("thm_2_9", "ordered_bell", (2,), {"n": 2, "r": 0}),
        ("cor_3_5_a", "partial_derangement", (3, 1), {"n": 3, "r": 1, "j": 3}),
    ],
)
def test_sequence_fault_injection(monkeypatch, check_id, kernel, at, params):
    original = getattr(seq, kernel)
    monkeypatch.setattr(seq, kernel, lambda *args: original(*args) + (args == at))
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == list(params.items())


# Whole rows: one perturbed cell must fail the check at the same first point
# as when the check read that cell from its own kernel call.  ``at`` is
# (the arguments before the row index, the row index, the cell).


@pytest.mark.parametrize(
    "check_id, kernel, at, params",
    [
        # r_stirling2(5, 3, 2): row 5 of the stream for triangle 2, cell 3
        ("cor_3_5_b", "r_stirling2_rows", ((2,), 5, 3), {"n": 3, "r": 3, "j": 3}),
        # pdb_number(3, 2); its weight derangement(2) is nonzero
        ("cor_3_8", "pdb_rows", ((), 3, 2), {"n": 3, "part": 2, "y": 1}),
    ],
)
def test_row_stream_fault_injection(monkeypatch, check_id, kernel, at, params):
    original = getattr(seq, kernel)

    def perturbed(max_n, *args):
        *fixed, first = args
        for m, row in enumerate(original(max_n, *args), first):
            yield [v + ((tuple(fixed), m, k) == at) for k, v in enumerate(row)]

    monkeypatch.setattr(seq, kernel, perturbed)
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == list(params.items())


def test_r_ordered_bell_row_fault_injection(monkeypatch):
    # r_ordered_bell(2, 1), read off the row for n = 2.
    original = seq.r_ordered_bell_row
    monkeypatch.setattr(
        seq,
        "r_ordered_bell_row",
        lambda n, max_r: [v + ((n, r) == (2, 1)) for r, v in enumerate(original(n, max_r))],
    )
    rep = checks.check("thm_2_10_a", SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == [("n", 2), ("r", 0), ("J", 18)]


def test_cor_3_8_reads_pdb_rows_not_pdb_number(monkeypatch):
    def refused(n, r):
        raise AssertionError("pdb_number read")

    monkeypatch.setattr(seq, "pdb_number", refused)
    assert checks.check("cor_3_8", SuiteConfig(max_n=12)).status is Status.PASS


def test_regrouped_geometric_sum_equals_the_double_sum(monkeypatch):
    # With the double sum itself in place of r_ordered_bell, the check
    # compares it with its regrouped form at every n <= 40, r <= 8.
    def double_sum(n, r):
        pairs = ((m, i) for m in range(n + 1) for i in range(m + 1))
        return sum((-1) ** (m - i) * math.comb(m, i) * (i + r) ** n for m, i in pairs)

    monkeypatch.setattr(seq, "r_ordered_bell", double_sum)
    cfg = SuiteConfig(max_n=40, max_r=8)
    report = checks.check("r_ordered_bell_geometric", cfg)
    assert (report.status, report.points) == (Status.PASS, 41 * 9)
    # And the comparison is not vacuous: one changed value is caught.
    monkeypatch.setattr(seq, "r_ordered_bell", lambda n, r: double_sum(n, r) + ((n, r) == (7, 3)))
    assert checks.check("r_ordered_bell_geometric", cfg).witness.params == {"n": 7, "r": 3}


def test_bernoulli_weights_kept_for_the_latest_r_equal_fresh_ones():
    # Every (top, r) the two Bernoulli checks read at max_n = 40, with each r
    # read twice over: tops rising as thm_3_10 reads them, then falling as
    # cor_3_11 does.  An r seen before, but not the latest, is built afresh.
    # The scale of a row is the lcm of the denominators of its weights.
    checks._tables.clear()
    for r in [*range(1, 9), None, 1]:
        values = [bernoulli(i) if r is None else higher_bernoulli(i, r) for i in range(41)]
        fresh = [math.lcm(*(b.denominator for b in values[: top + 1])) for top in range(41)]
        for top in [*range(41), *range(40, -1, -1)]:
            assert checks._bernoulli_row(top, r)[0] == fresh[top], (top, r)
    checks._tables.clear()


# ----------------------------------------------------------------------
# regrouped and row-reading checks: one perturbed polynomial or Stirling
# value must fail the check at the same first point as the sums that read
# the kernel term by term did


@pytest.mark.parametrize(
    "check_id, kernel, at, params",
    [
        ("prop_3_6_a", "exponential_poly", (3,), {"n": 3, "z": -3}),
        ("prop_3_6_b", "exponential_poly", (3,), {"n": 3, "z": -3}),
        ("prop_3_6_a", "geometric_poly", (4,), {"n": 4, "z": -3}),
        # pdb_poly(4, 0) also enters the left side at n = 4, where the two
        # perturbations cancel
        ("prop_3_6_b", "pdb_poly", (4, 0), {"n": 5, "z": -3}),
    ],
)
def test_polynomial_fault_injection(monkeypatch, check_id, kernel, at, params):
    original = getattr(poly, kernel)
    # y^5 lies above the degree of every perturbed polynomial, so a check
    # that reads only the coefficients a closed form predicts misses it.
    bump = poly.IntPolynomial([0, 0, 0, 0, 0, 1])

    def perturbed(*args):
        value = original(*args)
        return value + bump if args == at else value

    monkeypatch.setattr(poly, kernel, perturbed)
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == list(params.items())


def test_both_signs_of_z_equal_direct_sums():
    # The rows in z of both sides, read at every grid z of either sign, equal
    # the sums they expand: the left rows give sum_r z^r * pdb_poly(n, r), and
    # the right rows, shifted by s, the convolution with exponential_poly at
    # (z - s)y.
    def at(z, rows):
        return poly.weighted_sum((z**j, q) for j, q in enumerate(rows))

    for point in checks._prop_3_6_grid(SuiteConfig(max_n=12)).points():
        n, z = point["n"], point["z"]
        row = poly.weighted_sum((z**r, poly.pdb_poly(n, r)) for r in range(n + 1))
        for s, other in [(1, poly.geometric_poly), (0, lambda m: poly.pdb_poly(m, 0))]:
            left, right, _ = checks._z_rows(n, bool(s), other)
            assert at(z, left) == row
            direct = poly.weighted_sum(
                (math.comb(n, r), poly.exponential_poly(r).scale_variable(z - s) * other(n - r))
                for r in range(n + 1)
            )
            assert at(z, right) == direct, (n, s, z)


def _prop_3_6_yields(check_id, cfg):
    """{n: [(z, evaluated) for each triple the compare yields at (n, z)]}, over
    the grid in scan order with the tables emptied first, as check() does."""
    defn = checks._REGISTRY[check_id]
    checks._tables.clear()
    yields = {}
    for point in defn.grids(cfg).points():
        for _, lhs, rhs in defn.compare(cfg, **point):
            evaluated = isinstance(lhs, poly.IntPolynomial)
            assert evaluated or (len(lhs), lhs) == (point["n"] + 1, rhs), point
            yields.setdefault(point["n"], []).append((point["z"], evaluated))
    checks._tables.clear()
    return yields


@pytest.mark.parametrize("check_id", ["prop_3_6_a", "prop_3_6_b"])
def test_prop_3_6_rows_agree_at_every_n(check_id):
    # Unperturbed, the rows in z agree at every n <= 40: each n yields its row
    # comparison at its first z and nothing at the others.  A wrong Taylor
    # shift would print the same report, every n falling back to evaluating
    # each z, but fails here.
    cfg = SuiteConfig(max_n=40)
    zmax = [max(3, (n + 2) // 2) for n in range(41)]
    assert _prop_3_6_yields(check_id, cfg) == {n: [(-zmax[n], False)] for n in range(41)}
    report = checks.check(check_id, cfg)
    assert (report.status, report.points) == (Status.PASS, sum(2 * z + 1 for z in zmax))


def test_prop_3_6_degree_premise():
    # The right side has a row in z per H_k, and the grid holds at least
    # n + 2 z: with at most n + 1 rows a side, rows that differ differ in value
    # at some grid z, so a fallback to evaluating each z always finds a failing
    # one.  The premise carries no weight for the report: rows that agree agree
    # at every z, and rows that differ are evaluated at every z.  How many H_k
    # there are depends on the degrees of exponential_poly alone, not on
    # ``other``.
    zs = {}
    for point in checks._prop_3_6_grid(SuiteConfig(max_n=100)).points():
        zs[point["n"]] = zs.get(point["n"], 0) + 1
    for n in range(101):
        _, right, _ = checks._z_rows(n, False, lambda m: poly.IntPolynomial([1]))
        assert len(right) <= n + 1 and zs[n] >= n + 2, n


@pytest.mark.parametrize("check_id", ["prop_3_6_a", "prop_3_6_b"])
def test_prop_3_6_evaluates_only_where_rows_differ(monkeypatch, check_id):
    # pdb_poly(5, 2) enters the left rows at n = 5 alone (the right side of
    # prop_3_6_b reads pdb_poly(m, 0) only), so n = 5 evaluates every z and
    # every other n compares its rows once.
    pdb_poly = poly.pdb_poly

    def perturbed(n, r):
        value = pdb_poly(n, r)
        return value + poly.IntPolynomial([0] * 7 + [1]) if (n, r) == (5, 2) else value

    monkeypatch.setattr(poly, "pdb_poly", perturbed)
    yields = _prop_3_6_yields(check_id, SMALL)
    for n, seen in yields.items():
        zmax = max(3, (n + 2) // 2)
        if n == 5:
            assert seen == [(z, True) for z in range(-zmax, zmax + 1)]
        else:
            assert seen == [(-zmax, False)], n
    assert sorted(yields) == list(range(SMALL.max_n + 1))
    rep = checks.check(check_id, SMALL)
    assert (rep.status, rep.witness.params) == (Status.FAIL, {"n": 5, "z": -3})


@pytest.mark.parametrize("check_id", ["prop_3_6_a", "prop_3_6_b"])
def test_prop_3_6_witness_keeps_the_sign_of_z(monkeypatch, check_id):
    # The added terms sum to y^7 * z(z+1)(z+2)(z+3) on the left side at
    # n = 5, which vanishes at z = -3..0, so the first point they change is
    # z = 1.  A sum that swapped the values at z and -z would fail at z = -1.
    pdb_poly = poly.pdb_poly
    added = {1: 6, 2: 11, 3: 6, 4: 1}

    def perturbed(n, r):
        value = pdb_poly(n, r)
        if n == 5 and r in added:
            return value + poly.IntPolynomial([0] * 7 + [added[r]])
        return value

    monkeypatch.setattr(poly, "pdb_poly", perturbed)
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert rep.witness.params == {"n": 5, "z": 1}


@pytest.mark.parametrize("check_id, shift", [("prop_3_6_a", 1), ("prop_3_6_b", 0)])
def test_prop_3_6_work_per_run(monkeypatch, check_id, shift):
    # One set of rows in z per n, shifted (c = z - 1) for prop_3_6_a only, and
    # no weighted sum outside it: on a passing run the rows agree at every n,
    # so no z is evaluated.
    z_rows, weighted_sum = checks._z_rows, poly.weighted_sum
    calls = {"rows": [], "sums": 0, "inside": False}

    def counted_z_rows(n, s, other):
        calls["rows"].append((n, s))
        calls["inside"] = True
        try:
            return z_rows(n, s, other)
        finally:
            calls["inside"] = False

    def counted_weighted_sum(pairs):
        calls["sums"] += not calls["inside"]
        return weighted_sum(pairs)

    monkeypatch.setattr(checks, "_z_rows", counted_z_rows)
    monkeypatch.setattr(poly, "weighted_sum", counted_weighted_sum)
    assert checks.check(check_id, SMALL).status is Status.PASS
    assert calls["rows"] == [(n, bool(shift)) for n in range(SMALL.max_n + 1)]
    assert calls["sums"] == 0


@pytest.mark.parametrize("check_id", ["prop_3_6_a", "prop_3_6_b"])
def test_prop_3_6_builds_each_side_once_where_rows_differ(monkeypatch, check_id):
    # With pdb_poly(5, 2) perturbed, the rows differ at n = 5 alone, and its
    # z are evaluated off the rows already built: one _z_rows per n, each
    # reading exponential_poly(r) once for every r <= n.  The witness text is
    # the one that evaluating sum_k c^k * H_k directly at z = -3 prints.
    pdb_poly, z_rows, exponential_poly = poly.pdb_poly, checks._z_rows, poly.exponential_poly
    calls = {"rows": [], "exponential": 0}

    def perturbed(n, r):
        value = pdb_poly(n, r)
        return value + poly.IntPolynomial([0] * 7 + [1]) if (n, r) == (5, 2) else value

    def counted_z_rows(n, s, other):
        calls["rows"].append(n)
        return z_rows(n, s, other)

    def counted_exponential_poly(m):
        calls["exponential"] += 1
        return exponential_poly(m)

    monkeypatch.setattr(poly, "pdb_poly", perturbed)
    monkeypatch.setattr(checks, "_z_rows", counted_z_rows)
    monkeypatch.setattr(poly, "exponential_poly", counted_exponential_poly)
    rep = checks.check(check_id, SMALL)
    assert calls["rows"] == list(range(6))
    assert calls["exponential"] == sum(n + 1 for n in range(6))
    assert rep.witness == (
        {"n": 5, "z": -3},
        "-3*y + 150*y^2 - 850*y^3 + 1200*y^4 - 424*y^5 + 9*y^7",
        "-3*y + 150*y^2 - 850*y^3 + 1200*y^4 - 424*y^5",
    )


@pytest.mark.parametrize("check_id", ["thm_3_3", "cor_3_4"])
def test_reflected_sums_keep_no_per_run_copies(check_id):
    # Each point reflects its weighted sum once, so a run keeps no reflected
    # polynomial.
    assert checks.check(check_id, SMALL).status is Status.PASS
    assert [key for key in checks._tables if "reflected" in str(key)] == []
    checks._tables.clear()


@pytest.mark.parametrize(
    "check_id, params",
    [
        ("thm_2_3", {"n": 5, "r": 2}),
        ("thm_2_7", {"n": 5, "r": 2}),
        ("thm_3_1", {"n": 5, "m": 0, "r": 0}),
        ("thm_3_3", {"n": 5, "r": 2}),
        ("cor_3_5_a", {"n": 5, "r": 2, "j": 2}),
        ("cor_3_11", {"n": 4, "r": 1, "j": 1, "scale": 6}),
        ("cor_3_2_corrected", {"n": 7, "m": 0, "r": 1, "j": 2}),
    ],
)
def test_stirling_row_fault_injection(monkeypatch, check_id, params):
    # The polynomial layer keeps its rows across runs (lru_cache), while a
    # run reads its Stirling rows afresh.  One run before the perturbation
    # puts the rows that the polynomials read in those caches unperturbed,
    # whatever ran before, so only the per-run reads see the changed cell.
    assert checks.check(check_id, SMALL).status is Status.PASS
    stirling2_row = seq.stirling2_row
    monkeypatch.setattr(
        seq,
        "stirling2_row",
        lambda n: [v + ((n, k) == (5, 2)) for k, v in enumerate(stirling2_row(n))],
    )
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == list(params.items())


# ----------------------------------------------------------------------
# thm_3_1, thm_3_10 and cor_3_11 take partial_derangement out of their sums
# of pdb_poly and sum the rest once per (n, r), as cor_3_2_* and cor_3_5_a
# sum theirs: every side must equal the term-by-term sum, and a perturbed
# partial_derangement, read apart from pdb_poly, must fail the check


def _scaled_bernoulli(top, r):
    """The lcm L of the denominators of B_0..B_top and [L*B_i for i <= top],
    where B_i is higher_bernoulli(i, r), or bernoulli(i) for r None."""
    values = [bernoulli(i) if r is None else higher_bernoulli(i, r) for i in range(top + 1)]
    scale = math.lcm(*(b.denominator for b in values))
    return scale, [int(b * scale) for b in values]


def _term_by_term(check_id, n, m=None, r=None, j=None):
    """The (witness extras, lhs, rhs) of one point, each sum over k taken term by term."""
    if check_id == "cor_3_5_a":
        i = j - r + 1
        lhs = sum(
            math.comb(n, k) * seq.stirling2(n - k, r - 1) * seq.stirling2(k, i)
            for k in range(n + 1)
        )
        d0, d1 = seq.partial_derangement(j, r - 1), seq.partial_derangement(j, r)
        return [], lhs, (-1) ** i * seq.stirling2(n, j) * (d0 - r * d1)
    if check_id.startswith("cor_3_2"):
        lhs = seq.partial_derangement(j, m) * sum(
            math.comb(n, k) * seq.stirling2(n - k, r) * seq.stirling2(k, j) for k in range(n + 1)
        )
        rhs = math.comb(m + r, m) * seq.stirling2(n, j + r) * seq.partial_derangement(j + r, r + m)
        if check_id == "cor_3_2_corrected":
            return [], lhs, rhs
        denom = seq.partial_derangement(j - r, r)
        if denom == 0:
            return [], lhs, f"undefined: division by partial_derangement({j - r},{r}) = 0"
        return [], lhs, Fraction(rhs, denom)
    if check_id == "thm_3_1":
        rhs = poly.weighted_sum(
            (math.comb(n, k) * seq.stirling2(n - k, r), poly.pdb_poly(k, m))
            for k in range(m, n - r + 1)
        )
        return [], math.comb(m + r, m) * poly.pdb_poly(n, m + r), rhs.times_y_power(r)
    if check_id == "cor_3_11":
        scale, B = _scaled_bernoulli(n - j, r)
        lhs = math.comb(j + r, r) * sum(
            math.comb(n + r, k + r) * seq.stirling2(k + r, j + r) * B[n - k]
            for k in range(j, n + 1)
        )
        return [("scale", scale)], lhs, scale * math.comb(n + r, r) * seq.stirling2(n, j)
    scale, B = _scaled_bernoulli(n - m, r)
    s, outer = (0, m) if r is None else (r, math.comb(m + r, m))
    lhs = poly.weighted_sum(
        (outer * math.comb(n + s, k + s) * B[n - k], poly.pdb_poly(k + s, m + s))
        for k in range(m, n + 1)
    )
    if r is None:
        rhs = scale * n * poly.pdb_poly(n - 1, m - 1).times_y_power(1)
        return [("r", 1), ("form", "first-order"), ("scale", scale)], lhs, rhs
    rhs = scale * math.comb(n + r, r) * poly.pdb_poly(n, m).times_y_power(r)
    return [("scale", scale)], lhs, rhs


@pytest.mark.parametrize("cfg", [SMALL, SuiteConfig(max_n=16)], ids=["small", "max_n=16"])
@pytest.mark.parametrize(
    "check_id",
    ["thm_3_1", "thm_3_10", "cor_3_11", "cor_3_5_a", "cor_3_2_printed", "cor_3_2_corrected"],
)
def test_regrouped_sides_equal_the_term_by_term_sums(check_id, cfg):
    # In scan order, as the check reads them, and with the tables emptied
    # first, as check() does.
    defn = checks._REGISTRY[check_id]
    grids = defn.grids(cfg)
    checks._tables.clear()
    points = 0
    for grid in grids if isinstance(grids, tuple) else (grids,):
        for point in grid.points():
            [(extra, lhs, rhs)] = defn.compare(cfg, **point)
            assert (list(extra.items()), lhs, rhs) == _term_by_term(check_id, **point), point
            points += 1
    checks._tables.clear()
    report = checks.check(check_id, cfg)
    assert points > 0
    if report.witness is None:
        assert report.points == points
    else:  # the known-failing printed form stops at its first witness
        assert report.status is Status.KNOWN_FAILING and report.points <= points


def test_one_stirling_column_source_per_run():
    # thm_3_1 reads its Stirling columns from the run's stirling2_row rows, as
    # the Bernoulli-weighted checks do, and keeps no second, transposed store
    # of exponential_poly coefficients.
    for check_id in ["thm_3_1", "thm_3_10"]:
        checks.check(check_id, SMALL)
        assert [key for key in checks._tables if "columns" in str(key)] == ["stirling2_row columns"]
        assert not any("exponential_poly" in str(key) for key in checks._tables), check_id
    checks._tables.clear()


def test_kernel_rows_are_kept_under_tuple_keys():
    # A kernel row's key is (name, *fixed), so it cannot meet a derived slot,
    # whose key is a string, such as the "stirling2_row columns" of cor_3_5_a.
    checks.check("cor_3_5_a", SMALL)
    assert ("stirling2_row",) in checks._tables
    assert ("partial_derangement", 1) in checks._tables
    assert "stirling2_row" not in checks._tables
    checks._tables.clear()


@pytest.mark.parametrize(
    "check_id, at, params",
    [
        # partial_derangement(3, 2) = 0 is the coefficient factor of y^3 in pdb_poly(3, 2)
        ("thm_3_1", (3, 2), {"n": 3, "m": 2, "r": 0}),
        ("thm_3_10", (3, 2), {"n": 2, "m": 1, "r": 1, "scale": 2}),
        # m + r >= 2 in the r form, so only the first-order form reads (3, 1)
        ("thm_3_10", (3, 1), {"n": 3, "m": 1, "r": 1, "form": "first-order", "scale": 6}),
    ],
)
def test_partial_derangement_fault_injection(monkeypatch, check_id, at, params):
    original = seq.partial_derangement
    monkeypatch.setattr(seq, "partial_derangement", lambda *args: original(*args) + (args == at))
    rep = checks.check(check_id, SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == list(params.items())


# ----------------------------------------------------------------------
# oracle_all: one perturbed kernel value must fail the check at its n, with
# the enumerated row on the left and the kernel's row on the right


def test_oracle_all_fault_injection(monkeypatch):
    stirling2_row, partial_derangement = seq.stirling2_row, seq.partial_derangement
    monkeypatch.setattr(
        seq,
        "stirling2_row",
        lambda n: [v + ((n, k) == (5, 2)) for k, v in enumerate(stirling2_row(n))],
    )
    rep = checks.check("oracle_all", SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == [("n", 5), ("kind", "stirling2")]
    assert rep.witness.lhs == "[0, 1, 15, 25, 10, 1]"
    assert rep.witness.rhs == "[0, 1, 16, 25, 10, 1]"

    monkeypatch.undo()
    monkeypatch.setattr(
        seq, "partial_derangement", lambda n, r: partial_derangement(n, r) + ((n, r) == (4, 1))
    )
    rep = checks.check("oracle_all", SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == [("n", 4), ("kind", "partial_derangement")]
    assert rep.witness.lhs == "[9, 8, 6, 0, 1]"
    assert rep.witness.rhs == "[9, 9, 6, 0, 1]"


# ----------------------------------------------------------------------
# egf_all: the witness is the first n, across all series, at which a series
# and its direct values differ


def test_egf_all_fault_injection(monkeypatch):
    partial_derangement, higher_bernoulli = seq.partial_derangement, checks.higher_bernoulli
    # the first series scanned fails at n = 5, a later one already at n = 3
    monkeypatch.setattr(
        seq, "partial_derangement", lambda n, r: partial_derangement(n, r) + ((n, r) == (5, 0))
    )
    monkeypatch.setattr(
        checks,
        "higher_bernoulli",
        lambda n, r: higher_bernoulli(n, r) + (Fraction(1, 7) if (n, r) == (3, 2) else 0),
    )
    rep = checks.check("egf_all", SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == [
        ("family", "higher_bernoulli"),
        ("n", 3),
        ("param", 2),
    ]
    assert rep.witness.lhs == str(higher_bernoulli(3, 2))
    assert rep.witness.rhs == str(higher_bernoulli(3, 2) + Fraction(1, 7))


def test_egf_all_fails_on_a_faulty_bernoulli_series(monkeypatch):
    # The Bernoulli kernel has its own recurrence, so a fault in the series
    # family shows against it, even with no value of the kernel kept.
    base = ser.bernoulli_base_series
    bump = [0, 0, 0, Fraction(1, 7)]
    monkeypatch.setattr(
        ser,
        "bernoulli_base_series",
        lambda order: base(order) + ser.TruncatedSeries(bump, order),
    )
    monkeypatch.setattr(sys.modules["pdbell.bernoulli"], "_cache", {})
    rep = checks.check("egf_all", SMALL)
    assert rep.status is Status.FAIL
    assert list(rep.witness.params.items()) == [
        ("family", "higher_bernoulli"),
        ("n", 3),
        ("param", 1),
    ]


# ----------------------------------------------------------------------
# inconclusive and error paths


def test_uncertifiable_tail_reports_inconclusive():
    cfg = SuiteConfig(
        max_n=4, max_r=2, max_m=2, oracle_cap=4, tolerance=Fraction(1, 10**300)
    )
    rep = checks.check("thm_2_10_b", cfg)
    assert rep.status is Status.INCONCLUSIVE
    assert rep.witness is not None
    assert rep.witness.params["J_max"] == 512
    report = checks.run_all(cfg, ids=["thm_2_10_b"])
    assert report.overall == "fail"


@given(
    r=st.integers(0, 4),
    J=st.integers(1, 24),
    values=st.lists(st.integers(-(10**30), 10**30), min_size=30, max_size=30),
    den=st.sampled_from([math.factorial, lambda j: 2 ** (j + 1)]),
)
def test_alternating_sum_equals_the_plain_fraction_sum(r, J, values, den):
    def num(i, j):
        return values[i + j]

    plain = sum(
        (-1) ** (r - i) * math.comb(r, i) * sum(Fraction(num(i, j), den(j)) for j in range(J))
        for i in range(r + 1)
    )
    assert checks._alternating(r, J, num, den) == plain


def test_resource_cap_escape_becomes_error_report(monkeypatch):
    from pdbell import oracle

    def blow_up(cfg, **point):
        raise oracle.CapExceededError("budget exhausted")

    defn = checks._REGISTRY["thm_2_3"]
    monkeypatch.setitem(checks._REGISTRY, "thm_2_3", defn._replace(compare=blow_up))
    report = checks.run_all(SMALL, ids=["thm_2_3"])
    (rep,) = report.results
    assert rep.status is Status.ERROR
    assert rep.error == "resource-cap: budget exhausted"
    assert report.overall == "fail"


def test_unexpected_exception_becomes_error_report(monkeypatch):
    def blow_up(cfg, **point):
        raise RuntimeError("boom")

    defn = checks._REGISTRY["thm_2_3"]
    monkeypatch.setitem(checks._REGISTRY, "thm_2_3", defn._replace(compare=blow_up))
    report = checks.run_all(SMALL, ids=["thm_2_3"])
    (rep,) = report.results
    assert rep.status is Status.ERROR
    assert rep.error == "RuntimeError: boom"
    assert report.overall == "fail"


# ----------------------------------------------------------------------
# configuration and report plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(max_n=-1)
    with pytest.raises(ValueError):
        SuiteConfig(tolerance=Fraction(0))
    with pytest.raises(ValueError):
        SuiteConfig(tolerance=Fraction(-1, 10))
    with pytest.raises(ValueError):
        SuiteConfig(tolerance=Fraction(1, 10**1001))
    with pytest.raises(ValueError):
        SuiteConfig(oracle_cap=-2)
    with pytest.raises(ValueError):
        SuiteConfig(oracle_cap=11)  # beyond the enumeration hard cap


def test_tiny_grid_overall_pass():
    cfg = SuiteConfig(max_n=3, max_r=1, max_m=1, oracle_cap=3, wilf_bound=5)
    report = checks.run_all(cfg)
    assert report.overall == "pass"


def test_report_to_dict_shape(small_run):
    for rep in small_run.results:
        doc = rep.to_dict()
        assert set(doc) <= {"id", "status", "bounds", "ms", "witness", "error"}
        assert {"id", "status", "bounds", "ms"} <= set(doc)
        assert isinstance(doc["bounds"], dict)
        if rep.witness is not None:
            assert set(doc["witness"]) == {"params", "lhs", "rhs"}


def _points_to_witness(grids, witness):
    count = 0
    for grid in grids if isinstance(grids, tuple) else (grids,):
        for point in grid.points():
            count += 1
            if witness and all(witness.params[k] == point[k] for k in grid.params):
                return count
    return count


def test_reports_count_the_points_up_to_the_witness(small_run):
    for rep in small_run.results:
        grids = checks._REGISTRY[rep.check_id].grids(SMALL)
        assert rep.points == _points_to_witness(grids, rep.witness) > 0
        assert "points" not in rep.to_dict()
    assert sum(rep.witness is not None for rep in small_run.results) == 4
    vacuous = checks.check("thm_2_9", SuiteConfig(max_n=0))
    assert (vacuous.status, vacuous.points) == (Status.VACUOUS, 0)


def test_json_scalar_big_integers_become_strings(small_run):
    # Witness payloads keep integers only while they are exactly
    # representable in double-precision JSON readers.
    assert checks._json_scalar(2**53 - 1) == 2**53 - 1
    assert checks._json_scalar(2**53) == str(2**53)
    assert checks._json_scalar(-(2**60)) == str(-(2**60))
    assert checks._json_scalar(Fraction(1, 3)) == "1/3"
    assert checks._json_scalar(True) is True


def test_config_refuses_tolerances_too_long_to_print():
    # Both are above the floor, but str() of a 5000-digit integer raises.
    for tol in (Fraction(10**5000), Fraction(10**5000 + 1, 10**4999)):
        with pytest.raises(ValueError):
            SuiteConfig(tolerance=tol)
    # The longest tolerances --tol accepts are still printed whole.
    for text in ("1." + "1" * 999 + "e-1000", "9." + "9" * 999 + "e1000"):
        tol = cli._parse_tol(text)
        assert Fraction(SuiteConfig(tolerance=tol).to_dict()["tolerance"]) == tol


def test_config_to_dict_round_trips_tolerance():
    cfg = SuiteConfig(tolerance=Fraction(3, 7))
    doc = cfg.to_dict()
    assert Fraction(doc["tolerance"]) == Fraction(3, 7)


# ----------------------------------------------------------------------
# the e approximation


def test_approx_e_error_bounds():
    tight = checks.approx_e(Fraction(1, 10**40))
    for exponent in (6, 12, 30):
        eps = Fraction(1, 10**exponent)
        value = checks.approx_e(eps)
        assert value < tight  # partial sums approach from below
        assert tight - value < eps


def test_approx_e_requires_positive_eps():
    with pytest.raises(ValueError):
        checks.approx_e(Fraction(0))


def test_oracle_all_enumerates_no_further_than_max_n(monkeypatch):
    seen = []
    brute_pdb_row = oracle.brute_pdb_row
    monkeypatch.setattr(
        oracle, "brute_pdb_row", lambda n, cap: seen.append(n) or brute_pdb_row(n, cap)
    )
    report = checks.check("oracle_all", SuiteConfig(max_n=0))
    assert report.status is Status.PASS
    assert dict(report.bounds) == {"n": "0..0", "permutations": "0..0"}
    assert seen == [0]
    # max_n at or above the oracle cap scans to the cap, as before
    report = checks.check("oracle_all", SuiteConfig(max_n=20))
    assert dict(report.bounds) == {"n": "0..8", "permutations": "0..8"}


def test_oracle_all_permutations_reach_the_oracle_cap():
    # Only the grid is built: scanning it would enumerate to n = 10.
    grid = checks._lookup("oracle_all").grids(SuiteConfig(max_n=12, oracle_cap=10))
    assert grid.bounds == {"n": "0..10", "permutations": "0..10"}


def test_oracle_cells_end_with_partial_derangement():
    kinds = [kind for kind, _, _ in checks.oracle_cells(3, 3)]
    assert kinds == [
        "pdb_row", "stirling2", "bell", "complementary_bell", "ordered_bell", "partial_derangement"
    ]


def test_wilf_scan_reaches_n_1000():
    report = checks.check("wilf_scan", SuiteConfig(wilf_bound=1000))
    assert report.status is Status.PASS
    assert dict(report.bounds) == {"n": "1..1000"}


def test_wilf_scan_to_10_5_passes_within_the_acceptance_budget():
    # The budget is acceptance criterion 9's: 5 s.
    start = time.perf_counter()
    report = checks.check("wilf_scan", SuiteConfig(wilf_bound=10**5))
    elapsed = time.perf_counter() - start
    assert (report.status, report.points) == (Status.PASS, 10**5)
    assert elapsed <= 5, f"{elapsed:.2f}s"


@pytest.mark.parametrize("uncertified", [1, 3, 57, 200])
def test_wilf_scan_reads_the_exact_value_only_where_no_residue_certifies(monkeypatch, uncertified):
    # Residues taken before complementary_bell is watched, as their seeds read it.
    kept = list(islice(seq.complementary_bell_residues(), 201))

    def residues(first=0):
        for n, values in enumerate(kept[first:], first):
            yield (0,) * len(values) if n == uncertified else values

    read = []
    complementary_bell = seq.complementary_bell
    monkeypatch.setattr(seq, "complementary_bell_residues", residues)
    monkeypatch.setattr(seq, "complementary_bell", lambda n: read.append(n) or complementary_bell(n))
    report = checks.check("wilf_scan", SuiteConfig(wilf_bound=200))
    assert report.status is Status.PASS
    assert read == sorted({2, uncertified})


def test_summaries_name_the_abstract_headline_identity():
    assert "abstract's headline identity" in checks.check_summary("thm_2_7")
    assert "abstract's headline identity" in checks.check_summary("remark_2_8_corrected")
