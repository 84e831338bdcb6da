#!/usr/bin/env python3
"""Time the kernel, polynomial, series and oracle layers, the costliest checks
and the whole identity suite of pdbell, each case cold in a new process.

Usage, from the repository root::

    python3 scripts/bench.py                                  # this tree only
    python3 scripts/bench.py old=/path/to/old/src new=src > BENCH_6.json

Each positional argument is LABEL=DIR, a directory holding the ``pdbell``
package (default: ``this=src``).  Every sample of a case runs in a new
interpreter with only DIR on ``PYTHONPATH``, so no memo starts warm; the
child times the case alone, not its own start-up.  The ``table_*``,
``startup_*`` and ``*_cli`` cases run ``python -m pdbell`` as a process of
their own, start-up included; the CPU time of a sample counts the processes
the case starts.  Children write no bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``), as the benchmark's jobs do.  A case takes
samples until every tree has at least REPEAT of them and MIN_CPU_S of summed
CPU time (MIN_PROCESS_CPU_S for a case run as a process of its own), up to
MAX_SAMPLES, so a case of a few tens of milliseconds gets enough samples for
its median to be compared, and a process case whose change is a few
milliseconds of start-up gets about twenty.  Samples take the trees in
turn, so a slow spell of a shared host falls on all of them.

The report is canonical JSON (sorted keys, two-space indent): per tree and
case, the median CPU and wall time, the median peak RSS (of the child, or of
a process it started if that one peaked higher), the median peak RSS of the
child right after it imports ``pdbell.cli`` and the layers
(``import_peak_rss_mb``, to 0.01 MB: code layout alone moves it by about a
tenth of a megabyte, so it tells the import apart from the work) and the
CPU samples, and with two or more trees the ratio of each later tree's
median CPU time to the first tree's.  Beside it, the paired ratio is the median over rounds of each
later tree's sample divided by the first tree's sample of the same round: the
two samples of a round run back to back, so a slow spell of the host falls
on both.  Timings are reported, never gated.  This is a development tool:
nothing in the package imports it and it needs nothing outside the standard
library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5
MIN_CPU_S = 1.0
MIN_PROCESS_CPU_S = 3.0
MAX_SAMPLES = 25

# name -> (what it times, setup, timed body); only the body is timed.
CASES: dict[str, tuple[str, str, str]] = {
    "stirling_triangle_to_400": (
        "grow the Stirling triangle to row 400",
        "",
        "seq.stirling2(400, 400)",
    ),
    "ordered_bell_to_300": (
        "ordered_bell(n) for n = 0..300",
        "",
        "for n in range(301):\n    seq.ordered_bell(n)",
    ),
    "bell_family_to_1000": (
        "bell, complementary_bell, deranged_bell and ordered_bell for n = 0..1000",
        "",
        "for n in range(1001):\n"
        "    seq.bell(n), seq.complementary_bell(n), seq.deranged_bell(n), seq.ordered_bell(n)",
    ),
    "r_ordered_bell_to_60_r_to_20": (
        "r_ordered_bell(n, r) for n = 0..60, r = 0..20",
        "",
        "for n in range(61):\n    for r in range(21):\n        seq.r_ordered_bell(n, r)",
    ),
    "complementary_r_bell_1000_r_to_20": (
        "complementary_r_bell(1000, r) for r = 0..19, the Bell memo warm",
        "seq.complementary_bell(1000)",
        "for r in range(20):\n    seq.complementary_r_bell(1000, r)",
    ),
    "partial_derangement_column_1000_r_to_100": (
        "partial_derangement_column(r, 1000) for r = 0..99, the derangement memo warm",
        "seq.derangement(1000)",
        "for r in range(100):\n    seq.partial_derangement_column(r, 1000)",
    ),
    "pdb_row_to_300": (
        "pdb_row(n) for n = 0..300",
        "",
        "for n in range(301):\n    seq.pdb_row(n)",
    ),
    "pdb_rows_to_450": (
        "pdb rows 0..450 in turn, pdb_rows(450)",
        "",
        "for row in seq.pdb_rows(450):\n    pass",
    ),
    "pdb_poly_to_120": (
        "pdb_poly(n, r) for n = 0..120, r = 0..n",
        "",
        "for n in range(121):\n    for r in range(n + 1):\n        poly.pdb_poly(n, r)",
    ),
    "truncated_ordered_bell_row_to_300": (
        "the truncated_ordered_bell row r = 0..n for n = 0..300",
        "",
        "for n in range(301):\n    seq.truncated_ordered_bell_row(n)",
    ),
    "higher_bernoulli_to_300_r4": (
        "higher_bernoulli(n, 4) for n = 0..300",
        "from pdbell.bernoulli import higher_bernoulli",
        "for n in range(301):\n    higher_bernoulli(n, 4)",
    ),
    "int_poly_mul_deg_40": (
        "200 products of two IntPolynomials of degree 40",
        "a, b = poly.geometric_poly(40), poly.pdb_poly(40, 0)",
        "for _ in range(200):\n    a * b",
    ),
    "int_poly_mul_deg_120": (
        "20 products of two IntPolynomials of degree 120",
        "a, b = poly.geometric_poly(120), poly.pdb_poly(120, 0)",
        "for _ in range(20):\n    a * b",
    ),
    "weighted_sum_pdb_poly_row_60": (
        "100 sums of r*pdb_poly(60, r) over r = 0..60, the polynomials built once",
        "row = [(r, poly.pdb_poly(60, r)) for r in range(61)]",
        "for _ in range(100):\n    poly.weighted_sum(row)",
    ),
    "brute_pdb_row_n8": (
        "brute_pdb_row(8), the enumerated fixed-block row",
        "",
        "oracle.brute_pdb_row(8)",
    ),
    "brute_pdb_row_n9": (
        "brute_pdb_row(9), the enumerated fixed-block row",
        "",
        "oracle.brute_pdb_row(9)",
    ),
    "egf_deranged_bell_64": (
        "egf_family('deranged_bell', 64)",
        "",
        "ser.egf_family('deranged_bell', 64)",
    ),
    "egf_deranged_bell_256": (
        "egf_family('deranged_bell', 256)",
        "",
        "ser.egf_family('deranged_bell', 256)",
    ),
    "egf_ordered_bell_64": (
        "egf_family('ordered_bell', 64)",
        "",
        "ser.egf_family('ordered_bell', 64)",
    ),
    "egf_ordered_bell_256": (
        "egf_family('ordered_bell', 256)",
        "",
        "ser.egf_family('ordered_bell', 256)",
    ),
    "egf_higher_bernoulli_r3_128": (
        "egf_family('higher_bernoulli', 128, 3)",
        "",
        "ser.egf_family('higher_bernoulli', 128, 3)",
    ),
}
# The costliest checks, cold: grids, kernels, polynomial arithmetic and,
# for oracle_all, enumeration.  The regrouped prop_3_6_*, the row- and
# column-reading thm_2_9, cor_3_5_a and cor_3_5_b, and
# r_ordered_bell_geometric are also timed on wider grids.  cor_3_2_corrected
# runs to n = 12 at any max_n, so at 20 it reads its kernel sides past the
# oracle cap.  egf_all at 32 evaluates pdb_poly at rational y.
CASES.update(
    (
        f"check_{check_id}_n{n}",
        (
            f"checks.check('{check_id}', SuiteConfig(max_n={n}))",
            "",
            f"checks.check('{check_id}', checks.SuiteConfig(max_n={n}))",
        ),
    )
    for check_id, n in [
        *(
            (check_id, n)
            for check_id in (
                "prop_3_6_a",
                "prop_3_6_b",
                "thm_3_1",
                "thm_3_10",
                "cor_3_11",
                "oracle_all",
            )
            for n in (20, 40)
        ),
        ("prop_3_6_a", 60),
        ("prop_3_6_b", 60),
        ("thm_2_9", 40),
        ("cor_3_5_a", 40),
        ("cor_3_5_a", 60),
        ("cor_3_2_corrected", 20),
        ("cor_3_5_b", 40),
        ("r_ordered_bell_geometric", 40),
        ("egf_all", 32),
    ]
)
# The whole suite, cold, as the grid widens; max_n = 32 is the size the
# benchmark's suite workload runs.
CASES.update(
    (
        f"check_all_n{n}",
        (
            f"checks.run_all(SuiteConfig(max_n={n}))",
            "",
            f"checks.run_all(checks.SuiteConfig(max_n={n}))",
        ),
    )
    for n in (20, 32, 40, 60)
)
# A series check at a tolerance that needs deep cutoffs J.
CASES["check_thm_2_10_b_tol_1e-100"] = (
    "checks.check('thm_2_10_b', SuiteConfig(tolerance=Fraction(1, 10**100)))",
    "from fractions import Fraction",
    "checks.check('thm_2_10_b', checks.SuiteConfig(tolerance=Fraction(1, 10**100)))",
)
# Jobs through the command line, each a process of its own whose CPU time and
# peak RSS are the sample's: whole tables and single rows (kernels, rendering
# and writing), start-up alone (``--help``), and an egf job of the benchmark's
# series workload, most of whose cost is start-up.
PROCESS_CASES = {
    "table_pdb_n180_json": "table pdb --max-n 180 --format json",
    "table_pdb_n450_csv": "table pdb --max-n 450 --format csv",
    "table_stirling2_n300_csv": "table stirling2 --max-n 300 --format csv",
    "table_stirling2_n1000_row": "table stirling2 --n 1000 --format csv",
    "table_pdb_n1000_row": "table pdb --n 1000 --format csv",
    "table_complementary_bell_n1000_csv": "table complementary_bell --max-n 1000 --format csv",
    "table_deranged_bell_n1000_csv": "table deranged_bell --max-n 1000 --format csv",
    "table_r_ordered_bell_n200_max_r400": "table r_ordered_bell --n 200 --max-r 400",
    "table_r_ordered_bell_n500_max_r1000": "table r_ordered_bell --n 500 --max-r 1000",
    "table_r_ordered_bell_n1000_max_r1000": "table r_ordered_bell --n 1000 --max-r 1000",
    "table_higher_bernoulli_n1000_r4_csv": "table higher_bernoulli --max-n 1000 --r 4 --format csv",
    "startup_table_help": "table --help",
    "egf_deranged_bell_256_cli": "egf deranged_bell --order 256",
}
CASES.update(
    (
        name,
        (
            f"python -m pdbell {argv} > /dev/null",
            "",
            f"subprocess.run([sys.executable, '-m', 'pdbell', *{argv.split()!r}], "
            "stdout=subprocess.DEVNULL, check=True)",
        ),
    )
    for name, argv in PROCESS_CASES.items()
)

CHILD = """\
import json, resource, subprocess, sys, time
from pdbell import checks, cli, oracle, polynomials as poly, sequences as seq, series as ser
import_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
def cpu_time():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime
{setup}
cpu, wall = cpu_time(), time.perf_counter()
{body}
cpu, wall = cpu_time() - cpu, time.perf_counter() - wall
rss_kb = max(
    resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
)
peaks = {{"peak_rss_mb": rss_kb / 1024, "import_peak_rss_mb": import_rss_kb / 1024}}
print(json.dumps({{"cpu_s": cpu, "wall_s": wall, **peaks}}))
"""


def time_case(src: Path, case: str) -> dict[str, float]:
    _, setup, body = CASES[case]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(setup=setup, body=body)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def parse_tree(text: str) -> tuple[str, Path]:
    label, sep, directory = text.partition("=")
    path = Path(directory)
    if not sep or not label or not (path / "pdbell" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(
            f"expected LABEL=DIR with DIR/pdbell/__init__.py, got {text!r}"
        )
    return label, path.resolve()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=parse_tree, metavar="LABEL=DIR")
    args = parser.parse_args()
    trees = dict(args.trees or [("this", ROOT / "src")])
    if args.trees and len(trees) != len(args.trees):
        parser.error("tree labels must be distinct")
    cases = list(CASES)

    samples = {label: {case: [] for case in cases} for label in trees}

    def wants_more(case: str) -> bool:
        min_cpu_s = MIN_PROCESS_CPU_S if case in PROCESS_CASES else MIN_CPU_S
        return any(
            len(by_case[case]) < REPEAT
            or sum(s["cpu_s"] for s in by_case[case]) < min_cpu_s
            for by_case in samples.values()
        )

    for i in range(MAX_SAMPLES):
        for case in filter(wants_more, cases):
            for label, src in trees.items():
                sample = time_case(src, case)
                samples[label][case].append(sample)
                print(
                    f"run {i + 1} {case} {label}: "
                    f"cpu {sample['cpu_s']:.3f} s wall {sample['wall_s']:.3f} s",
                    file=sys.stderr,
                )

    results = {
        label: {
            case: {
                "cpu_s": round(statistics.median(s["cpu_s"] for s in runs), 4),
                "wall_s": round(statistics.median(s["wall_s"] for s in runs), 4),
                "peak_rss_mb": round(statistics.median(s["peak_rss_mb"] for s in runs), 1),
                "import_peak_rss_mb": round(
                    statistics.median(s["import_peak_rss_mb"] for s in runs), 2
                ),
                "cpu_s_samples": [round(s["cpu_s"], 4) for s in runs],
            }
            for case, runs in by_case.items()
        }
        for label, by_case in samples.items()
    }
    report: dict[str, object] = {
        "cases": {case: CASES[case][0] for case in cases},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "trees": results,
    }
    labels = list(trees)
    if len(labels) > 1:
        base = results[labels[0]]
        report["cpu_ratio_to_" + labels[0]] = {
            label: {
                case: round(results[label][case]["cpu_s"] / base[case]["cpu_s"], 4)
                for case in cases
            }
            for label in labels[1:]
        }
        report["paired_cpu_ratio_to_" + labels[0]] = {
            label: {
                case: round(
                    statistics.median(
                        s["cpu_s"] / b["cpu_s"]
                        for s, b in zip(samples[label][case], samples[labels[0]][case])
                    ),
                    4,
                )
                for case in cases
            }
            for label in labels[1:]
        }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
