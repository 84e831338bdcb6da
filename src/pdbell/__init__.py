"""Exact combinatorics of ordered set partitions with deranged blocks.

The central objects are counts of ordered partitions of an n-set in which
exactly r blocks stay in their canonical (min-sorted) position, together
with the polynomial families that refine them by block count.  Everything
is computed in exact integer and rational arithmetic: memoized Stirling
triangles, derangement and Bell variants, dense integer polynomials,
truncated rational power series, and Bernoulli numbers of higher order.

A brute-force enumeration oracle recounts the small cases from the
definitions, and a registry of identity checks verifies every stated
relation between the families on finite grids, reporting a first
counterexample with deterministic witnesses where a stated form fails.

``pdbell.bernoulli`` is the function ``bernoulli(n)``, the public spelling
for Bernoulli numbers; it shadows the submodule of the same name as a
package attribute.  The submodule stays importable by its full name:
``from pdbell.bernoulli import higher_bernoulli`` or
``importlib.import_module("pdbell.bernoulli")``.
"""

# checks comes first: compiling it is the largest transient of the import,
# and it peaks lowest before the other modules are loaded.
from .checks import (
    CheckReport,
    InconclusiveError,
    Status,
    SuiteConfig,
    SuiteReport,
    Witness,
    approx_e,
    check,
    corrected_id_for,
    check_summary,
    known_failing_ids,
    registered_ids,
    run_all,
)
from .bernoulli import bernoulli, higher_bernoulli
from .oracle import (
    CapExceededError,
    PartitionRGS,
    brute_bell,
    brute_complementary_bell,
    brute_ordered_bell,
    brute_partial_derangement,
    brute_pdb,
    brute_pdb_row,
    brute_stirling2,
    enumerate_partitions,
    is_valid_rgs,
)
from .polynomials import (
    IntPolynomial,
    exponential_poly,
    geometric_poly,
    pdb_poly,
    r_exponential_poly,
)
from .sequences import (
    bell,
    complementary_bell,
    complementary_r_bell,
    derangement,
    deranged_bell,
    ordered_bell,
    partial_derangement,
    pdb_number,
    pdb_row,
    r_ordered_bell,
    r_stirling2,
    stirling2,
    truncated_ordered_bell,
)
from .series import (
    SeriesDivisionError,
    SeriesExpError,
    TruncatedSeries,
    egf_family,
    egf_pdb,
    expm1,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sequences
    "stirling2",
    "r_stirling2",
    "derangement",
    "partial_derangement",
    "bell",
    "complementary_bell",
    "complementary_r_bell",
    "ordered_bell",
    "r_ordered_bell",
    "truncated_ordered_bell",
    "deranged_bell",
    "pdb_number",
    "pdb_row",
    # polynomials
    "IntPolynomial",
    "exponential_poly",
    "r_exponential_poly",
    "geometric_poly",
    "pdb_poly",
    # bernoulli
    "bernoulli",
    "higher_bernoulli",
    # series
    "TruncatedSeries",
    "SeriesDivisionError",
    "SeriesExpError",
    "expm1",
    "egf_pdb",
    "egf_family",
    # oracle
    "CapExceededError",
    "PartitionRGS",
    "is_valid_rgs",
    "enumerate_partitions",
    "brute_pdb_row",
    "brute_pdb",
    "brute_partial_derangement",
    "brute_stirling2",
    "brute_bell",
    "brute_complementary_bell",
    "brute_ordered_bell",
    # checks
    "Status",
    "Witness",
    "CheckReport",
    "SuiteConfig",
    "SuiteReport",
    "InconclusiveError",
    "approx_e",
    "check",
    "run_all",
    "registered_ids",
    "check_summary",
    "known_failing_ids",
    "corrected_id_for",
]
