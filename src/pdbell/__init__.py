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

Every public name of the layers ``sequences``, ``polynomials``,
``bernoulli``, ``series``, ``oracle`` and ``checks`` (its module's
``__all__``) is importable from the package, e.g.
``from pdbell import pdb_rows``.

``pdbell.bernoulli`` is the function ``bernoulli(n)``, the public spelling
for Bernoulli numbers; it shadows the submodule of the same name as a
package attribute.  The submodule stays importable by its full name:
``from pdbell.bernoulli import higher_bernoulli`` or
``importlib.import_module("pdbell.bernoulli")``.
"""

import sys

# checks comes first: compiling it is the largest transient of the import,
# and it peaks lowest before the other modules are loaded.
from .checks import *
from .bernoulli import *
from .oracle import *
from .polynomials import *
from .sequences import *
from .series import *

__version__ = "0.1.0"

# Each layer's __all__ is the one list of its public names.  The modules are
# read from sys.modules: the package attribute ``bernoulli`` is the function.
__all__ = ["__version__"]
for _layer in ("sequences", "polynomials", "bernoulli", "series", "oracle", "checks"):
    __all__ += sys.modules[f"{__name__}.{_layer}"].__all__
del _layer, sys
