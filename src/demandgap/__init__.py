"""demandgap: exchange-economy equilibrium structure and input-output
recession diagnostics.

The library has two layers.  The exchange layer models ``l`` consumers
trading ``n`` goods (equilibrium predicates, endowment synthesis and
decomposition, equivalent redistributions that degenerate prices,
constructive existence solvers).  The national layer reads value-form
input-output tables, runs the aggregated equilibrium machinery, and scores
how far an economy sits from clearing: per-industry demand shortfalls and
the recession ratio.

Each module's ``__all__`` is the only declaration of its public names; the
package re-exports those lists.  A new public name goes in its module's
``__all__`` and in the snapshot of ``tests/test_api.py``, and nowhere else.
"""

from .errors import *
from .exchange import *
from .structure import *
from .solvers import *
from .leontief import *
from .recession import *
from .niot import *
from .demo import *

__version__ = "0.1.0"

__all__ = (
    ["__version__"]
    + errors.__all__
    + exchange.__all__
    + structure.__all__
    + solvers.__all__
    + leontief.__all__
    + recession.__all__
    + niot.__all__
    + demo.__all__
)
