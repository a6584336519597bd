"""tempcert: decide whether bipartite quantum statistics admit a causal explanation.

The toolkit reconstructs temporal channels from bipartite states, decomposes
them into a generalized dephasing stage followed by a pretty-good
measure-and-prepare stage, and certifies temporal compatibility through a
dephased partial-transpose test with a built-in cross-check.
"""

# Each module's ``__all__`` is the one list of its public names; the package re-exports them as declared.
from .channels import *
from .ensembles import *
from .operators import *
from .retrodiction import *
from .sot import *
from .temporal import *

__version__ = "0.1.0"
