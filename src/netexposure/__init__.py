"""Expected counterparty credit exposure of financial networks.

Markets are class-labelled (di)graphs whose links carry i.i.d. symmetric
position values. Netting conventions partition each participant's links
into netting sets; the expected exposure of a set comes out of its
characteristic function through a Hilbert-transform closed form, and every
analytic value can be cross-checked against a seeded Monte Carlo oracle.
Every name in a module's ``__all__`` is importable from the package.
"""

from .advantage import *
from .charfn import *
from .exposure import *
from .transforms import *
from .io import *
from .market import *
from .mc import *

__version__ = "0.1.0"
