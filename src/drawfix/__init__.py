"""Balanced knockout tournaments: who can be made champion, and how likely.

The library models a field of players with pairwise win relations or
probabilities, finds and counts the bracket draws that crown a chosen
player, computes championship probabilities under a uniformly random
draw, and tests real fields against a one-parameter model of rank
upsets.
"""

import os

# The subset sweep multiplies blocks of a few thousand 16-wide rows by a
# 16 x 16 matrix.  OpenBLAS splits such a product over worker threads
# that gain nothing at this size, and while another process holds a CPU
# the spinning workers make a sweep two to three times slower.  One BLAS
# thread keeps every result bit for bit and the time steady.  The
# setting takes effect only if numpy is not loaded yet, as under the CLI,
# and an explicit OPENBLAS_NUM_THREADS wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import core, crmodel, ingest, solver, stats, winprob
from .core import *
from .crmodel import *
from .ingest import *
from .solver import *
from .stats import *
from .winprob import *

__version__ = "0.1.0"

# Each layer module declares its public names once, in its own __all__.
__all__ = ["__version__"] + [
    name
    for module in (core, crmodel, ingest, solver, stats, winprob)
    for name in module.__all__
]
