"""Exact staircases of best rational approximation and their order dynamics.

Every decision is exact: integer or Fraction arithmetic on continued
fraction expansions.  Floats appear only as correctly rounded sort keys,
whose strict order implies the exact order.

The root exports the names of the README's library sketch; everything
else is imported from its module (cf_engine, psi, order_dynamics,
triangle_perm, structure_verify, synth, cli_io, errors).
"""

__version__ = "0.1.0"

from .cf_engine import parse_source
from .order_dynamics import FunctionTuple, order_vector_at
from .psi import psi_at
