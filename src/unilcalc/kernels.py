"""Bit-packed F2[t] / Z4[t] kernels, the one import point for the package.

The functions are defined in unilcalc._gf2; see its docstring for the
representation of F2[t] and Z4[t] elements.
"""

# the bodies stay in their own module so that a tracer rebinding these names
# counts the calls made into the kernels, not the calls between them
from unilcalc._gf2 import (  # noqa: F401
    BACKEND,
    gf2_cross_square,
    gf2_deg,
    gf2_divmod,
    gf2_mul,
    gf2_spread,
    z4_add,
    z4_mul,
    z4_neg,
    z4_sq_lift,
)
