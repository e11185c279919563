"""Observer-invariant time derivatives of fields on moving surfaces.

The package computes material and convected (upper, lower, Jaumann) rates of
scalar, tangential-vector, and 2-tensor fields on parametrized surfaces that
move and deform in three dimensions, together with surface differential
operators and a gradient-flow integrator for tensor order parameters.

Each module's ``__all__`` is the one list of its public names; the package
exports exactly the union of them.
"""
from . import (
    chart_kernel, diffops, errors, fields, geometry, landau, probes, thinfilm, timederiv, util
)
from .chart_kernel import *
from .diffops import *
from .errors import *
from .fields import *
from .geometry import *
from .landau import *
from .probes import *
from .thinfilm import *
from .timederiv import *
from .util import *

__version__ = "0.1.0"

__all__ = [
    *chart_kernel.__all__,
    *diffops.__all__,
    *errors.__all__,
    *fields.__all__,
    *geometry.__all__,
    *landau.__all__,
    *probes.__all__,
    *thinfilm.__all__,
    *timederiv.__all__,
    *util.__all__,
]
