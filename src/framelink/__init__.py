"""Exact invariants of framed, classical, and singular links via the
Yokonuma-Hecke algebra of type A and its Markov trace.

Everything is computed in exact arithmetic: rational functions in u and
the trace parameters over cyclotomic coefficients.  No floats anywhere.
"""

__version__ = "0.1.1"

from .braids import (
    BraidWord,
    conjugate,
    framing,
    framing_shift,
    parse_braid,
    sigma,
    stabilize,
    tau,
)
from .algebra import (
    AlgebraElement,
    idempotent_e,
    map_to_algebra,
    quotient_generator,
    verify_relation,
)
from .trace import Tracer
from .esystem import (
    ESolution,
    build_solution,
    e_d_value,
    enumerate_solutions,
    esystem_residual,
    fourier_transform,
    inverse_fourier,
)
from .invariants import (
    InvariantRequest,
    InvariantValue,
    compare_links,
    framed_jones,
    homflypt,
    invariant,
    jones,
    lambda_d,
    verify_skein,
)
from .quotients import (
    QuotientCheck,
    admissible,
    ideal_inclusion,
    quotient_report,
    trace_vanishes_on_ideal,
)

__all__ = [
    "__version__",
    "BraidWord", "conjugate", "framing", "framing_shift", "parse_braid",
    "sigma", "stabilize", "tau",
    "AlgebraElement", "idempotent_e", "map_to_algebra", "quotient_generator",
    "verify_relation",
    "Tracer",
    "ESolution", "build_solution", "e_d_value", "enumerate_solutions",
    "esystem_residual", "fourier_transform", "inverse_fourier",
    "InvariantRequest", "InvariantValue", "compare_links", "framed_jones",
    "homflypt", "invariant", "jones", "lambda_d", "verify_skein",
    "QuotientCheck", "admissible", "ideal_inclusion", "quotient_report",
    "trace_vanishes_on_ideal",
]
