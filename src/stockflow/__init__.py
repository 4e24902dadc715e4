"""Stock-flow diagrams as categorical databases, with ODE, causal-loop and
system-structure semantics, pushout composition and pullback stratification."""

from .acset import (
    AcsetError,
    Homomorphism,
    Instance,
    PullbackResult,
    compose_hom,
    is_natural,
    naturality_failures,
    pullback,
    pushout_quotient,
    validate_instance,
)
from .compose import Box, WiringPattern, apex, oapply
from .diagrams import (
    DiagramError,
    Foot,
    OpenStockFlow,
    StockFlowDiagram,
    attach_dynamics,
    build_stockflow,
    build_system_structure,
    flatten_names,
    foot,
    open_diagram,
    to_system_structure,
)
from .expressions import (
    EvalError,
    Expression,
    ExpressionError,
    ParseError,
    format_expression,
    parse_expression,
)
from .odes import (
    OdeError,
    Trajectory,
    integrate_adaptive,
    integrate_fixed,
    sumvar_values,
    vectorfield,
)
from .schema import SchemaDef, schema_causalloop, schema_interface, schema_stockflow
from .stratify import TypedDiagram, make_typed, stratify, typed_stratify
from .views import CausalLoopGraph, to_causal_loop

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
