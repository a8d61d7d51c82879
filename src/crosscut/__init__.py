"""crosscut: realizability and construction of binary matrices and plane
sets with prescribed cross sections, in exact dyadic arithmetic.

The package exports the entry points and the types they return or raise;
everything else is imported from its own module (crosscut.stepfn,
crosscut.report, crosscut.ingest, ...)."""

from .dyadic import Dyadic
from .feasibility import (
    FeasibilityReport,
    Partition,
    Verdict,
    Witness,
    check_gale_ryser,
    check_hlp,
)
from .gridset import (
    DyadicSet,
    GenerationRecord,
    GridParams,
    InfeasibleInput,
    InvariantViolation,
    QuantizationError,
    SwapRecord,
    TraceSummary,
    discrete_exact_set,
    reconstruct,
    vertical_section,
)
from .matrices import (
    BinaryMatrix,
    InfeasibleMargins,
    InstanceTooLarge,
    brute_force_realize,
    ryser_construct,
    swap_construct,
)
from .report import AuditResult, MalformedTrace, audit_trace
from .stepfn import StepFunction

__version__ = "0.1.0"

__all__ = [
    "AuditResult",
    "BinaryMatrix",
    "Dyadic",
    "DyadicSet",
    "FeasibilityReport",
    "GenerationRecord",
    "GridParams",
    "InfeasibleInput",
    "InfeasibleMargins",
    "InstanceTooLarge",
    "InvariantViolation",
    "MalformedTrace",
    "Partition",
    "QuantizationError",
    "StepFunction",
    "SwapRecord",
    "TraceSummary",
    "Verdict",
    "Witness",
    "audit_trace",
    "brute_force_realize",
    "check_gale_ryser",
    "check_hlp",
    "discrete_exact_set",
    "reconstruct",
    "ryser_construct",
    "swap_construct",
    "vertical_section",
]
