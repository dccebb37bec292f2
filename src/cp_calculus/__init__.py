"""Radon-Nikodym calculus for completely positive maps between matrix algebras.

A CP map dominated by another is a compression of it: there is a density
on the dominating map's dilation environment whose expectation recovers
the dominated map.  This package computes those densities and everything
the picture buys at matrix scale: domination tests, order dilations with
increasing projections, process-operator duality against a reference
channel, and norm brackets for distinguishing map pairs.  A JSON CLI
(``cp-calculus``) fronts the same analyses.
"""

from types import ModuleType as _ModuleType

from .cpmap import (
    ChoiOperator,
    CpMap,
    StinespringDilation,
    add,
    apply,
    apply_dual,
    canonicalize,
    choi_rank,
    choi_unnormalized,
    compose,
    dilation_matrix,
    from_choi,
    from_stinespring,
    is_channel,
    is_pure,
    is_quantum_operation,
    kraus_stack,
    scale,
    to_choi,
    to_stinespring,
)
from .duality import (
    FaithfulDerivative,
    FaithfulState,
    ReferenceChannel,
    faithful_channel,
    faithful_rn,
    jam_apply,
    jam_compose,
    jam_forward,
    jam_is_operation,
    reference_channel,
)
from .errors import (
    CpError,
    DimMismatch,
    DimensionLimit,
    InvariantViolation,
    IoError,
    NotAChannel,
    NotADecomposition,
    NotAResolution,
    NotAnOperation,
    NotDominated,
    NotHermitian,
    NotMonotone,
    NotPsd,
    SchemaError,
    ShapeMismatch,
)
from .norms import (
    CommonDilationPair,
    NormReport,
    bound_dilation_diff,
    bound_rn,
    cb_norm_cp,
    common_dilation,
    diamond_lower,
    norm_report,
)
from .order import (
    DifferenceVerdict,
    DominationConstant,
    NaimarkDilation,
    PvmChain,
    c_min,
    channel_difference_is_cp,
    mix_channels,
    naimark_dilate,
    order_chain_dilation,
    pad_to_channel,
)
from .radon import (
    PovmDecomposition,
    RescaledKraus,
    RnDerivative,
    cp_difference,
    dominates,
    instrument_rn,
    rescaled_kraus,
    rn_derivative,
    rn_reconstruct,
)

__version__ = "0.1.0"

# the public names are the ones imported above, so they are listed once
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
