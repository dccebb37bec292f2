"""Radon-Nikodym calculus for completely positive maps between matrix algebras.

A CP map dominated by another is a compression of it: there is a density
on the dominating map's dilation environment whose expectation recovers
the dominated map.  This package computes those densities and everything
the picture buys at matrix scale: domination tests, order dilations with
increasing projections, process-operator duality against a reference
channel, and norm brackets for distinguishing map pairs.  A JSON CLI
(``cp-calculus``) fronts the same analyses.

``import cp_calculus`` loads no layer module: a public name is looked up
in the module that defines it on each access (PEP 562), and that module
is imported on first use, so a CLI command pays only for the layers it runs.
"""

import sys
from importlib import import_module

# each layer module and the public names it defines
_EXPORTS = {
    "cpmap": (
        "ChoiOperator", "CpMap", "StinespringDilation", "add", "apply", "apply_dual",
        "canonicalize", "choi_rank", "choi_unnormalized", "compose", "dilation_matrix",
        "from_choi", "from_stinespring", "is_channel", "is_pure", "is_quantum_operation",
        "kraus_stack", "scale", "to_choi", "to_stinespring",
    ),
    "duality": (
        "FaithfulDerivative", "FaithfulState", "ReferenceChannel", "faithful_channel",
        "faithful_rn", "jam_apply", "jam_compose", "jam_forward", "jam_is_operation",
        "reference_channel",
    ),
    "errors": (
        "CpError", "DimMismatch", "DimensionLimit", "InvariantViolation", "IoError",
        "NotAChannel", "NotADecomposition", "NotAResolution", "NotAnOperation",
        "NotDominated", "NotHermitian", "NotMonotone", "NotPsd", "SchemaError",
        "ShapeMismatch",
    ),
    "norms": (
        "CommonDilationPair", "NormReport", "bound_dilation_diff", "bound_rn",
        "cb_norm_cp", "common_dilation", "diamond_lower", "norm_report",
    ),
    "order": (
        "DifferenceVerdict", "DominationConstant", "NaimarkDilation", "PvmChain", "c_min",
        "channel_difference_is_cp", "mix_channels", "naimark_dilate",
        "order_chain_dilation", "pad_to_channel",
    ),
    "radon": (
        "PovmDecomposition", "RescaledKraus", "RnDerivative", "cp_difference", "dominates",
        "instrument_rn", "rescaled_kraus", "rn_derivative", "rn_reconstruct",
    ),
}
_HOME = {name: f"{__name__}.{layer}" for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    # nothing is bound here, so a function patched in its module is what callers get
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(home) or import_module(home), name)


def __dir__():
    return sorted({*globals(), *__all__})
