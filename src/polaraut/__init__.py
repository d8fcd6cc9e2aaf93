"""Automorphism groups of decreasing monomial codes, with decoders to match."""

__version__ = "0.1.0"

from .monomials import (  # noqa: F401
    CapabilityError,
    Monomial,
    MonomialCode,
    decreasing_closure,
    enumerate_decreasing_codes,
    is_decreasing,
    minimal_generators,
    monomial_to_row,
    partial_order_leq,
    row_to_monomial,
)
from .construction import (  # noqa: F401
    ConstructionSpec,
    SpecError,
    bec_bhattacharyya,
    bhattacharyya_bec_design,
    rm_code,
)
from .automorphisms import BlockStructure, blta_size, find_block_structure  # noqa: F401
from .codec import (  # noqa: F401
    aut_sc_decode_batch,
    encode_batch,
    frozen_mask,
    polar_transform,
    sc_decode_batch,
    scl_decode_batch,
)
from .channel import (  # noqa: F401
    ChannelParams,
    SimResult,
    run_bler,
    transmit,
    wilson_interval,
)

# The verification oracles stay off the hot path: `import polaraut` leaves
# them unloaded until one of these names, or `polaraut.verify`, is read.
_VERIFY_NAMES = frozenset({
    "AffineAutomorphism", "Permutation", "block_reversal_matrix",
    "brute_force_stabilizer", "interval_disjoint_decomposition",
    "is_code_automorphism", "lemma1_decompose", "position_action",
    "sample_blta", "stabilizes",
})


def __getattr__(name):
    if name == "verify":
        # Not `from . import verify`: its hasattr check would call back here.
        import importlib

        return importlib.import_module(f"{__name__}.verify")
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_VERIFY_NAMES, "verify"})
