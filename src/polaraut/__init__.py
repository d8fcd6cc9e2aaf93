"""Automorphism groups of decreasing monomial codes, with decoders to match.

The theory checks are in `polaraut.verify`, which this package never imports."""

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
