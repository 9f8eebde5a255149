"""Unsupervised domain adaptation in context.

Reference implementations of ratio-weighted learning, adversarial feature
alignment, and overlap-gated selection between them, together with explicit
transformer weight constructions that execute each algorithm and
verification routines that certify the match with measured error bounds.
"""

from .datagen import (
    DomainPair,
    ShiftGaussConfig,
    TwoMoonConfig,
    encode_tokens,
    gen_shifted_gaussians,
    gen_two_moon,
)
from .tfcore import (
    AttentionHead,
    HeadFamily,
    SlotLayout,
    TokenMatrix,
    Transformer,
    TransformerLayer,
    forward,
    forward_trace,
    read_output,
    tf_norm,
)
from .uda_ref import (
    IcudaResult,
    SelectorConfig,
    dann_pipeline,
    icuda_predict,
    iwl_pipeline,
    kde_eval,
    softmin,
)
from .build_iwl import build_iwl_transformer, verify_iwl
from .build_dann import build_dann_transformer, verify_dann
from .build_select import (
    IcudaBuildConfig,
    SelectionReport,
    build_icuda_transformer,
    encode_icuda,
    verify_icuda,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionHead",
    "DomainPair",
    "HeadFamily",
    "IcudaBuildConfig",
    "IcudaResult",
    "SelectionReport",
    "SelectorConfig",
    "ShiftGaussConfig",
    "SlotLayout",
    "TokenMatrix",
    "Transformer",
    "TransformerLayer",
    "TwoMoonConfig",
    "build_dann_transformer",
    "build_icuda_transformer",
    "build_iwl_transformer",
    "dann_pipeline",
    "encode_icuda",
    "encode_tokens",
    "forward",
    "forward_trace",
    "gen_shifted_gaussians",
    "gen_two_moon",
    "icuda_predict",
    "iwl_pipeline",
    "kde_eval",
    "read_output",
    "softmin",
    "tf_norm",
    "verify_dann",
    "verify_icuda",
    "verify_iwl",
]
