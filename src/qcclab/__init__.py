"""Workbench for quantum convolutional stabilizer codes.

Builds quantum convolutional codes from classical convolutional parents,
tests encoders for catastrophic error propagation, decodes Pauli noise
with a minimum-weight trellis search, and verifies the explicit encoding
circuits against a dense qudit state-vector engine.
"""

__version__ = "0.1.0"

from .channel import ChannelModel, ChannelSpec, run_trials, sample_error, union_bound
from .convcode import ConvCode, build_trellis, encode_stream, viterbi_decode
from .gfpoly import (
    CatastrophicityVerdict,
    Poly,
    PolyMatrix,
    catastrophic_check,
    minors,
    poly_gcd,
    right_inverse,
)
from .pauli import PauliWindow, StabilizerWindow
from .qcc import (
    CatastrophicParentError,
    QccCode,
    codeword_form,
)
from .qviterbi import build_error_trellis, qva_decode, streaming_decode
from .statevec import StateVector, decode_step_eq1, encode_eq1, fidelity, verify_logical

__all__ = [
    "ChannelModel",
    "ChannelSpec",
    "ConvCode",
    "CatastrophicParentError",
    "CatastrophicityVerdict",
    "PauliWindow",
    "Poly",
    "PolyMatrix",
    "QccCode",
    "StabilizerWindow",
    "StateVector",
    "build_error_trellis",
    "build_trellis",
    "catastrophic_check",
    "codeword_form",
    "decode_step_eq1",
    "encode_eq1",
    "encode_stream",
    "fidelity",
    "minors",
    "poly_gcd",
    "qva_decode",
    "right_inverse",
    "run_trials",
    "sample_error",
    "streaming_decode",
    "union_bound",
    "verify_logical",
    "viterbi_decode",
]
