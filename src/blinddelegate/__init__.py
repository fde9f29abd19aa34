"""Delegated measurement-driven computation on shared entanglement, with
verifiable blindness of the client's instructions.

Layers: `qsim` (small dense state vectors), `pauli` (byproduct frames, the
frame matcher and the composition identities that make the round structure
work), `graphs` (cluster resources and the calibrated two-wire unit cell),
`protocols` (the message-level client/server machines), `blindness` (what the
server sees), `adversaries` (cheating strategies and the loss side channel),
`cli`.
"""

from . import adversaries, blindness, cli, graphs, pauli, protocols, qsim
from .errors import (
    BlindDelegateError,
    CalibrationError,
    CapacityError,
    ConfigError,
    DegenerateMeasurementError,
    FormatError,
    RetryLimitError,
)
from .pauli import PauliFrame, verify_identity
from .protocols import (
    AngleProgram,
    ChannelModel,
    Message,
    RunResult,
    compile_circuit,
    parse_circuit,
    run_protocol1,
    run_protocol2,
    run_teleport_variant,
    round2_step,
    transmit,
)
from .qsim import Angle, DensityMatrix, GateMatrix, StateVector

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AngleProgram",
    "BlindDelegateError",
    "CalibrationError",
    "CapacityError",
    "ChannelModel",
    "ConfigError",
    "DegenerateMeasurementError",
    "DensityMatrix",
    "FormatError",
    "GateMatrix",
    "Message",
    "PauliFrame",
    "RetryLimitError",
    "RunResult",
    "StateVector",
    "adversaries",
    "blindness",
    "cli",
    "compile_circuit",
    "graphs",
    "parse_circuit",
    "pauli",
    "protocols",
    "qsim",
    "round2_step",
    "run_protocol1",
    "run_protocol2",
    "run_teleport_variant",
    "transmit",
    "verify_identity",
]
