"""Delegated measurement-driven computation on shared entanglement, with
verifiable blindness of the client's instructions.

Layers: `qsim` (small dense state vectors), `pauli` (byproduct frames, the
frame matcher and the composition identities that make the round structure
work), `graphs` (cluster resources and the calibrated two-wire unit cell),
`protocols` (the message-level client/server machines), `blindness` (what the
server sees), `adversaries` (cheating strategies and the loss side channel),
`cli`. Every name is reached through its layer module, for example
`blinddelegate.protocols.run_protocol2`; `errors` holds the exceptions.
"""

from . import adversaries, blindness, cli, graphs, pauli, protocols, qsim

__version__ = "0.1.0"
