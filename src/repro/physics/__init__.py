"""Physical loss models for the rearrangement process."""

from repro.physics.loss import (
    DEFAULT_LOSS_MODEL,
    LossModel,
    LossReport,
    expected_atom_survival,
    simulate_losses,
    simulate_losses_reference,
)

__all__ = [
    "DEFAULT_LOSS_MODEL",
    "LossModel",
    "LossReport",
    "expected_atom_survival",
    "simulate_losses",
    "simulate_losses_reference",
]
