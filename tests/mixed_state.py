"""Test-only helpers: a two-qubit model's value on the isotropic mixture."""

from bellscan.core import Behavior, evaluate
from bellscan.quantum import KIND_ALWAYS_ZERO, KIND_PROJECTOR, model_behavior


def mixed_behavior(model) -> Behavior:
    """Statistics of the model's measurements on the maximally mixed state."""
    def marg(m):
        if m.kind == KIND_PROJECTOR:
            return 0.5
        return 1.0 if m.kind == KIND_ALWAYS_ZERO else 0.0
    p_a = [marg(m) for m in model.alice_meas]
    p_b = [marg(m) for m in model.bob_meas]
    return Behavior(p_a, p_b, [[a * b for b in p_b] for a in p_a])


def noisy_value(f, model, w):
    """Value of f on w |psi><psi| + (1 - w) 1/4, from the two closed-form
    behaviors: the model's state enters the mixture linearly."""
    return (w * evaluate(f, model_behavior(model))
            + (1 - w) * evaluate(f, mixed_behavior(model)))
