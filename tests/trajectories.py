"""Per-step views of a trajectory, for tests that read a step's fields by name."""

from adaplus.transcript import StepTranscript


def by_step(trajectory):
    """One ``StepTranscript`` per leading row of a ``(steps, 9, dim)`` array,
    naming that row's nine rows in ``ALL_FIELDS`` order: ``by_step(trajectory)[t - 1]``
    is step ``t``."""
    return [StepTranscript(block) for block in trajectory]
