"""Exception hierarchy.

Mathematical guards (resonance, singular pivot, gain floor, broken certificates)
share a common base so the CLI can map them to exit code 3, distinct from
usage errors (ValueError and friends, exit code 2).
"""


class MathGuardError(Exception):
    """A mathematical guard tripped; results would be meaningless."""


class ResonanceError(MathGuardError):
    """Damping parameter collides with (or is too close to) an eigenvalue difference."""


class SingularMatrixError(MathGuardError):
    """Pivot below tolerance during dense elimination."""


class GainFloorError(MathGuardError):
    """A feedback gain vanished, so the transformation would not invert."""


class CertificationError(MathGuardError):
    """A certified bound failed to hold or a result overflowed; aborts loudly."""
