"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with an operation's contract."""


class TapeError(RuntimeError):
    """Misuse of a gradient tape (non-scalar loss, double backward, ...)."""


class ConfigError(ValueError):
    """A configuration violates a module precondition."""


class DataFormatError(ValueError):
    """An on-disk file is malformed (bad magic, truncation, bad labels)."""


class TrainingDiverged(RuntimeError):
    """Loss or gradients became NaN; the trainer that catches it sets the
    step/epoch/batch position."""

    step: int | None = None
    epoch: int | None = None
    batch: int | None = None


class StepWriteFailed(RuntimeError):
    """A step's files could not be written after training began."""
