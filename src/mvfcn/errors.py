"""Exception hierarchy shared across the engine.

Each class's ``exit_code`` is the CLI's stable exit code for it: ConfigError
and ShapeError are usage problems (2), DataError covers datasets, image files
and unwritable outputs (3), and CheckpointError covers everything about
serialized model state, read or written (4).
"""


class EngineError(Exception):
    """Base class for every failure raised by this package."""
    exit_code = 1


class ConfigError(EngineError):
    """Invalid configuration key, value, or command-line argument."""
    exit_code = 2


class DataError(EngineError):
    """Unreadable, malformed, or misaligned image/dataset input, or an unwritable output."""
    exit_code = 3


class CheckpointError(EngineError):
    """Corrupt, incompatible, mismatched, or unwritable checkpoint file."""
    exit_code = 4


class ShapeError(EngineError):
    """Tensor shape or layer-spec contract violation."""
    exit_code = 2
