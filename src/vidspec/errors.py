"""Exception types raised across the package."""


class VidspecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(VidspecError, ValueError):
    """Invalid model or run configuration (e.g. d_model not divisible by n_heads)."""


class SequenceError(VidspecError, ValueError):
    """Malformed multimodal sequence: bad layout, embedding width, or token range."""


class PositionError(VidspecError, ValueError):
    """Position ordering violated or position beyond the model's maximum."""


class MaskError(VidspecError, ValueError):
    """Tree attention mask admits a non-ancestor or is otherwise inconsistent."""


class RollbackError(VidspecError, ValueError):
    """Rollback request keeps more slots than the cache holds, or an invalid subset."""


class GuidanceError(VidspecError, ValueError):
    """Guidance extraction is undefined for the given capture/sequence pair."""


class PlanError(VidspecError, ValueError):
    """Invalid pruning plan or plan applied to an already-pruned sequence."""
