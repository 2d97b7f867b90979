"""Error types shared across the package."""


class ShapeError(ValueError):
    """Raised when tensor shapes violate an operation's contract."""


class ConfigError(ValueError):
    """Raised for invalid configuration values or files."""


class ContractError(ValueError):
    """Raised when a caller violates a documented API precondition."""
