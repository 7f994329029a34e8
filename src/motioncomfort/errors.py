"""Exception types and the process exit codes they map to."""

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ComfortError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    kind = "error"


class ConfigError(ComfortError):
    """Bad run configuration: unknown model, missing file, invalid override."""

    exit_code = EXIT_CONFIG
    kind = "config"


class DataError(ComfortError):
    """Malformed or physically invalid input data."""

    exit_code = EXIT_DATA
    kind = "data"


class NumericError(ComfortError):
    """A computation produced non-finite or otherwise unusable values."""

    exit_code = EXIT_NUMERIC
    kind = "numeric"
