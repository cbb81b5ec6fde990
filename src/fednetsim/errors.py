"""The package's one error type, in a module of its own so that the CLI can
catch it without loading the configuration schema."""


class ConfigError(ValueError):
    """A scenario configuration is malformed or inconsistent."""
