"""Common exception hierarchy for the workbench."""


class HjikitError(Exception):
    """Base class for all workbench errors."""


class DimensionError(HjikitError):
    """A state, input or candidate has the wrong dimension for the system or candidate."""
