"""Exception types shared across the package, and the rule that a count is
an ``int`` (not a bool), or is refused with :class:`ParameterError`."""


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class DomainError(ValueError):
    """An element lies outside the filter's universe."""


class UnsupportedOperationError(RuntimeError):
    """The requested operation is not defined for this filter kind."""


def _require_ints(**counts) -> None:
    """Refuse a count that is not an int, naming it; a bool is not one."""
    for name, value in counts.items():
        if type(value) is not int:
            raise ParameterError(f"{name} must be an int, not {type(value).__name__}")
