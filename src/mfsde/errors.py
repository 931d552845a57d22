"""Exception types shared across the package, and the parameter check of its catalogs."""


class MfsdeError(Exception):
    """Base class for all package errors."""


class ContractError(MfsdeError):
    """A caller violated a documented precondition (dims, grids, ranges)."""


class EvaluationError(MfsdeError):
    """A user-supplied function produced a non-finite or malformed value."""


class CapabilityError(MfsdeError):
    """A required derivative evaluator or feature is not available."""


class SimulationError(MfsdeError):
    """Particle state blew up or the scheme otherwise failed mid-run."""

    def __init__(self, message, step=None, particle=None):
        super().__init__(message)
        self.step = step
        self.particle = particle


class DataError(MfsdeError):
    """Input data violated a declared bound (e.g. positivity of terminal data)."""


class ConfigError(MfsdeError):
    """Scenario configuration failed validation; carries all violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def check_params(what, params, reads):
    """ContractError naming each key of ``params`` that ``what`` does not read."""
    unread = sorted(set(params) - set(reads))
    if unread:
        raise ContractError(
            f"{what} does not read {', '.join(map(repr, unread))} "
            f"(it reads {', '.join(map(repr, reads)) or 'no parameter'})"
        )
