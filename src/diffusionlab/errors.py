"""Exception types shared across the solvers."""


class DiffusionLabError(Exception):
    """Base class for all solver and interface errors."""


class DomainError(DiffusionLabError):
    """Inputs outside the mathematical domain of an operation (e.g. p = 1
    where a formula divides by p - 1, or q <= q0 in a rate formula)."""


class SingularityError(DiffusionLabError):
    """The profile dropped below the positivity floor; the parameter regime
    is outside the theory's hypotheses or the integration failed."""


class ToleranceError(DiffusionLabError):
    """Adaptive step size underflowed before the requested accuracy was met."""


class WindowError(DiffusionLabError):
    """A fit window is too narrow, too sparse, or outside the data range."""


class RangeError(DiffusionLabError):
    """A requested evaluation point lies outside the tabulated range."""


class NoCrossingError(DiffusionLabError):
    """Radial shooting found no zero crossing: a shot's outward phase failed
    or stayed above its switch height, or a re-shoot could not land on its
    target radius."""


class NewtonDivergence(DiffusionLabError):
    """The Newton iteration failed to converge for this time step.
    Callers respond by halving dt."""


class StepTooSmall(DiffusionLabError):
    """Time stepping ground to a halt: dt fell below the hard floor."""
