"""Exception types shared across the package."""


class InputError(ValueError):
    """A polytope or coin file that is not JSON or not in its schema."""


class FlowFactoryError(Exception):
    """Base class for all errors raised by flowfactory."""


class InvalidInstance(FlowFactoryError):
    """Malformed graph, polytope, or request parameters."""


class BoundaryCoin(FlowFactoryError):
    """A coin bias is exactly 0 or 1; the factory does not handle boundary coins."""


class NotInPolytope(FlowFactoryError):
    """A point fails the flow balance constraints of its polytope."""


class DisconnectedEdges(FlowFactoryError):
    """The variable edge set is disconnected as an undirected graph."""


class TooLargeForOracle(FlowFactoryError):
    """Instance exceeds the enumeration cap for exact oracle computations."""


class NotCirculation(FlowFactoryError):
    """Vector does not satisfy the circulation balance equations."""


class NoArborescence(FlowFactoryError):
    """No arborescence (or no qualifying directed tree) exists for the request."""


class MaxRestartsExceeded(FlowFactoryError):
    """A rejection loop hit its safety cap; inputs likely violate preconditions."""


class DegenerateDistribution(FlowFactoryError):
    """All sampling polynomials vanish; the output distribution is undefined."""


class IdentityViolated(FlowFactoryError):
    """An exact algebraic identity failed to verify (implementation bug)."""
