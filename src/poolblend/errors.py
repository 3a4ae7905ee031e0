"""Exception types raised across the toolkit."""


class PoolblendError(Exception):
    """Base class for all toolkit errors."""


# network
class DuplicateName(PoolblendError):
    pass


class InvalidBounds(PoolblendError):
    pass


class UnknownNode(PoolblendError):
    pass


class DuplicateEdge(PoolblendError):
    pass


class ParseError(PoolblendError):
    """Malformed instance document; message carries the offending field path."""


class FrozenNetwork(PoolblendError):
    pass


class NotFrozen(PoolblendError):
    pass


# model
class UnknownConstraint(PoolblendError):
    pass


class MissingVariableValue(PoolblendError):
    pass


# pq formulation
class EmptyLayer(PoolblendError):
    pass


class InfeasiblePool(PoolblendError):
    """A pool has no feed inputs, so its simplex row would read 0 = 1."""


class MissingQuality(PoolblendError):
    pass


class UnmodelledCost(PoolblendError):
    """A nonzero edge cost, edge fixed cost or pool cost: the model has no
    term for it, so solving would silently ignore it."""


# relaxation
class UnboundedBilinearVariable(PoolblendError):
    pass


class BoundsWiden(PoolblendError):
    pass


# pooling cuts
class AlreadyInstalled(PoolblendError):
    pass


class UnboundedOutputCapacity(PoolblendError):
    pass


# restriction
class AlreadyRestricted(PoolblendError):
    pass


class InvalidWeights(PoolblendError):
    pass


class InfeasibleInput(PoolblendError):
    pass


# solve
class NumericalFailure(PoolblendError):
    pass


class NonLinearSideConstraints(PoolblendError):
    """The model carries user rows with bilinear terms outside the PQ core."""


# benchmarking
class InfeasibleSpec(PoolblendError):
    pass


class EmptyInput(PoolblendError):
    pass


class NonPositiveShifted(PoolblendError):
    pass


class MissingRecord(PoolblendError):
    pass
