"""Exception types shared across the lattice, solvers, and CLI."""


class LatticeLabError(Exception):
    """Base class for every package-specific error."""


class InvalidGrid(LatticeLabError):
    """Time grid has a non-positive horizon or fewer than one step."""


class DepthExceeded(LatticeLabError):
    """Requested tree depth is beyond the supported bound."""


class TreeMismatch(LatticeLabError):
    """Two objects that must share a tree were built on different trees."""


class UnsupportedTreeMode(LatticeLabError):
    """Operation needs path-level resolution the tree layout cannot give."""


class ContractionViolated(LatticeLabError):
    """Implicit driver step is not a contraction (L_y * dt >= 1)."""


class NonConvergence(LatticeLabError):
    """Fixed-point iteration failed to meet its residual within the cap."""


class NumericalBreakdown(LatticeLabError):
    """A backward sweep produced a non-finite value at some level."""


class TerminalBelowObstacle(LatticeLabError):
    """Terminal values dip below the obstacle at a stopping node."""


class RuleOrderViolated(LatticeLabError):
    """A stopping rule does not precede the one it must precede."""


class NoStrictGap(LatticeLabError):
    """Witness construction needs terminal data with a strict gap somewhere."""


class WitnessConstructionFailed(LatticeLabError):
    """The separating stopping rule failed its own certification."""


class PositivityViolated(LatticeLabError):
    """Multiplicative stock step would produce a non-positive price."""


class ProbabilityOutOfRange(LatticeLabError):
    """Risk-neutral one-step probability left the open interval (0, 1)."""


class NoBracket(LatticeLabError):
    """Calibration objective has no interior minimum inside the bracket."""


class ExpressionError(LatticeLabError):
    """Driver expression cannot be parsed, printed, or evaluated."""


class ConfigError(LatticeLabError):
    """Run configuration is missing fields or fails validation."""
