"""Exception hierarchy for geometric failure modes.

Every predicate raises a named subclass of :class:`GeometryError`, so callers
can distinguish "the input violates a precondition" from "the construction is
degenerate" without parsing messages.
"""


class GeometryError(Exception):
    """Base class for all geometric errors raised by this package."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct coincide up to scale."""


class CoincidentLines(GeometryError):
    """Two lines that must be distinct coincide up to scale."""


class DuplicateLine(GeometryError):
    """A line triple/sextuple contains a repeated line."""


class DuplicatePoints(GeometryError):
    """A point tuple contains a repeated point."""


class DegenerateQuadruple(GeometryError):
    """A projective frame quadruple contains three collinear points."""


class SingularMap(GeometryError):
    """A projective map matrix is not invertible."""


class NonUniqueConic(GeometryError):
    """Five-point fit is underdetermined (four or more collinear points)."""


class DegenerateConic(GeometryError):
    """Operation requires a full-rank conic."""


class LineOnConic(GeometryError):
    """The line is entirely contained in a degenerate conic."""


class ZeroMatrix(GeometryError):
    """A conic matrix is identically zero."""


class IrrationalResult(GeometryError):
    """Exact mode cannot represent a square root; rerun in float mode."""


class NoRealSolution(GeometryError):
    """A required real intersection or point does not exist."""


class FootOffSide(GeometryError):
    """A cevian foot is off its side line or sits on a vertex."""


class CoincidentCevians(GeometryError):
    """Two cevians that must meet in a point coincide."""


class PointOnSide(GeometryError):
    """A pivot point lies on a side line of the triangle."""


class PointAtVertex(GeometryError):
    """A pivot point coincides with a triangle vertex."""


class SideOnConic(GeometryError):
    """Five fixed feet force a conic containing the whole target side."""


class ChartDegenerate(GeometryError):
    """The chart cannot be built: its source frame is degenerate, or a
    normalized foot lands at infinity.  ``cevians.to_chart`` raises it, and
    ``scene.report_from_conditions`` reports it as ``chart=None``.  An
    auxiliary point at infinity is not an error: the chart reports it as
    ``p`` or ``q`` being None."""


class DegenerateTriangle(GeometryError):
    """Triangle vertices are collinear."""


class NoTangentLine(GeometryError):
    """No real tangent line exists from the point (point inside the conic)."""


class ChainStuck(GeometryError):
    """A chain link meets the carrier conic only at the current point."""


class BaseNotOnConic(GeometryError):
    """Sampling base point does not lie on the conic."""


class ConcurrencyViolated(GeometryError):
    """Internal consistency: three lines that must be concurrent are not."""


class LabelingSelfCheckFailed(GeometryError):
    """No trisector foot labeling reproduces the expected cross-meets."""


class TheoremConsistencyError(GeometryError):
    """The four equivalent conditions disagree in exact mode (must not happen)."""

    def __init__(self, message, verdicts=None):
        super().__init__(message)
        self.verdicts = verdicts
