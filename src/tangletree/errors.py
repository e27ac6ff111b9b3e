"""Exception types shared across the library.

Report-style operations never raise for property violations; exceptions are
reserved for malformed inputs, precondition violations, exhausted search
budgets, and internal invariant breaches.
"""


class TangletreeError(Exception):
    """Base class for all library errors."""


class GraphFormatError(TangletreeError):
    """Malformed input document. Carries line/field/path context where known."""

    def __init__(self, message, *, context=None):
        self.context = context
        super().__init__(f"{message} ({context})" if context else message)


class OutputError(TangletreeError):
    """The CLI could not write its --output file."""


class UnknownVertexError(TangletreeError):
    """A vertex set argument mentions a vertex the graph does not declare."""


class EmptyGraphError(TangletreeError):
    """Operation requires a non-empty (usually connected) graph."""


class DisconnectedGraphError(TangletreeError):
    """Operation requires a connected graph."""


class SeparationError(TangletreeError):
    """A vertex-set pair fails the separation invariants."""


class CoverError(SeparationError):
    """side_a and side_b do not cover the vertex set."""


class CrossingEdgeError(SeparationError):
    """An edge joins the two strict sides. Carries the witness edge."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge {edge[0]}-{edge[1]} joins the strict sides")


class AmbientMismatchError(TangletreeError):
    """Two separation-valued arguments live over different graphs."""


class SequenceOrderError(TangletreeError):
    """Sequence items violate the required (strict or weak) monotonicity."""


class BudgetExceededError(TangletreeError):
    """A combinatorial search exceeded its explicit budget."""

    def __init__(self, what, budget):
        self.what = what
        self.budget = budget
        super().__init__(f"search budget exceeded: {what} (budget={budget})")


class FamilyParameterError(TangletreeError):
    """Invalid parameters for a graph-family generator."""


class OrientationUndecidableError(TangletreeError):
    """A witness cannot orient the given separation in this window."""


class InternalCheckError(TangletreeError):
    """Two redundant internal computations disagreed; signals a bug."""


class IncoherentChainError(TangletreeError):
    """Per-layer chains disagree on an item both layers contain."""


class PreconditionError(TangletreeError):
    """A stated operation precondition does not hold for these inputs."""
