"""Exception taxonomy shared by every module.

All library-domain failures derive from :class:`KashinError` so callers can
distinguish mathematical contract violations from ordinary I/O problems with
a single except clause.
"""


class KashinError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(KashinError):
    """Operands have incompatible shapes or lengths."""


class RankDeficient(KashinError):
    """Input rows are numerically dependent, orthonormalization impossible."""


class EmptySelection(KashinError):
    """A random row selection came back empty; retry with a different seed."""


class BudgetExceeded(KashinError):
    """An exhaustive enumeration would exceed the support budget."""


class InvalidParams(KashinError):
    """An argument falls outside its documented domain."""


class InvalidConfig(KashinError):
    """A configuration object is internally inconsistent."""


class NonConvergence(KashinError):
    """Residual decay stalled; the supplied (eta, delta) do not hold."""


class ContractViolation(KashinError):
    """Data break a certificate they carry, such as coefficients over
    their certified level bound."""


class CodeOutOfRange(KashinError):
    """A quantizer code lies outside [0, levels)."""


class FormatError(KashinError):
    """A file is malformed, truncated, or internally inconsistent."""
