"""Shared exception types."""


class MpscError(Exception):
    """Base class for all toolkit errors."""


class ParseError(MpscError):
    """Malformed expression or problem file; carries a location."""

    def __init__(self, message, offset=None, line=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif offset is not None:
            loc = f" (offset {offset})"
        super().__init__(message + loc)
        self.offset = offset
        self.line = line


class EvalDomainError(MpscError):
    """Expression evaluated outside its domain (log, sqrt, division)."""

    def __init__(self, message, offset=None):
        loc = f" (offset {offset})" if offset is not None and offset >= 0 else ""
        super().__init__(message + loc)
        self.offset = offset


class InfeasiblePointError(MpscError):
    """Point-based analysis was requested at an infeasible point."""


class SizeCapError(MpscError):
    """Instance exceeds a documented desk-scale cap."""


class NotSStationaryError(MpscError):
    """Second-order machinery requires an S-stationary base point."""


class NumericBreakdownError(MpscError):
    """A numeric kernel hit its iteration cap without converging, or a result
    failed its consistency check (a witness outside the set it belongs to)."""


class LatticeContradictionError(MpscError):
    """HOLDS met FAILS on one lattice node; indicates a tolerance/sampling bug."""
