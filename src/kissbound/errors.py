"""Exception hierarchy shared by all kissbound modules."""

from __future__ import annotations

__all__ = [
    "KissboundError",
    "DomainError",
    "DegenerateTriangleError",
    "PackingError",
    "PackingParseError",
    "OverlapError",
    "CertificateError",
]


class KissboundError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KissboundError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateTriangleError(DomainError):
    """A spherical triangle has non-positive angular excess beyond round-off."""


class PackingError(KissboundError):
    """Base class for packing ingestion and validation failures."""


class PackingParseError(PackingError, ValueError):
    """A packing document does not match the expected schema."""


class OverlapError(PackingError):
    """Two balls of a packing overlap beyond the configured tolerance."""

    def __init__(self, i: int, j: int, penetration: float):
        self.pair = (i, j)
        self.penetration = penetration
        super().__init__(
            f"balls {i} and {j} overlap (penetration depth {penetration:.6g})"
        )


class CertificateError(KissboundError):
    """A certificate file is malformed or inconsistent."""
