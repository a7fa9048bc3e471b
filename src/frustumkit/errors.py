"""Exception taxonomy shared across the package.

Every error the library raises deliberately derives from FrustumKitError so
callers (the CLI in particular) can map failure classes to exit codes without
string matching.
"""


class FrustumKitError(Exception):
    """Base class for all deliberate frustumkit errors."""


class GeometryError(FrustumKitError, ValueError):
    """Invalid geometric input: bad depth, out-of-bounds pixel, degenerate rect."""


class NoCandidatesError(FrustumKitError, ValueError):
    """Every subfrustum of a proposal was empty; no crop candidates remain."""


class UnsupportedScaleError(FrustumKitError, ValueError):
    """Average object dimensions fall in a (footprint, height) cell with no scale."""


class InfeasibleSizeError(FrustumKitError, ValueError):
    """No candidate crop size meets the requested recall targets."""


class EncodeDomainError(FrustumKitError, ValueError):
    """A ground-truth center lies outside the crop it is being encoded against."""


class ShapePlanError(FrustumKitError, ValueError):
    """Layer arithmetic failed: non-integral output size or inconsistent chain."""


class ManifestError(FrustumKitError, ValueError):
    """A dataset manifest or config is malformed or references missing files."""


class InvariantViolation(FrustumKitError, AssertionError):
    """An internal contract that should hold by construction was violated."""
