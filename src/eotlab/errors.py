"""Exception types shared across the package, and the typed config reader
that turns a malformed config value into a ConfigError."""

from __future__ import annotations

import math


class EotlabError(Exception):
    """Base class for all package errors."""


class ConfigError(EotlabError):
    """Invalid configuration or input file."""


class DomainError(EotlabError):
    """A precondition on an operation's inputs was violated."""


class SizeError(DomainError):
    """An input's dense arrays would pass the memory limit; raised before
    they are allocated."""


class MassMismatchError(DomainError):
    """Marginal total masses differ beyond tolerance."""


class SmallnessError(DomainError):
    """The configured smallness threshold for an improvement step was exceeded."""


class AdmissibilityError(DomainError):
    """A rescaling left the fixed admissibility windows."""


class CertificateError(EotlabError):
    """An optimality certificate (dual feasibility / gap) failed to verify."""


REQUIRED = object()
_NOUNS = {int: "integer", float: "finite number", bool: "boolean", str: "string"}


def config_value(section: dict, key: str, kind: type, default=REQUIRED,
                 positive: bool = False, where: str = ""):
    """Return ``section[key]`` checked as ``kind``: ``float`` (finite), ``int``
    (integral), ``bool``, ``str``, or ``list`` (non-empty, of floats).
    ``positive`` requires numbers > 0.  A missing key gives ``default``; with no
    default, and for a value of the wrong type, raises ConfigError naming
    ``where + key``."""
    name = where + key
    if key not in section:
        if default is REQUIRED:
            raise ConfigError(f"config missing required key: {name}")
        return default
    raw = section[key]
    if kind is list:
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{name} must be a non-empty list of numbers, got {raw!r}")
        return [config_value({name: v}, name, float, positive=positive) for v in raw]
    value = None
    if kind in (bool, str):
        value = raw if isinstance(raw, kind) else None
    elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = kind(raw)
        except (OverflowError, ValueError):  # int() of inf or NaN, float() of a huge int
            pass
    if (
        value is None
        or (kind is int and value != raw)
        or (kind is float and not math.isfinite(value))
        or (positive and value <= 0)
    ):
        phrase = ("positive " if positive else "") + _NOUNS[kind]
        article = "an" if phrase[0] in "aeiou" else "a"
        raise ConfigError(f"{name} must be {article} {phrase}, got {raw!r}")
    return value
