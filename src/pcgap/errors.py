"""Shared exception hierarchy; the CLI maps these onto stable exit codes."""

from __future__ import annotations

import numbers
from typing import Mapping


class PcgapError(Exception):
    """Base class for structured tool errors."""


class ParseError(PcgapError):
    """Malformed file content; carries file path plus line or byte offset."""

    def __init__(self, path, message: str, line: int | None = None, offset: int | None = None):
        where = str(path)
        if line is not None:
            where += f":{line}"
        elif offset is not None:
            where += f" @byte {offset}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line
        self.offset = offset


class FormatError(PcgapError):
    """Unknown or unsupported file format."""


class ConfigError(PcgapError, ValueError):
    """Invalid configuration; message names the offending key path."""


class DegenerateDataError(PcgapError):
    """Inputs admit no meaningful result (e.g. no comparable semantic content)."""


def config_number(value, key: str, integer: bool = False):
    """``value`` when it is a number (an integer if asked; a bool is
    neither) and, unless an integer, one a float can hold, else a
    ConfigError naming ``key``."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {'an integer' if integer else 'a number'}, got {value!r}")
    if not integer:
        try:
            float(value)
        except OverflowError as exc:  # an integer beyond the float range
            raise ConfigError(f"{key}: number too large for a float") from exc
    return value


def config_object(value, key: str) -> Mapping:
    """``value`` when it is a JSON object, else a ConfigError naming ``key``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key}: expected an object")
    return value


def config_fields(value, key: str, record, prefix: str = "") -> dict:
    """``value`` as a dict when it is a JSON object whose every key names a
    field of the dataclass ``record``, else a ConfigError naming ``key`` or
    the unknown key, after ``prefix``."""
    value = dict(config_object(value, key))
    for name in value:
        if name not in record.__dataclass_fields__:
            raise ConfigError(f"{prefix}{name}: unknown config key")
    return value
