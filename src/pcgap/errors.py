"""Shared exception hierarchy, which the CLI maps onto stable exit codes, and
the one check of parameter records: each field declares its constraint in its
metadata, and :func:`check_fields` enforces it (``key: must be >= 0, got -1``)."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields
from typing import Mapping

import numpy as np


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


#: The range rules a number field, flag or report value may declare, by their text in messages.
RULES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
         "< 0": lambda v: v < 0, "in [0, 1]": lambda v: 0 <= v <= 1,
         "in [0, 2**63 - 1]": lambda v: 0 <= v <= 2**63 - 1}


def check_number(value, key: str, rule: str | None = None, integer: bool = False):
    """``value`` when it is a number (an integer if asked; a bool is neither)
    and, unless an integer, a finite one a float can hold, and it keeps
    ``rule`` (a key of :data:`RULES`), else a ConfigError naming ``key``."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        if not integer and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value!r}")
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{key}: number too large for a float") from exc
    if rule is not None and not RULES[rule](value):
        raise ConfigError(f"{key}: must be {rule}, got {value!r}")
    return value


def config_tuple(value, key: str, size: int) -> tuple:
    """``value`` as a tuple when it is a list, tuple or array of ``size``
    items, else a ConfigError naming ``key``."""
    items = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else ()
    if len(items) != size:
        raise ConfigError(f"{key}: expected {size} numbers, got {value!r}")
    return items


def check_fields(record, prefix: str = "") -> None:
    """Check each field of the frozen dataclass ``record``, in order, by its
    metadata: a number by :func:`check_number` with its ``rule``, a ``size`` as
    that many numbers ``key[i]`` (stored as a tuple), a ``record`` by its class,
    ``modes`` by value. Errors name ``prefix`` + field; numbers keep their type."""
    for f in fields(record):
        key, value, meta = prefix + f.name, getattr(record, f.name), f.metadata
        if "size" in meta:
            items = config_tuple(value, key, meta["size"])
            for i, item in enumerate(items):
                check_number(item, f"{key}[{i}]", meta.get("rule"))
            object.__setattr__(record, f.name, items)
        elif f.type in ("int", "float"):
            check_number(value, key, meta.get("rule"), integer=f.type == "int")
        elif "record" in meta and not isinstance(value, meta["record"]):
            raise ConfigError(f"{key}: expected {f.type}, got {value!r}")
        elif "modes" in meta and value not in meta["modes"]:
            raise ConfigError(f"{key}: expected one of {meta['modes']}, got {value!r}")
