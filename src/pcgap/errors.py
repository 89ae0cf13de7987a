"""Shared exception hierarchy; the CLI maps these onto stable exit codes."""

from __future__ import annotations


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
