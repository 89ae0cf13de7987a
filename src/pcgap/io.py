"""Bit-exact readers and writers for clouds, class-tagged meshes, and reports.

Formats:
  * XYZL text: whitespace-separated ``x y z class_id``; ``#`` comments and
    blank lines are ignored.
  * PLY ascii / binary little-endian: x, y, z as 64-bit floats plus a
    ``class_id`` uint8 property (``scalar_Classification`` accepted on read).
  * Wavefront-style OBJ for meshes: group/object names carry the class.

All coordinates are meters. Text holds each float as ``'%.17g'`` (17 correctly rounded
digits in ``%g``'s layout; ``-0``, ``nan``, ``inf``), so write/read pairs round-trip losslessly.

Each input is read once. Text is ASCII: a non-ASCII byte decodes to U+FFFD,
so it is never a digit or a separator. Lines end at ``\\n``, ``\\r\\n`` or
``\\r`` only (str.splitlines would also end them at ``\\x0b``, ``\\x0c`` and
``\\x1c``-``\\x1e``, which separate fields).
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (LabeledPointCloud, SemanticClass, class_ids, coerce_labels, coordinates, frozen_copy,
                   map_class)
from .errors import FormatError, ParseError

logger = logging.getLogger(__name__)


FORMAT_XYZL = "xyzl"
FORMAT_PLY_ASCII = "ply-ascii"
FORMAT_PLY_BINARY = "ply-binary-le"
CLOUD_FORMATS = (FORMAT_XYZL, FORMAT_PLY_ASCII, FORMAT_PLY_BINARY)

_FLOAT_FMT = "%.17g"  # enough digits for exact float64 round-trips


# ---------------------------------------------------------------------------
# labeled point clouds
# ---------------------------------------------------------------------------


def read_input(path, digests: dict | None = None) -> bytes:
    """An input file's bytes; their SHA-256 goes into ``digests``, if given, under ``str(path)``."""
    data = Path(path).read_bytes()
    if digests is not None:
        import hashlib  # only manifests need it; kept off the import path

        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def read_cloud(path, digests: dict | None = None) -> LabeledPointCloud:
    """Read a labeled cloud: PLY when its bytes start with ``ply``, XYZL
    otherwise; out-of-range labels are coerced to Noise. ``digests``: see :func:`read_input`."""
    if not Path(path).exists():
        raise FileNotFoundError(f"no such cloud file: {Path(path)}")
    data, path = read_input(path, digests), Path(path)
    if data.startswith(b"ply"):
        return _read_ply(path, data)  # ascii or binary, as its header says
    table = _read_text_table(path, _XYZL, data)
    xyz = np.column_stack([table["x"], table["y"], table["z"]])
    return LabeledPointCloud(xyz, coerce_labels(table["label"], str(path)))


def write_cloud(cloud: LabeledPointCloud, path, fmt: str = "auto") -> None:
    path = Path(path)
    if fmt == "auto":
        fmt = FORMAT_PLY_BINARY if path.suffix.lower() == ".ply" else FORMAT_XYZL
    if fmt == FORMAT_XYZL:
        _write_rows(path, "cloud", *cloud.xyz.T, cloud.labels)
    elif fmt in (FORMAT_PLY_ASCII, FORMAT_PLY_BINARY):
        _write_ply(cloud, path, binary=fmt == FORMAT_PLY_BINARY)
    else:
        raise FormatError(f"unknown cloud format: {fmt!r}")


# ---------------------------------------------------------------------------
# text tables: one bulk parse, the line scan only to name a bad line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TextTable:
    """A whitespace-separated text format, one ``dtype`` record per data
    line; the messages take ``n`` (fields found), ``exc`` and ``body``."""

    dtype: np.dtype
    count_msg: str
    value_msg: str
    finite: bool = False  # x, y, z must be finite
    comments: bool = True  # "#" starts a comment


_XYZL = _TextTable(
    np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8"), ("label", "i8")]),
    "expected 4 fields, got {n}", "bad numeric field: {exc}", finite=True,
)
_ORIGINS = _TextTable(
    np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8")]),
    "expected 3 fields, got {n}", "bad coordinate: {exc}", finite=True,
)
_LABELS = _TextTable(np.dtype([("label", "i8")]), "bad label: {body!r}", "bad label: {body!r}")


def _scan_table(path, spec: _TextTable, lines, first_line: int = 1, max_rows: int | None = None) -> np.ndarray:
    """Records of a text table, one line at a time: the definition of every
    text format, and the source of each error, naming the first bad line."""
    types = [float if spec.dtype[i].kind == "f" else int for i in range(len(spec.dtype))]
    rows = []
    for lineno, line in enumerate(lines, start=first_line):
        if len(rows) == max_rows:
            break
        body = (line.split("#", 1)[0] if spec.comments else line).strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != len(types):
            raise ParseError(path, spec.count_msg.format(n=len(parts), body=body), line=lineno)
        try:
            row = tuple(t(v) for t, v in zip(types, parts))
        except ValueError as exc:
            raise ParseError(path, spec.value_msg.format(exc=exc, body=body), line=lineno) from exc
        if spec.finite and not all(map(math.isfinite, row[:3])):
            raise ParseError(path, "non-finite coordinate", line=lineno)
        if any(isinstance(v, int) and not -(2**63) <= v < 2**63 for v in row):
            raise ParseError(path, spec.value_msg.format(exc="beyond int64", body=body), line=lineno)
        rows.append(row)
    return np.array(rows, dtype=spec.dtype)


def _bulk_table(spec: _TextTable, source, max_rows: int | None = None) -> np.ndarray | None:
    """The same records from one C parse of ASCII text, or None when the
    parse or a vectorized row check refuses it (the line scan then decides).
    Non-ASCII text must not come here: numpy reads some non-ASCII
    characters as integer digits."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            table = np.loadtxt(
                source, dtype=spec.dtype, comments="#" if spec.comments else None,
                ndmin=1, max_rows=max_rows,
            )
    except (ValueError, OverflowError, Warning):
        return None
    if spec.finite and not all(np.isfinite(table[c]).all() for c in "xyz"):
        return None
    return table


def _read_text_table(path, spec: _TextTable, data: bytes, first_line: int = 1,
                     max_rows: int | None = None) -> np.ndarray:
    """Records of the text table ``data`` (bytes) from the bulk parse, or
    from the line scan when that refuses them or they are not ASCII. Both
    decode as they go: a decoded copy in a StringIO holds 5x the bytes."""
    with TextIOWrapper(BytesIO(data), encoding="ascii", errors="replace", newline=None) as text:
        table = _bulk_table(spec, text, max_rows) if data.isascii() else None
        if table is None:
            text.seek(0)
            table = _scan_table(path, spec, text, first_line, max_rows)
    return table


@contextlib.contextmanager
def output_file(path, what: str):
    """``open(path, "wb")`` for an output. A regular file is replaced whole by a temp file
    renamed onto it when the block succeeds, so a failed write leaves it intact; a FIFO,
    device, directory, hard-linked or read-only file, or a read-only dir's, is written in place."""
    try:
        target = os.path.realpath(path) if os.path.islink(path) else path  # only a symlink resolves
        head, name = os.path.split(target)
        old = os.stat(target) if os.path.exists(target) else None
        if not os.access(head or os.curdir, os.W_OK) or old is not None and not (
                stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and os.access(target, os.W_OK)):
            with open(target, "wb") as fh:
                yield fh
            return
        tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        fh = open(tmp, "xb")  # "x": fails on a planted file
        try:
            with fh:
                yield fh
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
                # unlink first: ext4 flushes a file renamed over an existing
                # one (auto_da_alloc), as it does one truncated by open("w")
                os.unlink(target)
            os.rename(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc.strerror or exc}") from exc


_CHUNK_ROWS = 8192  # rows formatted per write; bounds the text held at once
# A float's text fills 40 byte slots, five little-endian uint64 words: its sign, the "0.000"
# before the digits of |v| < 1, then each of 17 digits followed by a point slot. A fixed-notation
# '%.17g' is these bytes (0xFF outside the digits) ANDed with the mask of its sign, exponent X and
# count of significant digits; the NUL slots are dropped when a chunk is written.
_POW5 = 5 ** np.arange(22, dtype=np.uint64)  # 10**k = 5**k * 2**k for k = 16 - E in 0..21


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray]:
    """The words of 0..9999 (each digit followed by 0xFF) and the mask words at row
    ``(sign * 21 + X + 4) * 18 + digits``, X in -4..16: a kept digit's slot 0xFF, a kept
    sign, prefix or point its character, else 0. Built on first use, off the import path."""
    words = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 0xFF30).astype("<u2").view("<u8")
    slot = np.arange(40)
    sign, X, sig = (a[..., None] for a in np.ix_(range(2), range(-4, 17), range(18)))
    digit, chars = (slot - 6) // 2, np.frombuffer(b"-0.000", dtype=np.uint8)[np.minimum(slot, 5)]
    masks = np.select([slot == 0, slot < 6, slot % 2 == 0], [
        chars * sign, chars * (slot < np.where(X < 0, 2 - X, 0)),  # "0.", then -X - 1 zeros
        255 * (digit < np.maximum(sig, X + 1))],  # the fraction's trailing zeros go
        46 * ((digit == X) & (sig > X + 1)))  # a point only before a fraction
    return words[:, 0], masks.astype(np.uint8).reshape(-1, 40).view("<u8")


def _round_digits(m: np.ndarray, e: np.ndarray, E: np.ndarray) -> np.ndarray:
    """``m * 2**e * 10**k`` rounded half-even, ``k = 16 - E``, for ``m < 2**56`` and ``e + k < 0``
    (a mantissa with 3 spare low bits; it has ``e + k <= 2`` below 1e16): ``m * 5**k`` exactly in
    128 bits from 32-bit halves, shifted right by ``-(e + k)``, which stays below 64."""
    k, low = 16 - E, np.uint64(2**32 - 1)
    m1, m0, f1, f0 = m >> 32, m & low, _POW5[k] >> 32, _POW5[k] & low
    mid = m1 * f0 + m0 * f1 + (m0 * f0 >> 32)  # < 2**58: m1 < 2**24, f1 < 2**17
    hi, lo = m1 * f1 + (mid >> 32), (m0 * f0 & low) | (mid << 32)
    r = (-(e + k)).astype(np.uint64)
    q, rest, half = (hi << (64 - r)) | (lo >> r), lo & ((np.uint64(1) << r) - 1), np.uint64(1) << (r - 1)
    return q + ((rest > half) | ((rest == half) & (q & 1).astype(bool)))


def _float_text(v: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` of each float64 ``x`` of ``v``, NUL-padded to 40 bytes. A value outside
    ``1e-4 <= |x| < 1e16`` (0, NaN, infinite or with an exponent) takes Python's text."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)  # 1e16 is exact, and no float lies in [10**-4, 1e-4)
    a = np.where(fast, a, 1.0)
    bits = a.view(np.uint64)
    m, e = (bits & np.uint64(2**52 - 1) | np.uint64(2**52)) << 3, (bits >> 52).astype(np.int64) - 1078
    E = np.floor(np.log10(a)).astype(np.int64)  # off by one beside a power of ten
    D = _round_digits(m, e, E)
    # E a decade too high gives 16 digits (here never rounded up to 10**16); too low, or
    # 17 digits rounded up into the next decade, 18 digits or 10**17
    if (off := (D < 10**16) | (D >= 10**17)).any():
        E[off] += np.where(D[off] < 10**16, -1, 1)
        D[off] = _round_digits(m[off], e[off], E[off])
    digit_words, masks = _float_tables()
    words = np.empty(v.shape + (5,), dtype="<u8")
    words[:, 0] = (D // 10**16 + 48) << 48 | 0xFF00FFFFFFFFFFFF  # the lead digit in slot 6
    for i in range(4):  # x % d takes no fast path in numpy, x - x // d * d does
        q = D // 10 ** (12 - 4 * i)
        words[:, i + 1] = digit_words[q - q // 10**4 * 10**4]
    text = words.view(np.uint8)
    sig = 17 - np.argmax(text[:, 38:5:-2] != 48, axis=1)
    words &= masks[(np.signbit(v) * 21 + E + 4) * 18 + sig]
    text[~fast] = _value_text(v[~fast], _FLOAT_FMT, "S40")
    return text


def _value_text(c: np.ndarray, fmt: str = "%s", dtype: str = "S") -> np.ndarray:
    """``fmt % x`` of each value of ``c`` as a NUL-padded uint8 row, once per distinct value (or float bits)."""
    keys, inverse = np.unique(c.view(f"i{c.itemsize}") if c.dtype.kind == "f" else c, return_inverse=True)
    table = np.array([fmt % x for x in keys.view(c.dtype).tolist()], dtype=dtype)
    return table.view(np.uint8).reshape(len(table), table.itemsize)[inverse]


def _write_rows(path, what: str, *columns, header: str = "") -> None:
    """Write ``header``, then a line per row of the equal-length columns, its values' texts (a
    float's ``'%.17g'``, else ``str``) single-space-joined, ``_CHUNK_ROWS`` rows at a time. Within a
    chunk each run of bit-identical rows (a scan's ray origins) is formatted once, its text repeated."""
    with output_file(path, what) as fh:
        fh.write(header.encode("ascii"))
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [np.asarray(c[start:start + _CHUNK_ROWS]) for c in columns]
            # a run starts where any column differs from the row above;
            # floats compare as bits, so 0.0 and -0.0 (and NaNs) stay apart
            starts = np.arange(len(chunk[0])) == 0
            for c in chunk:
                c = c.view(f"i{c.itemsize}") if c.dtype.kind == "f" else c
                starts[1:] |= c[1:] != c[:-1]
            if 2 * np.count_nonzero(starts) > starts.size:  # mostly distinct: repeating costs more
                starts[:] = True
            first = np.flatnonzero(starts)
            sep = np.full((first.size, 1), ord(" "), dtype=np.uint8)
            rows = np.hstack([text for c in chunk for text in (
                (_float_text if c.dtype.kind == "f" else _value_text)(c[first]), sep)])
            rows[:, -1] = ord("\n")
            text = rows.tobytes().translate(None, b"\0")
            if first.size < starts.size:  # no text holds a "\r"
                runs = np.diff(first, append=starts.size).tolist()
                text = b"".join(map(bytes.__mul__, text.splitlines(keepends=True), runs))
            fh.write(text)


_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_LABEL_PROPERTIES = ("class_id", "scalar_classification")
_LINE = re.compile(rb"([^\r\n]*)(\r\n|\r|\n|\Z)")  # a line and its end, by the text readers' rule


def _read_ply(path: Path, data: bytes) -> LabeledPointCloud:
    """A cloud from PLY bytes. The header is read one line at a time, up to the first line whose
    only token is ``end_header``; the body starts at that line's end, where ``\\r\\n`` is one end
    unless the first line ends in a lone ``\\r``: then the body starts after the ``\\r``."""
    lone_cr = _LINE.match(data)[2] == b"\r"
    fmt = None
    elements = []
    for lineno, line in enumerate(_LINE.finditer(data), start=1):
        text = line[1].decode("ascii", errors="replace")
        tokens = text.split()
        if tokens == ["end_header"]:
            if not line[2]:
                raise ParseError(path, "unterminated ply header", offset=line.start())
            break
        if not tokens or tokens[0] in ("ply", "comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(path, f"unsupported ply format: {text.strip()!r}", line=lineno)
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError(path, "malformed element line", line=lineno)
            try:
                count = int(tokens[2])
            except ValueError as exc:
                raise ParseError(path, "bad element count", line=lineno) from exc
            if count < 0:
                raise ParseError(path, "negative element count", line=lineno)
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property":
            if not elements:
                raise ParseError(path, "property before any element", line=lineno)
            if len(tokens) != 3 and tokens[1:2] != ["list"]:
                raise ParseError(path, "malformed property line", line=lineno)
            elements[-1][2].append((tokens[-1].lower(), tokens[1]))  # (name, type), type "list" for a list
    else:
        raise ParseError(path, "not a ply file (missing header)")
    if fmt is None:
        raise ParseError(path, "ply header has no format line")
    if not elements:
        raise ParseError(path, "ply header declares no elements")
    name, count, props = elements[0]
    if name != "vertex":
        raise ParseError(path, f"first ply element must be vertex, got {name!r}")
    if any(t == "list" for _, t in props):
        raise ParseError(path, "list properties on the vertex element are unsupported")

    columns = {p: f"f{i}" for i, (p, _) in enumerate(props)}  # a repeated name: its last column
    for coord in ("x", "y", "z"):
        if coord not in columns:
            raise ParseError(path, f"vertex element lacks property {coord!r}")
    label_prop = next((p for p in columns if p in _LABEL_PROPERTIES), None)
    if label_prop is None:
        raise ParseError(
            path, "vertex element lacks a class property (class_id or scalar_Classification)"
        )

    try:
        dtype = np.dtype([(f"f{i}", "<" + _PLY_TYPES[t]) for i, (_, t) in enumerate(props)])
    except KeyError as exc:
        raise ParseError(path, f"unsupported ply property type {exc}") from exc

    body = line.end() - (lone_cr and line[2] == b"\r\n")
    if fmt == "binary_little_endian":
        need = dtype.itemsize * count
        have = len(data) - body
        if have < need:
            raise ParseError(path, f"vertex data truncated: need {need} bytes, have {have}", offset=len(data))
        table = np.frombuffer(data, dtype, count=count, offset=body)
    else:
        spec = _TextTable(
            np.dtype([(f"f{i}", "f8") for i in range(len(props))]),
            f"vertex row has {{n}} fields, expected {len(props)}", "bad vertex value: {exc}",
            comments=False,
        )
        table = _read_text_table(path, spec, data[body:], lineno + 1, max_rows=count)
        if len(table) != count:
            raise ParseError(path, f"vertex data truncated: {len(table)} of {count} rows")

    xyz = np.column_stack([np.asarray(table[columns[c]], dtype=np.float64) for c in "xyz"])
    if xyz.size and not np.isfinite(xyz).all():
        raise ParseError(path, "non-finite coordinate in vertex data")
    labels = table[columns[label_prop]]
    if not np.isfinite(labels).all():
        raise ParseError(path, "non-finite class value in vertex data")
    return LabeledPointCloud(xyz, coerce_labels(labels, str(path)))


def _write_ply(cloud: LabeledPointCloud, path: Path, binary: bool) -> None:
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "property uchar class_id\n"
        "end_header\n"
    )
    if not binary:
        _write_rows(path, "cloud", *cloud.xyz.T, cloud.labels, header=header)
        return
    rec = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("c", "u1")])
    table = np.empty(len(cloud), dtype=rec)
    table["x"], table["y"], table["z"] = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    table["c"] = cloud.labels
    with output_file(path, "cloud") as fh:
        fh.write(header.encode("ascii"))
        fh.write(table.tobytes())


def write_ray_origins(origins: np.ndarray, path) -> None:
    """Sidecar for simulated scans: one ``x y z`` ray origin per point."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    _write_rows(path, "ray origins", *origins.T)


def read_ray_origins(path, digests: dict | None = None) -> np.ndarray:
    """A sidecar's origins. A scan's channels share each step's origin, so
    a run of identical lines is parsed once; a file where that gives other
    than one row per distinct line is read as any other text table (``digests``: see :func:`read_input`)."""
    data = read_input(path, digests)
    # bytes.splitlines splits at \n, \r\n and \r only, as the text reader does
    lines = data.splitlines() if data.isascii() else []
    table = None
    if lines:
        first = np.flatnonzero([True] + list(map(bytes.__ne__, lines[1:], lines[:-1])))
        distinct = _bulk_table(_ORIGINS, [lines[i].decode("ascii") for i in first])
        if distinct is not None and len(distinct) == len(first):
            table = np.repeat(distinct, np.diff(first, append=len(lines)))
    if table is None:
        table = _read_text_table(path, _ORIGINS, data)
    return np.column_stack([table["x"], table["y"], table["z"]])


def read_label_file(path, digests: dict | None = None) -> np.ndarray:
    """Prediction labels, one integer per line; out-of-range goes to Noise.
    ``digests``: see :func:`read_input`."""
    table = _read_text_table(path, _LABELS, read_input(path, digests))
    return coerce_labels(table["label"], context=str(path))


def write_provenance(provenance: np.ndarray, path) -> None:
    """Mix sidecar: ``real`` or ``synthetic`` per point, in cloud order."""
    names = np.where(np.asarray(provenance, dtype=bool), "real", "synthetic")
    _write_rows(path, "provenance", names)


# ---------------------------------------------------------------------------
# class-tagged meshes
# ---------------------------------------------------------------------------

MIN_TRIANGLE_AREA = 1e-12  # m^2


@dataclass(frozen=True)
class ClassedMesh:
    """Triangle soup with one semantic class per triangle."""

    vertices: np.ndarray          # (V, 3) float64
    triangles: np.ndarray         # (T, 3) int64 vertex indices
    triangle_classes: np.ndarray  # (T,) uint8
    dropped_degenerate: int = 0

    def __post_init__(self):
        vertices = coordinates(self.vertices, "vertices")
        triangles = frozen_copy(self.triangles, np.int64).reshape(-1, 3)
        classes = class_ids(self.triangle_classes, "triangle_classes")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle vertex index out of range")
        if classes.shape != (triangles.shape[0],):
            raise ValueError("one class per triangle required")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "triangle_classes", classes)

    def triangle_areas(self) -> np.ndarray:
        v = self.vertices
        t = self.triangles
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        return 0.5 * np.linalg.norm(cross, axis=1)


_GROUP_SUFFIX = re.compile(r"[_\-. ]")


def _group_class(tokens: list[str], path, lineno: int) -> SemanticClass:
    """Class of a ``g``/``o`` line's tokens: a pcgap class name (the whole
    name or its stem), else the stem as a CityGML/OpenDRIVE descriptor with
    the line's ``key=value`` tokens as qualifiers; a nameless group is Noise."""
    name = " ".join(tokens[1:])
    if not name:
        return SemanticClass.NOISE
    stem = _GROUP_SUFFIX.split(name, 1)[0]
    for candidate in (name, stem):
        try:
            return SemanticClass.from_name(candidate)
        except KeyError:
            continue
    cls = map_class(stem, dict(t.split("=", 1) for t in tokens[2:] if "=" in t))
    if cls is SemanticClass.NOISE:
        logger.warning("%s:%d: group %r is not a known class, using Noise", path, lineno, name)
    return cls


def read_mesh(path, digests: dict | None = None) -> ClassedMesh:
    """Read a Wavefront-style OBJ whose groups name semantic classes.

    Polygons are fan-triangulated; triangles with area <= 1e-12 m^2 are
    dropped (count kept on the mesh). A group is named by a pcgap class or
    by a CityGML/OpenDRIVE descriptor with ``key=value`` qualifiers (see
    :func:`pcgap.core.map_class`); any other name maps to Noise. ``digests``: see :func:`read_input`.
    """
    if not Path(path).exists():
        raise FileNotFoundError(f"no such mesh file: {Path(path)}")
    data, path = read_input(path, digests), Path(path)
    # as a text-mode read decodes it: U+FFFD is never a digit, and lines end at \n
    text = data.decode("ascii", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    parsed = _bulk_obj(path, text, lines) if text.isascii() else None
    verts, tri_arr, cls_arr = parsed or _scan_obj(path, lines)
    mesh = ClassedMesh(verts, tri_arr, cls_arr)
    areas = mesh.triangle_areas()
    keep = areas > MIN_TRIANGLE_AREA
    dropped = int((~keep).sum())
    if dropped:
        logger.warning("%s: dropped %d degenerate triangle(s)", path, dropped)
        mesh = ClassedMesh(mesh.vertices, tri_arr[keep], cls_arr[keep], dropped_degenerate=dropped)
    return mesh


def _scan_obj(path: Path, lines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, triangles and triangle classes of OBJ lines, one line at a
    time: the definition of the format, and the source of each error."""
    vertices: list[tuple[float, float, float]] = []
    tris: list[tuple[int, int, int]] = []
    tri_cls: list[int] = []
    current = SemanticClass.NOISE
    group_seen = False

    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        tag = tokens[0]
        if tag == "v":
            if len(tokens) < 4:
                raise ParseError(path, "vertex needs 3 coordinates", line=lineno)
            try:
                vertices.append((float(tokens[1]), float(tokens[2]), float(tokens[3])))
            except ValueError as exc:
                raise ParseError(path, f"bad vertex coordinate: {exc}", line=lineno) from exc
            if not all(map(math.isfinite, vertices[-1])):
                raise ParseError(path, "non-finite vertex coordinate", line=lineno)
        elif tag in ("g", "o"):
            current = _group_class(tokens, path, lineno)
            group_seen = True
        elif tag == "f":
            if len(tokens) < 4:
                raise ParseError(path, "face needs at least 3 vertices", line=lineno)
            idx = []
            for ref in tokens[1:]:
                first = ref.split("/", 1)[0]
                try:
                    i = int(first)
                except ValueError as exc:
                    raise ParseError(path, f"bad face index {ref!r}", line=lineno) from exc
                if i > 0:
                    i -= 1
                elif i < 0:
                    i += len(vertices)
                else:
                    raise ParseError(path, "face index 0 is invalid", line=lineno)
                if not 0 <= i < len(vertices):
                    raise ParseError(path, f"face index {ref!r} out of range", line=lineno)
                idx.append(i)
            if not group_seen:
                logger.warning("%s:%d: face outside any group, using Noise", path, lineno)
                group_seen = True
            for k in range(1, len(idx) - 1):
                tris.append((idx[0], idx[k], idx[k + 1]))
                tri_cls.append(int(current))

    return (
        np.array(vertices, dtype=np.float64).reshape(-1, 3),
        np.array(tris, dtype=np.int64).reshape(-1, 3),
        np.array(tri_cls, dtype=np.uint8),
    )


_SPACE = np.zeros(256, dtype=bool)  # the ASCII bytes str.split() splits on
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_TOKEN_END = _SPACE.copy()
_TOKEN_END[ord("#")] = True


def _obj_tags(text: str, lines: list[str]) -> np.ndarray:
    """Per line of ASCII ``text`` (``lines`` is ``text`` split at "\\n"),
    the byte of the first token of ``line.split("#", 1)[0].split()`` when
    that token is one character long, else 0. Lines are classified by
    their first two bytes; only a line that starts with whitespace is split."""
    buf = np.frombuffer(text.encode("ascii") + b"\n\n", dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(buf[:-2] == ord("\n")) + 1))
    first = buf[starts]
    tags = np.where(_TOKEN_END[buf[starts + 1]] & ~_TOKEN_END[first], first, 0)
    for i in np.flatnonzero(_SPACE[first] & (first != ord("\n"))):
        token = (lines[i].split("#", 1)[0].split(None, 1) or ("",))[0]
        tags[i] = ord(token) if len(token) == 1 else 0
    return tags


def _bulk_obj(path: Path, text: str, lines) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The same arrays from bulk parses of the ``v`` and ``f`` lines of
    ASCII text, or None when the loop must decide: a face that is not a
    triangle of positive refs to vertices defined above it, a non-finite
    vertex, or any line that does not parse. Nothing is logged before that is settled."""
    tags = _obj_tags(text, lines)
    v_at, f_at = np.flatnonzero(tags == ord("v")), np.flatnonzero(tags == ord("f"))
    g_at = np.flatnonzero((tags == ord("g")) | (tags == ord("o")))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            verts = np.loadtxt([lines[i] for i in v_at], usecols=(1, 2, 3), ndmin=2, comments="#")
            faces = np.loadtxt([lines[i] for i in f_at], dtype="U1,i8,i8,i8", ndmin=1, comments="#")
    except (ValueError, Warning):
        return None
    refs = np.column_stack([faces["f1"], faces["f2"], faces["f3"]])
    if (refs.min() < 1 or (refs.max(axis=1) > np.searchsorted(v_at, f_at)).any()
            or not np.isfinite(verts).all()):
        return None
    if not g_at.size or f_at[0] < g_at[0]:
        logger.warning("%s:%d: face outside any group, using Noise", path, f_at[0] + 1)
    group_cls = [_group_class(lines[i].split("#", 1)[0].split(), path, i + 1) for i in g_at]
    owner = np.searchsorted(g_at, f_at) - 1  # -1 (no group yet) picks the Noise at the end
    classes = np.array(group_cls + [SemanticClass.NOISE], dtype=np.uint8)[owner]
    return verts, refs - 1, classes


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def dump_json(payload: Mapping, path) -> None:
    """Deterministic JSON writer: sorted keys, fixed separators, newline end.
    A NaN or infinity is refused (ValueError) before the file is opened."""
    path = Path(path)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    with output_file(path, "report") as fh:
        fh.write(text.encode("utf-8"))


def write_report(report, path) -> None:
    """Serialize a report object exposing ``to_json_dict`` (gap or eval)."""
    dump_json(report.to_json_dict(), path)


def read_report(path) -> dict:
    """A report JSON object; reports never hold NaN or infinities, so those
    (or numbers that overflow, or an integer past Python's digit limit) are
    a ParseError, as is a non-object root."""
    path = Path(path)

    def refuse(constant):
        raise ParseError(path, f"non-finite number {constant} in a report")

    def finite(text):
        value = float(text)
        return value if math.isfinite(value) else refuse(text)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=refuse, parse_float=finite)
    except (ValueError, RecursionError) as exc:  # bad text or bytes, or too deeply nested
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(path, "report root must be a JSON object")
    return doc
