"""Bit-exact readers and writers for clouds, class-tagged meshes, and reports.

Formats:
  * XYZL text: whitespace-separated ``x y z class_id``; ``#`` comments and
    blank lines are ignored.
  * PLY ascii / binary little-endian: x, y, z as 64-bit floats plus a
    ``class_id`` uint8 property (``scalar_Classification`` accepted on read).
  * Wavefront-style OBJ for meshes: group/object names carry the class.

All coordinates are meters. Write/read pairs round-trip losslessly.
"""

from __future__ import annotations

import json
import logging
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    LabeledPointCloud,
    SemanticClass,
    coerce_labels,
)
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


def read_cloud(path, fmt: str = "auto") -> LabeledPointCloud:
    """Read a labeled cloud; out-of-range labels are coerced to Noise."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such cloud file: {path}")
    if fmt == "auto":
        with open(path, "rb") as fh:
            is_ply = fh.read(3) == b"ply"
        return _read_ply(path) if is_ply else _read_xyzl(path)
    if fmt == FORMAT_XYZL:
        return _read_xyzl(path)
    if fmt in (FORMAT_PLY_ASCII, FORMAT_PLY_BINARY):
        return _read_ply(path)  # ascii or binary, as its header says
    raise FormatError(f"unknown cloud format: {fmt!r}")


def write_cloud(cloud: LabeledPointCloud, path, fmt: str = "auto") -> None:
    path = Path(path)
    if fmt == "auto":
        fmt = FORMAT_PLY_BINARY if path.suffix.lower() == ".ply" else FORMAT_XYZL
    if fmt == FORMAT_XYZL:
        _write_rows(path, "cloud", _XYZL_ROW, *cloud.xyz.T, cloud.labels)
    elif fmt == FORMAT_PLY_ASCII:
        _write_ply(cloud, path, binary=False)
    elif fmt == FORMAT_PLY_BINARY:
        _write_ply(cloud, path, binary=True)
    else:
        raise FormatError(f"unknown cloud format: {fmt!r}")


def _read_xyzl(path: Path) -> LabeledPointCloud:
    table = _read_text_table(path, _XYZL)
    xyz = np.column_stack([table["x"], table["y"], table["z"]])
    return LabeledPointCloud(xyz, coerce_labels(table["label"], str(path)))


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
    byte_labels: bool = False  # label must be in 0..255
    comments: bool = True  # "#" starts a comment


_XYZL = _TextTable(
    np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8"), ("label", "i8")]),
    "expected 4 fields, got {n}", "bad numeric field: {exc}", finite=True, byte_labels=True,
)
_ORIGINS = _TextTable(
    np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8")]),
    "expected 3 fields, got {n}", "bad coordinate: {exc}", finite=True,
)
_LABELS = _TextTable(np.dtype([("label", "i8")]), "bad label: {body!r}", "bad label: {body!r}")

_CHUNK_ROWS = 8192  # rows formatted per write; bounds the text held at once
_XYZL_ROW = f"{_FLOAT_FMT} {_FLOAT_FMT} {_FLOAT_FMT} %d\n"


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
        if spec.byte_labels and not 0 <= row[-1] <= 255:
            raise ParseError(path, f"label {row[-1]} outside uint8 range", line=lineno)
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
    if spec.byte_labels and not ((table["label"] >= 0) & (table["label"] <= 255)).all():
        return None
    return table


def _read_text_table(path, spec: _TextTable) -> np.ndarray:
    with open(path, "rb") as fh:
        ascii_only = all(chunk.isascii() for chunk in iter(lambda: fh.read(1 << 20), b""))
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        table = _bulk_table(spec, fh) if ascii_only else None
        if table is None:
            fh.seek(0)
            table = _scan_table(path, spec, fh)
    return table


def _write_rows(path, what: str, row_fmt: str, *columns, header: str = "") -> None:
    """Write ``header``, then ``row_fmt % row`` for every row of the
    equal-length columns, ``_CHUNK_ROWS`` rows at a time. Within a chunk
    each run of bit-identical rows (a scan's shared ray origins) is
    formatted once and its text repeated."""
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            for start in range(0, len(columns[0]), _CHUNK_ROWS):
                chunk = [np.asarray(c[start:start + _CHUNK_ROWS]) for c in columns]
                # a run starts where any column differs from the row above;
                # floats compare as bits, so 0.0 and -0.0 (and NaNs) stay apart
                starts = np.arange(len(chunk[0])) == 0
                for c in chunk:
                    c = c.view(f"i{c.itemsize}") if c.dtype.kind == "f" else c
                    starts[1:] |= c[1:] != c[:-1]
                first = np.flatnonzero(starts)
                rows = map(row_fmt.__mod__, zip(*(c[first].tolist() for c in chunk)))
                if first.size < starts.size:
                    rows = map(str.__mul__, rows, np.diff(first, append=starts.size).tolist())
                fh.write("".join(rows).encode("ascii"))
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


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


def _read_ply(path: Path) -> LabeledPointCloud:
    with open(path, "rb") as fh:
        data = fh.read()

    end = data.find(b"end_header")
    if not data.startswith(b"ply") or end < 0:
        raise ParseError(path, "not a ply file (missing header)")
    header_end = data.find(b"\n", end)
    if header_end < 0:
        raise ParseError(path, "unterminated ply header", offset=end)
    header = data[:header_end].decode("ascii", errors="replace").splitlines()
    body = data[header_end + 1 :]

    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    for lineno, line in enumerate(header, start=1):
        tokens = line.strip().split()
        if not tokens or tokens[0] in ("ply", "comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(path, f"unsupported ply format: {line.strip()!r}", line=lineno)
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
            if len(tokens) > 1 and tokens[1] == "list":
                elements[-1][2].append(("__list__", " ".join(tokens[2:])))
            elif len(tokens) != 3:
                raise ParseError(path, "malformed property line", line=lineno)
            else:
                elements[-1][2].append((tokens[2], tokens[1]))
    if fmt is None:
        raise ParseError(path, "ply header has no format line")
    if not elements:
        raise ParseError(path, "ply header declares no elements")
    name, count, props = elements[0]
    if name != "vertex":
        raise ParseError(path, f"first ply element must be vertex, got {name!r}")
    if any(p == "__list__" for p, _ in props):
        raise ParseError(path, "list properties on the vertex element are unsupported")

    prop_names = [p for p, _ in props]
    lower = [p.lower() for p in prop_names]
    for coord in ("x", "y", "z"):
        if coord not in lower:
            raise ParseError(path, f"vertex element lacks property {coord!r}")
    label_prop = next((p for p in lower if p in _LABEL_PROPERTIES), None)
    if label_prop is None:
        raise ParseError(
            path, "vertex element lacks a class property (class_id or scalar_Classification)"
        )

    try:
        np_types = [_PLY_TYPES[t] for _, t in props]
    except KeyError as exc:
        raise ParseError(path, f"unsupported ply property type {exc}") from exc

    if fmt == "binary_little_endian":
        dtype = np.dtype([(f"f{i}", "<" + t) for i, t in enumerate(np_types)])
        need = dtype.itemsize * count
        if len(body) < need:
            raise ParseError(
                path,
                f"vertex data truncated: need {need} bytes, have {len(body)}",
                offset=header_end + 1 + len(body),
            )
        table = np.frombuffer(body[:need], dtype=dtype)
    else:
        spec = _TextTable(
            np.dtype([(f"f{i}", "f8") for i in range(len(props))]),
            f"vertex row has {{n}} fields, expected {len(props)}", "bad vertex value: {exc}",
            comments=False,
        )
        rows = body.decode("ascii", errors="replace").splitlines()
        table = _bulk_table(spec, rows, max_rows=count) if body.isascii() else None
        if table is None:
            # count "\n"s: str.splitlines would also end a header line at "\x0c"
            first_line = data.count(b"\n", 0, header_end) + 2
            table = _scan_table(path, spec, rows, first_line=first_line, max_rows=count)
        if len(table) != count:
            raise ParseError(path, f"vertex data truncated: {len(table)} of {count} rows")
    columns = {lower[i]: table[f"f{i}"] for i in range(len(props))}

    xyz = np.column_stack([
        np.asarray(columns["x"], dtype=np.float64),
        np.asarray(columns["y"], dtype=np.float64),
        np.asarray(columns["z"], dtype=np.float64),
    ])
    if xyz.size and not np.isfinite(xyz).all():
        raise ParseError(path, "non-finite coordinate in vertex data")
    raw_labels = np.asarray(columns[label_prop])
    if raw_labels.size and not np.isfinite(raw_labels.astype(np.float64)).all():
        raise ParseError(path, "non-finite class value in vertex data")
    labels = np.rint(raw_labels.astype(np.float64)).astype(np.int64)
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
        _write_rows(path, "cloud", _XYZL_ROW, *cloud.xyz.T, cloud.labels, header=header)
        return
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            rec = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("c", "u1")])
            table = np.empty(len(cloud), dtype=rec)
            table["x"], table["y"], table["z"] = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
            table["c"] = cloud.labels
            fh.write(table.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write cloud to {path}: {exc}") from exc


def write_ray_origins(origins: np.ndarray, path) -> None:
    """Sidecar for simulated scans: one ``x y z`` ray origin per point."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    _write_rows(path, "ray origins", f"{_FLOAT_FMT} {_FLOAT_FMT} {_FLOAT_FMT}\n", *origins.T)


def read_ray_origins(path) -> np.ndarray:
    """A sidecar's origins. A scan's channels share each step's origin, so
    a run of identical lines is parsed once; a file where that gives other
    than one row per distinct line is read as any other text table."""
    with open(path, "rb") as fh:
        data = fh.read()
    # split at \n, \r\n and \r only, as the text reader does (str.splitlines
    # would also split at \x0b, \x0c and \x1c-\x1e)
    lines = data.splitlines() if data.isascii() else []
    table = None
    if lines:
        first = np.flatnonzero([True] + list(map(bytes.__ne__, lines[1:], lines[:-1])))
        distinct = _bulk_table(_ORIGINS, [lines[i].decode("ascii") for i in first])
        if distinct is not None and len(distinct) == len(first):
            table = np.repeat(distinct, np.diff(first, append=len(lines)))
    if table is None:
        table = _read_text_table(path, _ORIGINS)
    return np.column_stack([table["x"], table["y"], table["z"]])


def read_label_file(path) -> np.ndarray:
    """Prediction labels, one integer per line; out-of-range goes to Noise."""
    return coerce_labels(_read_text_table(path, _LABELS)["label"], context=str(path))


def write_provenance(provenance: np.ndarray, path) -> None:
    """Mix sidecar: ``real`` or ``synthetic`` per point, in cloud order."""
    names = np.where(np.asarray(provenance, dtype=bool), "real", "synthetic")
    _write_rows(path, "provenance", "%s\n", names)


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
        vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        classes = np.asarray(self.triangle_classes, dtype=np.uint8)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle vertex index out of range")
        if classes.shape != (triangles.shape[0],):
            raise ValueError("one class per triangle required")
        for arr in (vertices, triangles, classes):
            arr.setflags(write=False)
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
    """Class of a ``g``/``o`` line's tokens; a nameless group is Noise."""
    name = " ".join(tokens[1:])
    if not name:
        return SemanticClass.NOISE
    token = name.strip()
    stem = _GROUP_SUFFIX.split(token, 1)[0]
    for candidate in (token, stem):
        try:
            return SemanticClass.from_name(candidate)
        except KeyError:
            continue
    logger.warning("%s:%d: group %r is not a known class, using Noise", path, lineno, name)
    return SemanticClass.NOISE


def read_mesh(path) -> ClassedMesh:
    """Read a Wavefront-style OBJ whose groups name semantic classes.

    Polygons are fan-triangulated; triangles with area <= 1e-12 m^2 are
    dropped (count kept on the mesh). Unrecognized group names map to Noise.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such mesh file: {path}")
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    parsed = _bulk_obj(path, text, lines) if text.isascii() else None
    verts, tri_arr, cls_arr = parsed or _scan_obj(path, lines)
    if verts.size and not np.isfinite(verts).all():
        raise ParseError(path, "non-finite vertex coordinate")
    mesh = ClassedMesh(verts, tri_arr, cls_arr)
    areas = mesh.triangle_areas()
    keep = areas > MIN_TRIANGLE_AREA
    dropped = int((~keep).sum())
    if dropped:
        logger.warning("%s: dropped %d degenerate triangle(s)", path, dropped)
        mesh = ClassedMesh(verts, tri_arr[keep], cls_arr[keep], dropped_degenerate=dropped)
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
    triangle of positive refs to vertices defined above it, or any line
    that does not parse. Nothing is logged before that is settled."""
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
    if refs.min() < 1 or (refs.max(axis=1) > np.searchsorted(v_at, f_at)).any():
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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def write_report(report, path) -> None:
    """Serialize a report object exposing ``to_json_dict`` (gap or eval)."""
    dump_json(report.to_json_dict(), path)


def read_report(path) -> dict:
    """A report JSON object; reports never hold NaN or infinities, so those
    (or numbers that overflow) are a ParseError, as is a non-object root."""
    path = Path(path)

    def refuse(constant):
        raise ParseError(path, f"non-finite number {constant} in a report")

    def finite(text):
        value = float(text)
        return value if math.isfinite(value) else refuse(text)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=refuse, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(path, "report root must be a JSON object")
    return doc
