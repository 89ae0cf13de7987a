"""The bulk text parsers against the line scan they stand in for, and the
chunked writers against the per-line writers they replaced.

Every text reader tries one bulk parse first and runs the line scan only
when the bulk parse refuses the file. Each seeded corpus file is read twice,
once as shipped and once with the bulk parse switched off: the two must give
bit-identical arrays and the same log records, or the same ParseError
message and line. The clean files must actually take the bulk path, so the
comparison cannot pass by always falling back.
"""

import logging
import warnings

import numpy as np
import pytest

from pcgap import io as pio
from pcgap.core import LabeledPointCloud
from pcgap.errors import ParseError

_CORPUS_FILES = 120


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _arrays(result):
    if isinstance(result, LabeledPointCloud):
        parts = (result.xyz, result.labels)
    elif isinstance(result, pio.ClassedMesh):
        parts = (result.vertices, result.triangles, result.triangle_classes,
                 np.array([result.dropped_degenerate]))
    else:
        parts = (result,)
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()) for a in parts]


def _outcome(read, path, caplog):
    """What one read gives: arrays or the ParseError, plus what it logged.
    Python warnings fail the read: a clean parse must not emit any."""
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = ("ok", _arrays(read(path)))
        except ParseError as exc:
            got = ("error", str(exc), exc.line)
    return got, [(r.levelno, r.getMessage()) for r in caplog.records]


class _Bulk:
    """Records whether the bulk parsers accepted each file."""

    def __init__(self, monkeypatch):
        self.accepted = []
        self._monkeypatch = monkeypatch
        for name in ("_bulk_table", "_bulk_obj"):
            monkeypatch.setattr(pio, name, self._spy(getattr(pio, name)))

    def _spy(self, fn):
        def spy(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.accepted.append(result is not None)
            return result

        return spy

    def scan_only(self):
        for name in ("_bulk_table", "_bulk_obj"):
            self._monkeypatch.setattr(pio, name, lambda *a, **k: None)


def _compare(read, paths, monkeypatch, caplog):
    """Bulk-then-scan and scan-only outcomes per file; returns, per file,
    whether the bulk path accepted it."""
    caplog.set_level(logging.WARNING, logger="pcgap")
    bulk = _Bulk(monkeypatch)
    shipped, accepted = [], []
    for path in paths:
        before = len(bulk.accepted)
        shipped.append(_outcome(read, path, caplog))
        accepted.append(any(bulk.accepted[before:]))
    bulk.scan_only()
    for path, got in zip(paths, shipped):
        assert got == _outcome(read, path, caplog), path
    return accepted


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return path


# ---------------------------------------------------------------------------
# seeded corpora
# ---------------------------------------------------------------------------

_FLOAT_STYLES = (
    lambda v: "%.17g" % v,
    lambda v: repr(v),
    lambda v: "%.3f" % v,
    lambda v: "%.6e" % v,
    lambda v: "%.0f." % v,
)
_ODD_FLOATS = ("nan", "inf", "-Infinity", "1_0.5", "٣.5", "0x10", "1e", "+.5", "-0", "1e-320")
_ODD_LABELS = ("1_0", "٣", "3.0", "1e2", "256", "-1", "+5", "007", "Ǿ", "99999999999999999999", "x")
_SEPARATORS = (" ", "  ", "\t", " \t ", "\x0c", "\x0b", "\xa0")
_NEWLINES = ("\n", "\r\n", "\r")


def _float(rng, odd):
    if rng.random() < odd:
        return _ODD_FLOATS[rng.integers(len(_ODD_FLOATS))]
    value = float(rng.normal() * 10.0 ** rng.integers(-3, 6))
    return _FLOAT_STYLES[rng.integers(len(_FLOAT_STYLES))](value)


def _label(rng, odd):
    if rng.random() < odd:
        return _ODD_LABELS[rng.integers(len(_ODD_LABELS))]
    return str(int(rng.integers(0, 14)))


def _row(rng, fields, odd, seps=_SEPARATORS, comment=True):
    """One data line of ``fields`` ('f' float, 'i' label), sometimes with a
    wrong field count, odd separators, leading blanks or a comment."""
    tokens = [_float(rng, odd) if kind == "f" else _label(rng, odd) for kind in fields]
    if rng.random() < odd:
        tokens = tokens[:-1] if rng.random() < 0.5 else tokens + ["1"]
    line = "".join(t + seps[rng.integers(len(seps))] for t in tokens).rstrip()
    if rng.random() < 0.1:
        line = " " * int(rng.integers(1, 3)) + line
    if comment and rng.random() < 0.1:
        line += "  # trailing note"
    return line


def _text_file(rng, fields, ascii_only=False, odd=0.0, runs=False):
    """A seeded table text: data lines mixed with comments and blank lines,
    joined by one newline style (LF, CRLF or lone CR); with ``runs`` each
    line repeats 1 to 16 times, as a scan's shared ray origins do."""
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        pick = rng.random()
        if pick < 0.08:
            lines.append("# comment " + str(int(rng.integers(100))))
        elif pick < 0.14:
            lines.append(" " * int(rng.integers(0, 3)))
        else:
            lines.append(_row(rng, fields, odd, _SEPARATORS[:-1] if ascii_only else _SEPARATORS))
        if runs:
            lines += lines[-1:] * int(rng.integers(0, 16))
    newline = _NEWLINES[rng.integers(len(_NEWLINES))]
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


_NO_ROWS = {
    "empty": "",
    "comment-only": "# nothing here\n\n   # still nothing\n",
    "blank-lines": "\n\n   \n\t\n",
}


def _table_corpus(tmp_path, fields, seed, runs=False):
    rng = np.random.default_rng(seed)
    one = " ".join("1.5" if kind == "f" else "3" for kind in fields)
    edges = dict(_NO_ROWS, single_row=one + "\n", form_feed_row=one.replace(" ", "\x0c") + "\n")
    paths = [_write(tmp_path, f"edge-{name}", text) for name, text in edges.items()]
    clean = [_write(tmp_path, f"clean-{k}", _text_file(rng, fields, ascii_only=True))
             for k in range(_CORPUS_FILES // 3)]
    odd = [_write(tmp_path, f"odd-{k}", _text_file(rng, fields, odd=0.05))
           for k in range(_CORPUS_FILES)]
    if runs:
        clean += [_write(tmp_path, f"clean-runs-{k}",
                         _text_file(rng, fields, ascii_only=True, runs=True))
                  for k in range(_CORPUS_FILES // 3)]
        odd += [_write(tmp_path, f"odd-runs-{k}", _text_file(rng, fields, odd=0.05, runs=True))
                for k in range(_CORPUS_FILES)]
    return paths, clean, odd


# origins sidecars repeat each firing step's line once per channel; the
# reader parses each run once, and these runs must read as the line scan does
_ORIGIN_RUNS = {
    "runs": "1 2 3\n" * 16 + "4 5 6\n" * 16 + "1 2 3\n" * 3,
    "comment-and-blank-runs": "1 2 3\n1 2 3\n# c\n# c\n\n\n  \n  \n1 2 3\n4 5 6 # c\n4 5 6 # c\n",
    "bad-line-run": "1 2 3\n1 2 3\n1 2\n1 2\n1 2\n4 5 6\n",
    "bad-value-run": "1 2 3\n1 2 x\n1 2 x\n",
    "non-finite-run": "1 2 3\n1 2 3\nnan 0 0\nnan 0 0\n",
    "crlf-runs": "1 2 3\r\n1 2 3\r\n4 5 6\r\n4 5 6\r\n",
    "lone-cr-runs": "1 2 3\r1 2 3\r4 5 6\r4 5 6",
    "mixed-endings": "1 2 3\r\n1 2 3\n1 2 3\r1 2 3",
    "cr-inside-a-run": "1 2 3\n1 2 3\r\n1 2\r3\n",
    "form-feed-in-lines": "1\x0c2\x0c3\n1\x0c2\x0c3\n1 2 3\x0c\n1 2 3\x0c\n",
    "form-feed-lines": "1 2 3\n\x0c\n\x0c\n1 2 3\n",
    "vertical-tab-and-file-separator": "1\x0b2\x1c3\n1\x0b2\x1c3\n",
    # str.splitlines would make two good rows of each of these lines
    "form-feed-between-rows": "1 2 3\x0c4 5 6\n" * 2,
    "separators-between-rows": "1 2 3\x0b4 5 6\n1 2 3\x1e4 5 6\n",
    "no-final-newline": "1 2 3\n1 2 3",
}


def _odd_cases(fields):
    """Each odd token on its own in an otherwise clean two-row file."""
    ok = " ".join("2.5" if kind == "f" else "4" for kind in fields)
    cases = []
    for k, kind in enumerate(fields):
        for token in _ODD_FLOATS if kind == "f" else _ODD_LABELS:
            bad = ok.split()
            bad[k] = token
            cases.append(f"{ok}\n{' '.join(bad)}\n")
    return cases + [f"{ok}\n{ok} 7\n", f"{ok}\n{' '.join(ok.split()[:-1])}\n"]


@pytest.mark.parametrize(
    "read, fields",
    [
        (pio.read_cloud, "fffi"),
        (pio.read_ray_origins, "fff"),
        (pio.read_label_file, "i"),
    ],
    ids=["xyzl", "origins", "labels"],
)
def test_table_readers_match_line_scan(read, fields, tmp_path, monkeypatch, caplog):
    runs = read is pio.read_ray_origins
    edges, clean, odd = _table_corpus(tmp_path, fields, seed=len(fields), runs=runs)
    if runs:
        edges += [_write(tmp_path, f"edge-{name}", text) for name, text in _ORIGIN_RUNS.items()]
    singles = [_write(tmp_path, f"single-{k}", text) for k, text in enumerate(_odd_cases(fields))]
    accepted = _compare(read, edges + clean + odd + singles, monkeypatch, caplog)
    # clean files with data must take the bulk path (and may not fall back)
    with_data = [a for a, p in zip(accepted[len(edges):], clean)
                 if any(l.strip() and not l.lstrip().startswith("#")
                        for l in p.read_text().splitlines())]
    assert with_data and all(with_data)
    if runs:  # a run of bad lines is named by its first line
        with pytest.raises(ParseError, match=r":3: expected 3 fields, got 2"):
            read(tmp_path / "edge-bad-line-run")


@pytest.mark.parametrize("name", ["empty", "comment-only", "blank-lines"])
@pytest.mark.parametrize("read", [pio.read_cloud, pio.read_ray_origins, pio.read_label_file])
def test_files_without_rows_give_zero_rows_and_no_warning(read, name, tmp_path):
    path = _write(tmp_path, "t.txt", _NO_ROWS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = read(path)
    assert len(result) == 0


def test_non_ascii_integer_is_not_read_as_a_digit(tmp_path):
    # numpy's integer parser reads some non-ASCII characters as digits
    # ("Ǿ" as 462); such files must go to the line scan, which rejects them
    path = _write(tmp_path, "c.xyzl", "1 2 3 Ǿ\n")
    with pytest.raises(ParseError, match=r":1: bad numeric field"):
        pio.read_cloud(path)


def test_single_row_files_keep_their_shape(tmp_path):
    xyzl = pio.read_cloud(_write(tmp_path, "c.xyzl", "1 2 3 4\n"))
    origins = pio.read_ray_origins(_write(tmp_path, "o", "1 2 3\n"))
    labels = pio.read_label_file(_write(tmp_path, "l", "5\n"))
    assert xyzl.xyz.shape == (1, 3) and origins.shape == (1, 3) and labels.shape == (1,)
    with pytest.raises(ParseError, match=r":1: bad label: '1 2'"):
        pio.read_label_file(_write(tmp_path, "l2", "1 2\n"))


def _ply_file(rng, odd):
    props = ["x", "y", "z", "class_id"] + (["intensity"] if rng.random() < 0.3 else [])
    seps, comment = (_SEPARATORS, True) if odd else ((" ", "\t"), False)
    rows = [_row(rng, "f" * len(props), odd, seps, comment) for _ in range(int(rng.integers(0, 25)))]
    if rng.random() < odd * 4:
        rows.insert(int(rng.integers(len(rows) + 1)), "")
    if rng.random() < odd * 4:
        rows.append("1 2 3 4 garbage after the rows")
    count = len([r for r in rows if r.split("#", 1)[0].strip()])
    if rng.random() < odd * 4:
        count += int(rng.integers(-1, 2))
    header = (
        "ply\nformat ascii 1.0\ncomment seeded\n"
        f"element vertex {max(count, 0)}\n"
        + "".join(f"property double {p}\n" for p in props)
        + "end_header\n"
    )
    newline = "\r\n" if rng.random() < odd * 4 else "\n"
    return header + newline.join(rows) + newline


def test_ascii_ply_matches_line_scan(tmp_path, monkeypatch, caplog):
    rng = np.random.default_rng(11)
    clean = [_write(tmp_path, f"clean-{k}.ply", _ply_file(rng, 0.0)) for k in range(_CORPUS_FILES // 3)]
    odd = [_write(tmp_path, f"odd-{k}.ply", _ply_file(rng, 0.05)) for k in range(_CORPUS_FILES)]
    head = "ply\nformat ascii 1.0\nelement vertex 2\n" + "".join(
        f"property double {p}\n" for p in "xyz") + "property uchar class_id\nend_header\n"
    edges = [
        _write(tmp_path, f"edge-{k}.ply", head + body)
        for k, body in enumerate([
            "1 2 3 4\n5 6 7 8\n",
            "1 2 3 4\n5 6 7 8 # not a comment in ply\n",
            "1 2 3 4\x0c5 6 7 8\n",  # a form feed separates fields; it ends no row
            "1 2 3\x0c4\n5\x1c6\x0b7 8\n",
            "1 2 3 4\n5 6 7 8\nnot read\n",
            "1 2 3 4\n",
            "1 2 3 4\n5 6 nan 8\n",
            "1 2 3 nan\n5 6 7 8\n",
            "1 2 3 4.6\n5 6 7 1_0\n",
            "1 2 3 4\n5 6 7 ٣\n",
        ])
    ]
    edges.append(_write(tmp_path, "edge-huge.ply", head.replace("vertex 2", "vertex " + "9" * 30) + "1 2 3 4\n"))
    accepted = _compare(pio.read_cloud, clean + odd + edges, monkeypatch, caplog)
    assert all(a for a, p in zip(accepted, clean) if "element vertex 0" not in p.read_text())


@pytest.mark.parametrize("comment", ["comment seeded", "comment page\x0cbreak"])
def test_ascii_ply_error_names_the_files_line(comment, tmp_path):
    # 9 header lines, so "5 6 x 8" is the file's 10th line, whatever the
    # comment holds; both read paths share the body's offset, so the corpus
    # comparison above cannot see it
    head = f"ply\nformat ascii 1.0\n{comment}\nelement vertex 2\n" + "".join(
        f"property double {p}\n" for p in "xyz") + "property uchar class_id\nend_header\n"
    path = _write(tmp_path, "bad.ply", head + "5 6 x 8\n1 2 3 4\n")
    with pytest.raises(ParseError, match=r"bad\.ply:10: bad vertex value"):
        pio.read_cloud(path)


@pytest.mark.parametrize("rows,error", [
    ("1 2 3 4\x0c5 6 7 8\n9 x 9 9\n", r"ff\.ply:9: vertex row has 8 fields"),
    ("1 2 3\x0c4\n9 x 9 9\n", r"ff\.ply:10: bad vertex value"),
    ("1 2 3\x1c4\r\n9 x 9 9\r\n", r"ff\.ply:10: bad vertex value"),
])
def test_ascii_ply_rows_end_only_at_line_ends(rows, error, tmp_path):
    # 8 header lines: the body's first row is the file's 9th line
    head = "ply\nformat ascii 1.0\nelement vertex 2\n" + "".join(
        f"property double {p}\n" for p in "xyz") + "property uchar class_id\nend_header\n"
    with pytest.raises(ParseError, match=error):
        pio.read_cloud(_write(tmp_path, "ff.ply", head + rows))


def _obj_file(rng, odd):
    """Seeded OBJ text: vertices, groups (some unknown or nameless), faces
    mostly triangles; odd ones add quads, slashed or negative refs, refs to
    later vertices, vn/vt lines and faces before any group."""
    lines, n_verts = [], 0
    groups = ("WallSurface", "RoofSurface_2", "Door", "Tree_canopy", "", "GroundSurface")
    for _ in range(int(rng.integers(1, 30))):
        pick = rng.random()
        if pick < 0.4 or n_verts < 3:
            lines.append("v " + " ".join(_float(rng, odd / 4) for _ in range(3)))
            n_verts += 1
        elif pick < 0.5:
            tag = "g" if rng.random() < 0.8 else "o"
            lines.append(f"{tag} {groups[rng.integers(len(groups))]}".rstrip())
        elif pick < 0.55 and rng.random() < odd * 10:
            lines.append(("vn", "vt", "s", "usemtl")[rng.integers(4)] + " 0 0 1")
        else:
            size = 3 if rng.random() > odd * 4 else int(rng.integers(2, 6))
            refs = [int(rng.integers(1, n_verts + 1 + (rng.random() < odd))) for _ in range(size)]
            text = [str(r) for r in refs]
            if rng.random() < odd * 2:
                text = [f"{r - n_verts - 1}" for r in refs]
            if rng.random() < odd * 2:
                text = [f"{t}/{t}/{t}" for t in text]
            lines.append("f " + " ".join(text))
        if rng.random() < odd:
            lines.append("# a comment")
    return "\n".join(lines) + "\n"


def test_obj_matches_line_scan(tmp_path, monkeypatch, caplog):
    rng = np.random.default_rng(12)
    tri = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
    clean = [_write(tmp_path, f"clean-{k}.obj", f"g WallSurface\n{tri}{_obj_file(rng, 0.0)}f 1 2 3\n")
             for k in range(_CORPUS_FILES // 3)]
    odd = [_write(tmp_path, f"odd-{k}.obj", _obj_file(rng, 0.05)) for k in range(_CORPUS_FILES)]
    edges = [
        _write(tmp_path, f"edge-{k}.obj", text)
        for k, text in enumerate([
            tri + "f 1 2 3\n",                      # face before any group
            "g Tree_canopy\n" + tri + "f 1 2 3\ng Door\nf 3 2 1\n",
            "g\n" + tri + "f 1 2 3\n",               # nameless group
            "o RoofSurface\n" + tri + "f 1 2 3 # note\n",
            "g WallSurface\nv\t0 0 0\nv 1\t0 0\nv 0 1 0\nf 1 2 3\n",
            "g WallSurface\n" + tri + "vn 0 0 1\nvt 0 0\nf 1 2 3\n",
            "g WallSurface\n" + tri + "v 1 1 0\nf 1 2 3 4\n",  # quad
            "g WallSurface\n" + tri + "f 1/1 2/2 3/3\n",
            "g WallSurface\n" + tri + "f -3 -2 -1\n",
            "g WallSurface\nv 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n",  # ref ahead
            "g WallSurface\n" + tri + "f 0 1 2\n",
            "g WallSurface\n" + tri + "f 1 2\n",
            "g WallSurface\n" + tri + "v 1 2\nf 1 2 3\n",
            "g WallSurface\n" + tri + "v 1 2 3 1.0\nf 1 2 4\n",
            "g WallSurface\n" + tri + "v nan 0 0\nf 1 2 3\n",
            "g WallSurface\n" + tri + "f 1 2 2\n",  # degenerate
            "g WallSurface\n" + tri * 200 + "f 1 2 Ǿ\n",  # numpy would read Ǿ as 462
            "g WallSurface\r\n" + tri.replace("\n", "\r\n") + "f 1 2 3\r\n",
            "g WallSurface\n" + tri,
            "",
            "g OuterFloorSurface_3\n" + tri + "f 1 2 3\n",  # CityGML and OpenDRIVE descriptors
            "g TrafficArea function=1\n" + tri + "f 1 2 3\n",
            "g RoadObject_7 type=pole name=streetLamp\n" + tri + "f 1 2 3\n",
            "g LaneSectionLRLane type=biking\n" + tri + "f 1 2 3\n",
        ])
    ]
    # how a line starts: the byte scan that finds the tags decides these
    starts = [
        _write(tmp_path, f"start-{k}.obj", text)
        for k, text in enumerate([
            " g WallSurface\n" + tri + "\tf 1 2 3\n",  # whitespace before a tag
            "g WallSurface\n" + tri + " v 1 1 0\n\t f 1 2 4\n\x0bf 4 2 1\n",
            "g WallSurface\n" + tri + "vn 0 0 1\nvt 0 0 0\nfo 1 2 3\nf 1 2 3\n",
            "g WallSurface\n" + tri + "f 1 2 3",  # no newline at the end
            "g WallSurface\r\n\r\n" + tri.replace("\n", "\r\n") + " f 1 2 3\r\n",
            "g WallSurface\n" + tri + "v#c\nf 1 2 3\n",
            "g WallSurface\n" + tri + "f#c\nf 1 2 3\n",
            "g WallSurface\nv\x0b0 0 0\nv\x0c1 0 0\nv\x1c0 1 0\nf 1 2 3\n",
            "g WallSurface\n" + tri + "f\x0b1 2 3\n",
            "g WallSurface\n" + tri + "f\x0c1 2 3\n",
            "g WallSurface\n" + tri + "f\x1c1 2 3\n",
            "g\x1cDoor\n" + tri + "f 1 2 3\n",
        ])
    ]
    accepted = _compare(pio.read_mesh, clean + odd + edges + starts, monkeypatch, caplog)
    assert all(accepted[:len(clean)])
    assert accepted[len(clean) + len(odd):][:2] == [True, True]
    assert accepted[-len(starts):][:5] == [True] * 5


def test_obj_tags_match_first_token():
    """The byte scan gives every line the tag of its first token, as
    ``line.split("#", 1)[0].split()`` does, on seeded lines of tag letters,
    every ASCII whitespace byte, comments and line ends."""
    rng = np.random.default_rng(6)
    alphabet = list("vfgo#nt 1.a\t\x0b\x0c\r\n\x00") + [chr(c) for c in range(0x1c, 0x20)]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
        lines = text.split("\n")
        want = [(line.split("#", 1)[0].split(None, 1) or ("",))[0] for line in lines]
        got = pio._obj_tags(text, lines)
        assert [chr(t) if t else "" for t in got] == [w if len(w) == 1 else "" for w in want]


# ---------------------------------------------------------------------------
# writers: byte-identical to the per-line writers they replaced
# ---------------------------------------------------------------------------

_OLD_FMT = "%.17g"


def _old_write_xyzl(cloud, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(cloud)):
            x, y, z = cloud.xyz[i]
            fh.write(f"{_OLD_FMT % x} {_OLD_FMT % y} {_OLD_FMT % z} {int(cloud.labels[i])}\n")


def _old_write_ply_ascii(cloud, path):
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property uchar class_id\nend_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        lines = []
        for i in range(len(cloud)):
            x, y, z = cloud.xyz[i]
            lines.append(f"{_OLD_FMT % x} {_OLD_FMT % y} {_OLD_FMT % z} {int(cloud.labels[i])}\n")
        fh.write("".join(lines).encode("ascii"))


def _old_write_ray_origins(origins, path):
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, z in origins:
            fh.write(f"{_OLD_FMT % x} {_OLD_FMT % y} {_OLD_FMT % z}\n")


def _old_write_provenance(provenance, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for is_real in provenance:
            fh.write("real\n" if is_real else "synthetic\n")


_EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
    3.0, -7.0, 1e16, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, 1 / 3, 123456789.0, 1e-5,
])


def _values(rng, n):
    random = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n)
    picks = _EDGE_VALUES[rng.integers(len(_EDGE_VALUES), size=n)]
    return np.where(rng.random(n) < 0.3, picks, random)


_SIGNED = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5])
_NON_FINITE = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])

# run lengths of repeated rows: each firing step's origin repeats once per
# channel, and the writer formats a run once
_RUNS = {
    "runs-of-16": [16] * 1300,
    "runs-across-chunk-edges": [8190, 5, 8000, 200, 1, 8191, 30, 8192],
    "signed-zeros-and-nans": list(range(1, 4)) * 1500,
    "one-run-of-20000": [20000],
}


def _writer_inputs(case):
    """Cloud rows, labels, origins and provenance: random rows for a row
    count, or rows in the runs of a named case."""
    rng = np.random.default_rng(case if isinstance(case, int) else len(case))
    if isinstance(case, int):
        n = case
        xyz, origins = _values(rng, 3 * n).reshape(n, 3), _values(rng, 3 * n).reshape(n, 3)
        origins[rng.random(n) < 0.05] = [np.nan, np.inf, -np.inf]
        return xyz, rng.integers(1, 13, size=n), origins, rng.random(n) < 0.5
    runs = _RUNS[case]
    k = len(runs)
    if case.startswith("signed"):
        xyz = _SIGNED[rng.integers(len(_SIGNED), size=(k, 3))]
        origins = _NON_FINITE[rng.integers(len(_NON_FINITE), size=(k, 3))]
    else:
        xyz, origins = _values(rng, 3 * k).reshape(k, 3), _values(rng, 3 * k).reshape(k, 3)
    labels = np.repeat(rng.integers(1, 13, size=k), runs)
    n = labels.size
    labels[rng.random(n) < 0.01] = 1  # rows that differ only in their label
    provenance = np.arange(n) < n // 2  # two blocks, as mix writes them
    return np.repeat(xyz, runs, axis=0), labels, np.repeat(origins, runs, axis=0), provenance


@pytest.mark.parametrize("case", [0, 1, 17, 8191, 8192, 8193, 20000, *_RUNS])
def test_writers_byte_identical_to_per_line_writers(case, tmp_path):
    xyz, labels, origins, provenance = _writer_inputs(case)
    cloud = LabeledPointCloud(xyz, labels)

    pairs = [
        (lambda p: pio.write_cloud(cloud, p, pio.FORMAT_XYZL), lambda p: _old_write_xyzl(cloud, p)),
        (lambda p: pio.write_cloud(cloud, p, pio.FORMAT_PLY_ASCII),
         lambda p: _old_write_ply_ascii(cloud, p)),
        (lambda p: pio.write_ray_origins(origins, p), lambda p: _old_write_ray_origins(origins, p)),
        (lambda p: pio.write_provenance(provenance, p),
         lambda p: _old_write_provenance(provenance, p)),
    ]
    for k, (new, old) in enumerate(pairs):
        new(tmp_path / f"new-{k}")
        old(tmp_path / f"old-{k}")
        assert (tmp_path / f"new-{k}").read_bytes() == (tmp_path / f"old-{k}").read_bytes(), k
    assert np.array_equal(pio.read_cloud(tmp_path / "new-0").xyz.view(np.int64), xyz.view(np.int64))
