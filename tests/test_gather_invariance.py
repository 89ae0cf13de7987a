"""Street-pair reports do not depend on where the M3C2 gathers cut their
blocks, nor on how many lanes run them: a single ``compare`` and a 3-offset
series are byte-identical under pair budgets of 2,000, 50,000 and the
default, on one lane and on two, and on a rerun of the default."""

import pytest

import pcgap.spatial as spatial
from pcgap.cli import EXIT_OK, main
from pcgap.io import FORMAT_PLY_BINARY, write_cloud

OFFSETS = {"gap": [], "series": ["--offset", "0,0.1,0.3"]}


@pytest.fixture(scope="module")
def street_files(tmp_path_factory, street_scene_pair):
    root = tmp_path_factory.mktemp("street")
    paths = (root / "real.ply", root / "synth.ply")
    for cloud, path in zip(street_scene_pair, paths):
        write_cloud(cloud, path, FORMAT_PLY_BINARY)
    return paths


def report_bytes(street_files, out_dir, names=tuple(OFFSETS)):
    real, synth = street_files
    for name in names:
        out = out_dir / f"{name}.json"
        argv = ["compare", "--real", str(real), "--synthetic", str(synth), "--out", str(out)]
        assert main(argv + OFFSETS[name]) == EXIT_OK
    return {name: (out_dir / f"{name}.json").read_bytes() for name in names}


@pytest.fixture(scope="module")
def one_lane_reports(street_files, tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spatial, "_lane_count", lambda: 1)
        return report_bytes(street_files, tmp_path_factory.mktemp("one-lane"))


# a budget of 2,000 cuts each gather into thousands of blocks, some seconds
# for the single compare alone, which runs every kind of gather; the series
# adds offsets, not kinds of gather. Two lanes interleave hundreds of blocks
# at 50,000.
@pytest.mark.parametrize("budget,lanes,names", [
    (2_000, 1, ("gap",)),
    (50_000, 1, tuple(OFFSETS)),
    (50_000, 2, tuple(OFFSETS)),
    (spatial._CANDIDATE_BUDGET, 1, tuple(OFFSETS)),
    (spatial._CANDIDATE_BUDGET, 2, tuple(OFFSETS)),
], ids=["2000-compare", "50000", "50000-two-lanes", "default", "default-two-lanes"])
def test_reports_do_not_depend_on_blocks_or_lanes(monkeypatch, tmp_path, street_files,
                                                   one_lane_reports, budget, lanes, names):
    monkeypatch.setattr(spatial, "_CANDIDATE_BUDGET", budget)
    monkeypatch.setattr(spatial, "_lane_count", lambda: lanes)
    got = report_bytes(street_files, tmp_path, names)
    assert got == {name: one_lane_reports[name] for name in names}
