"""The column formatter of the text writers against Python's ``'%.17g' % v``.

Floats in ``1e-4 <= |v| < 1e16`` take their digits from the value's bits
(a 128-bit product, rounded half-even, with a ``log10`` exponent estimate
corrected where it is a decade off); the rest take Python's text. Each
check compares every value's bytes, and the same values written through
``write_cloud`` and ``write_ray_origins``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgap import io as pio
from pcgap.core import LabeledPointCloud


def texts(values):
    """The formatter's text of each value, its NUL padding dropped."""
    rows = pio._float_text(np.asarray(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]


def assert_formats_as_python(values, tmp_path):
    values = np.asarray(values, dtype=np.float64)
    want = ["%.17g" % v for v in values.tolist()]
    assert texts(values) == want
    origins = np.resize(values, (len(values) + 2) // 3 * 3).reshape(-1, 3)
    pio.write_ray_origins(origins, tmp_path / "o.origins")
    want_rows = "".join("%.17g %.17g %.17g\n" % tuple(row) for row in origins.tolist())
    assert (tmp_path / "o.origins").read_text() == want_rows
    finite = origins[np.isfinite(origins).all(axis=1)]
    labels = np.arange(len(finite)) % 12 + 1
    pio.write_cloud(LabeledPointCloud(finite, labels), tmp_path / "c.xyzl", pio.FORMAT_XYZL)
    want_rows = "".join("%.17g %.17g %.17g %d\n" % (*row, label)
                        for row, label in zip(finite.tolist(), labels.tolist()))
    assert (tmp_path / "c.xyzl").read_text() == want_rows


def signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_any_float(values, tmp_path_factory):
    assert_formats_as_python(values, tmp_path_factory.mktemp("floats"))


@given(values=st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_floats_of_the_vectorized_range(values, tmp_path_factory):
    assert_formats_as_python(signed(values), tmp_path_factory.mktemp("floats"))


def test_signed_zeros_subnormals_and_non_finite(tmp_path):
    assert texts([0.0, -0.0, np.nan, np.inf, -np.inf]) == ["0", "-0", "nan", "inf", "-inf"]
    assert_formats_as_python(signed([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                                     np.inf, np.nan, 2.220446049250313e-16]), tmp_path)


def test_half_way_cases_round_half_even(tmp_path):
    """Each value's exact decimal has 18 significant digits ending in 5, so
    its 17th digit rounds half-even: ``2**50 + k + 0.25`` keeps an even digit
    (``…624.2``) where rounding half up would give ``…624.3``."""
    k = np.arange(-300, 300)
    halves = np.concatenate([2.0**50 + k + 0.25, 2.0**50 + k + 0.75, 2.0**49 + k + 0.125,
                             2.0**49 + k + 0.375, 2.0**49 + k + 0.625, 2.0**49 + k + 0.875])
    assert texts([2.0**50 + 0.25, 2.0**50 + 0.75]) == ["1125899906842624.2", "1125899906842624.8"]
    assert_formats_as_python(signed(halves), tmp_path)
    # 17 significant digits that the value holds exactly
    assert_formats_as_python(signed(np.concatenate([2.0**52 + k + 0.5, [1234567890123456.5]])), tmp_path)


def test_neighbours_of_every_power_of_ten(tmp_path):
    """``log10`` of a float beside a power of ten can land in the wrong
    decade; the estimate is corrected there."""
    powers = np.array([float(f"1e{p}") for p in range(-320, 309)])
    values = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    assert_formats_as_python(signed(values), tmp_path)


@pytest.mark.parametrize("skew", [-1e-9, 1e-9])
def test_exponent_estimate_a_decade_off(skew, monkeypatch):
    """One step corrects an estimate a decade off either way: a skewed
    ``log10`` puts each power of ten a decade low (its 17 digits at the
    estimate are 10**17), or the floats just below one a decade high."""
    powers = 10.0 ** np.arange(-3, 16)
    values = signed(np.concatenate([powers, np.nextafter(powers, 0), powers * (1 - 1e-10),
                                    powers * (1 + 1e-10), [1e-4, 1.0000000000000002e-4]]))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + skew)
    assert texts(values) == ["%.17g" % v for v in values.tolist()]


def test_tops_of_decades(tmp_path):
    """Literals just below a power of ten: their float keeps 17 digits below
    the decade, or is the power itself (``9.9999999999999995`` reads as 10)."""
    carries = [0.99999999999999994, 9.9999999999999995, 99.999999999999995, 0.00099999999999999995,
               999999999999999.94, 9999999999999998.0, 0.99999999999999989]
    assert texts([0.99999999999999994, 9.9999999999999995]) == ["0.99999999999999989", "10"]
    assert_formats_as_python(signed(carries), tmp_path)


@pytest.mark.parametrize("scale", [7e5, 5e6, 1.0, 1e-3])
def test_coordinate_scales(scale, tmp_path):
    """UTM-scale eastings and northings, scene meters and millimeter residues."""
    rng = np.random.default_rng(int(scale * 1000))
    places = 10.0 ** rng.integers(0, 8, 3000)
    values = scale * (1 + rng.random(3000)) + np.round(rng.normal(size=3000) * places) / places
    assert_formats_as_python(signed(values), tmp_path)


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(22).integers(0, 2**64, size=20_000, dtype=np.uint64)
    assert_formats_as_python(bits.view(np.float64), tmp_path)
