"""The field-CSV and OBJ writers print the bytes of the row-at-a-time
reference writers, special floats included, and the field-CSV writer those
of the stacked-table one; so do files written in turn on the grids and
masks that the writers' one-entry template memos must tell apart.  The
writers' number kernel prints format(v, ".17g") of over a million doubles
of every kind, and hands the exact ties to `format`."""
import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nildual import io_formats
from nildual.cli import main
from nildual.io_formats import write_field_csv, write_obj
from nildual.nil3 import DomainGrid, SurfaceGrid

from .oracles import (
    reference_write_field_csv,
    reference_write_obj,
    stacked_write_field_csv,
)

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.2250738585072009e-308, 1e308, -1e-308, 1.0, -1.0,
           # an exact 17-digit tie, rounded half to even by `format`
           4000000000000001 / 4,
           # outside the kernel's vector range 1e-280 <= |v| <= 1e280
           -3e-290, 2.5e285,
           # the bounds of the fixed form (1e-4, 1e17) and of the 17-digit
           # integer's range (1e16), and the doubles just below them
           1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
           1e17, np.nextafter(1e17, 0.0)]

floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))

shapes = st.tuples(st.integers(5, 8), st.integers(5, 8))

FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _kernel_text(values, rows=20_000):
    """The kernel's text of float64 values, one per line, `rows` values a
    table."""
    return b"".join(io_formats._rows(np.empty((len(part), 0), dtype=np.uint8),
                                     part[:, None], b"\n")
                    for part in np.split(values, range(rows, len(values),
                                                        rows)))


def _format_text(values):
    return "".join(map("{:.17g}\n".format, values.tolist())).encode()


def _assert_kernel_is_format(values):
    got, want = _kernel_text(values), _format_text(values)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(),
                                           want.split()) if g != w]
        raise AssertionError(f"{len(bad)} values misprinted, e.g. {bad[:5]}")


def test_kernel_prints_format_17g_exactly():
    """Over a million doubles: random bit patterns (NaN payloads and
    subnormals among them); every power of ten from 1e-300 to 1e300 (the
    fixed form's bounds 1e-4 and 1e17 among them) and zero and infinity,
    each with its two neighbours and both signs; log-uniform values of
    every fixed-form exponent; short decimals and dyadic fractions, whose
    trailing zeros the kernel drops; and odd N/4 for N in [4e15, 2^53],
    exact ties between two 17-digit decimals, which the product cannot
    decide, so that `format` rounds them half to even."""
    rng = np.random.default_rng(38)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=250_000, dtype=np.int64, endpoint=True)
    edges = np.array([float(f"1e{e}") for e in range(-300, 301)]
                     + [0.0, np.inf])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf)])
    fixed = 10.0 ** rng.uniform(-6.0, 18.0, size=240_000)
    short = np.concatenate([
        rng.integers(-10**6, 10**6, size=130_000) / 10.0 ** rng.integers(
            0, 8, size=130_000),
        rng.integers(-10**9, 10**9, size=130_000) / 2.0 ** rng.integers(
            0, 40, size=130_000)])
    odd = np.concatenate([[4 * 10**15 + 1, 2**53 - 1], rng.integers(
        2 * 10**15, 2**52, size=30_000, dtype=np.int64) * 2 + 1])
    ties = odd / 4.0
    assert np.array_equal(ties * 4.0, odd.astype(np.float64))
    *_, undecided = io_formats._digits(ties)
    assert undecided.all()
    cases = [bits.view(np.float64), np.concatenate([edges, -edges]), fixed,
             -fixed, short, ties]
    assert sum(c.size for c in cases) > 1_000_000
    for values in cases:
        _assert_kernel_is_format(values)


def _grid(shape, x0=-1.0, y0=-0.5):
    ny, nx = shape
    return DomainGrid(x0, x0 + 2.0, y0, y0 + 1.0, nx, ny)


def _complex(re, im):
    # assembled part by part: re + 1j * im would turn a -0.0 into +0.0
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@st.composite
def field_and_mask(draw):
    shape = draw(shapes)
    parts = [draw(hnp.arrays(float, shape, elements=floats))
             for _ in range(2)]
    field = parts[0] if draw(st.booleans()) else _complex(*parts)
    mask = draw(st.one_of(st.none(), hnp.arrays(bool, shape)))
    x0 = draw(st.floats(-1e3, 1e3))
    y0 = draw(st.floats(-1e3, 1e3))
    return _grid(shape, x0, y0), field, mask


@st.composite
def surfaces(draw):
    shape = draw(shapes)
    coords = draw(hnp.arrays(float, shape + (3,), elements=floats))
    mask = draw(hnp.arrays(bool, shape))
    return SurfaceGrid(coords, _grid(shape), mask=mask)


def _same_csv(tmp_path, grid, field, mask):
    write_field_csv(tmp_path / "new.csv", field, grid, mask)
    reference_write_field_csv(tmp_path / "ref.csv", field, grid, mask)
    want = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == want


def _same_obj(tmp_path, surface):
    write_obj(tmp_path / "new.obj", surface)
    reference_write_obj(tmp_path / "ref.obj", surface)
    want = (tmp_path / "ref.obj").read_bytes()
    assert (tmp_path / "new.obj").read_bytes() == want


@given(field_and_mask())
@FAST
def test_field_csv_matches_reference(tmp_path, case):
    _same_csv(tmp_path, *case)


@given(surfaces())
@FAST
def test_obj_matches_reference(tmp_path, surface):
    _same_obj(tmp_path, surface)


def test_writers_on_empty_and_holed_masks(tmp_path):
    grid = _grid((6, 7))
    rng = np.random.default_rng(11)
    field = _complex(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    coords = rng.normal(size=grid.shape + (3,))
    holed = np.ones(grid.shape, dtype=bool)
    holed[2, 3] = holed[4, 0] = holed[0, 6] = False
    none = np.zeros(grid.shape, dtype=bool)
    for mask in (none, holed):
        _same_csv(tmp_path, grid, field, mask)
        _same_obj(tmp_path, SurfaceGrid(coords, grid, mask=mask))
    assert (tmp_path / "new.csv").read_text().count("\n") == 2 + holed.sum()
    write_field_csv(tmp_path / "empty.csv", field, grid, none)
    assert (tmp_path / "empty.csv").read_text() == "# schema=1\ni,j,x,y,re,im\n"
    write_obj(tmp_path / "empty.obj", SurfaceGrid(coords, grid, mask=none))
    assert (tmp_path / "empty.obj").read_text() == "# schema=1\n"


def test_field_csv_matches_stacked_table(tmp_path):
    """Coordinates formatted once per grid row and column give the bytes of
    formatting every node's whole row: a masked complex field and an
    unmasked real one on a 41x41 grid."""
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 41, 41)
    rng = np.random.default_rng(7)
    complex_field = _complex(rng.normal(size=grid.shape),
                             rng.normal(size=grid.shape))
    complex_field[3, 5] = complex(-0.0, np.nan)
    mask = np.abs(grid.zz) >= 0.3
    real_field = rng.normal(size=grid.shape) * 1e-300
    real_field[0, 0] = -0.0
    for field, m in ((complex_field, mask), (real_field, None)):
        write_field_csv(tmp_path / "new.csv", field, grid, m)
        stacked_write_field_csv(tmp_path / "ref.csv", field, grid, m)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def _in_turn(tmp_path, csvs=(), objs=()):
    """Each case written twice, in turn with the others, byte-equal to the
    reference each time."""
    for _ in range(2):
        for grid, field, mask in csvs:
            _same_csv(tmp_path, grid, field, mask)
        for surface in objs:
            _same_obj(tmp_path, surface)


def test_csv_template_tells_a_signed_zero_bound_apart(tmp_path):
    # linspace puts the upper bound itself at the last node
    minus, plus = (DomainGrid(-2.0, x1, -1.0, 1.0, 5, 6)
                   for x1 in (-0.0, 0.0))
    assert minus == plus
    field = np.arange(30.0).reshape(6, 5) + 0.5j
    _in_turn(tmp_path, csvs=[(minus, field, None), (plus, field, None)])
    write_field_csv(tmp_path / "minus.csv", field, minus)
    assert "\n0,4,-0,-1," in (tmp_path / "minus.csv").read_text()


def test_csv_template_tells_masks_of_one_size_apart(tmp_path):
    grid = _grid((6, 7))
    field = np.random.default_rng(3).normal(size=grid.shape) * (1 + 2j)
    a = np.ones(grid.shape, dtype=bool)
    b = a.copy()
    a[1, 2] = b[4, 5] = False
    _in_turn(tmp_path, csvs=[(grid, field, a), (grid, field, b)])


def test_csv_template_of_an_int_mask_is_the_bool_mask_s(tmp_path):
    grid = _grid((5, 6))
    field = np.random.default_rng(5).normal(size=grid.shape) + 0j
    mask = np.ones(grid.shape, dtype=int)
    mask[2, 3] = mask[0, 0] = 0
    _in_turn(tmp_path, csvs=[(grid, field, mask),
                             (grid, field, mask.astype(bool))])


def test_csv_template_serves_real_and_complex_fields(tmp_path):
    grid = _grid((5, 5))
    rng = np.random.default_rng(9)
    real = rng.normal(size=grid.shape)
    real[1, 1] = -0.0
    cplx = _complex(rng.normal(size=grid.shape), rng.normal(size=grid.shape))
    _in_turn(tmp_path, csvs=[(grid, real, None), (grid, cplx, None)])


def test_obj_template_follows_the_mask_not_the_coordinates(tmp_path):
    grid = _grid((6, 6))
    rng = np.random.default_rng(13)
    holed = np.ones(grid.shape, dtype=bool)
    holed[3, 3] = False
    other = np.ones(grid.shape, dtype=bool)
    other[0, 5] = other[5, 0] = False
    _in_turn(tmp_path, objs=[
        SurfaceGrid(rng.normal(size=grid.shape + (3,)), grid, mask=holed),
        SurfaceGrid(rng.normal(size=grid.shape + (3,)), grid, mask=holed),
        SurfaceGrid(rng.normal(size=grid.shape + (3,)), grid, mask=other)])


def _fresh_memos(monkeypatch):
    """The two template memos, replaced by empty ones of the same size."""
    memos = []
    for name in ("_csv_template", "_obj_template"):
        memo = getattr(io_formats, name)
        fresh = functools.lru_cache(**memo.cache_parameters())(
            memo.__wrapped__)
        monkeypatch.setattr(io_formats, name, fresh)
        memos.append(fresh)
    return memos


def test_each_command_builds_one_csv_and_one_obj_template(tmp_path,
                                                          monkeypatch):
    """Every CSV a command writes lies on one grid and mask, and every OBJ
    on one mask: (CSV, OBJ) files written and templates built per command
    on the paraboloid at two lambdas."""
    args = ["--example", "paraboloid", "--grid=-1,1,-1,1,21,21",
            "--lambda", "1,exp:pi/3", "--out", str(tmp_path)]
    for argv, files in ((["generate", *args], (10, 2)),
                        (["dual", *args], (10, 2)),
                        (["export", "--formats", "obj,csv"], (4, 4))):
        memos = _fresh_memos(monkeypatch)
        if argv[0] == "export":
            (run_dir,) = tmp_path.iterdir()
            argv = [*argv, "--run", str(run_dir)]
        assert main(argv) == 0
        info = [m.cache_info() for m in memos]
        assert tuple(i.hits + i.misses for i in info) == files, argv[0]
        assert [i.misses for i in info] == [1, 1], argv[0]
