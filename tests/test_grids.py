import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grushin3d import DomainError, GridFormatError, grids
from grushin3d.fields import random_bump_corpus
from grushin3d.grids import GRID_MAGIC, GridFunction3D, load_grid, save_grid
from grushin3d.rearrangement import distribution_function, grushin_energy, weighted_lq_norm
from grid_reference import resample


@pytest.fixture
def small_grid():
    rng = np.random.default_rng(2)
    bbox = np.array([(-1.0, 1.0), (-0.5, 0.5), (0.0, 2.0)])
    return GridFunction3D(bbox, rng.uniform(0, 1, size=(4, 3, 5)))


class TestContainer:
    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            GridFunction3D(np.array([(-1, 1)] * 3), np.full((2, 2, 2), np.nan))

    @pytest.mark.parametrize("x1", [(-np.inf, np.inf), (0.0, np.inf), (-1e308, 1e308), (np.nan, 1.0)])
    def test_rejects_nonfinite_bbox(self, x1):
        # an infinite entry, or finite entries whose extent overflows
        bbox = np.array([x1, (-1, 1), (-1, 1)])
        with pytest.raises(DomainError, match="bbox entries and extents must be finite"):
            GridFunction3D(bbox, np.zeros((2, 2, 2)))
        with pytest.raises(DomainError, match="bbox entries and extents must be finite"):
            grids.CellGrid(bbox, (2, 2, 2))

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(DomainError):
            GridFunction3D(
                np.array([(-1, 1)] * 3), np.zeros((2, 2, 2)), mask=np.ones((3, 2, 2), bool)
            )

    def test_cell_cap(self):
        # checked before any array exists, so the rejected grid costs nothing
        assert grids.CellGrid(np.array([(-1, 1)] * 3), (256, 256, 256)).dims == (256, 256, 256)
        with pytest.raises(DomainError, match="256\\^3"):
            grids.CellGrid(np.array([(-1, 1)] * 3), (256, 256, 257))

    def test_cell_geometry(self, small_grid):
        assert small_grid.dims == (4, 3, 5)
        assert np.allclose(small_grid.spacing, [0.5, 1 / 3, 0.4])
        assert small_grid.axis_centers(0)[0] == pytest.approx(-0.75)

    def test_weight2d_constant_in_y(self, small_grid):
        w = small_grid.weight2d(1.0)
        assert w.shape == (4, 3)
        x1 = small_grid.axis_centers(0)
        x2 = small_grid.axis_centers(1)
        assert w[1, 2] == pytest.approx(x1[1] ** 2 + x2[2] ** 2)


class TestFileFormat:
    def test_roundtrip_bit_exact(self, small_grid, tmp_path):
        path = tmp_path / "grid.txt"
        save_grid(small_grid, path)
        loaded = load_grid(path)
        assert np.array_equal(loaded.values, small_grid.values)
        assert np.array_equal(loaded.bbox, small_grid.bbox)

    def test_header_line(self, small_grid, tmp_path):
        path = tmp_path / "grid.txt"
        save_grid(small_grid, path)
        assert path.read_text().splitlines()[0] == GRID_MAGIC

    def test_value_ordering_x1_fastest(self, tmp_path):
        vals = np.arange(8, dtype=float).reshape(2, 2, 2)
        grid = GridFunction3D(np.array([(0, 1)] * 3), vals)
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        numbers = [float(t) for line in path.read_text().splitlines()[3:] for t in line.split()]
        # x1 fastest: v(0,0,0), v(1,0,0), v(0,1,0), v(1,1,0), v(0,0,1), ...
        expected = [vals[i, j, k] for k in range(2) for j in range(2) for i in range(2)]
        assert numbers == expected

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-grid\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(path)
        assert err.value.line == 1

    def test_bad_dims(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\ntwo 2 2\n0 1 0 1 0 1\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(path)
        assert err.value.line == 2

    def test_dims_over_cell_cap(self, tmp_path):
        # rejected at the dims line; the malformed body is never parsed
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\n257 256 256\n0 1 0 1 0 1\nnot-a-number\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(path)
        assert err.value.line == 2

    def test_bad_bbox(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\n2 2 2\n0 1 0 1\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("bbox", ["-inf inf -1 1 -1 1", "-1e308 1e308 -1 1 -1 1", "0 1 0 1 nan 1"])
    def test_nonfinite_bbox(self, tmp_path, bbox):
        # rejected at the bbox line; the malformed body is never parsed
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\n2 2 2\n{bbox}\nnot-a-number\n")
        with pytest.raises(GridFormatError, match="bbox entries and extents must be finite") as err:
            load_grid(path)
        assert err.value.line == 3

    def test_nan_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\n2 2 2\n0 1 0 1 0 1\n1 2 3 4\nnan 6 7 8\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(path)
        assert err.value.line == 5

    def test_short_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\n2 2 2\n0 1 0 1 0 1\n1 2 3\n")
        with pytest.raises(GridFormatError):
            load_grid(path)

    def test_excess_values(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{GRID_MAGIC}\n1 1 1\n0 1 0 1 0 1\n1 2\n")
        with pytest.raises(GridFormatError):
            load_grid(path)


EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
BBOX = np.array([(-1.0, 1.0), (-0.5, 0.5), (0.0, 2.0)])
HEADER = f"{GRID_MAGIC}\n"

# values and their '%.17g' text: half-even ties, the switch to scientific
# notation below 1e-4 (log10 also puts 9.9999999999999991e-05 one decade too
# high) and at 1e17, a 17-digit carry to the next power of ten (1e-14 is
# 9.99999999999999998819e-15, which the kernel rounds up to 1e-14), signed
# zeros, subnormals, and large exponents with three digits
PINNED = [
    (26215 * 2.0**-18, "0.10000228881835938"),
    (26217 * 2.0**-18, "0.10000991821289062"),
    (3 * 2.0**-24, "1.7881393432617188e-07"),
    (1e-4, "0.0001"),
    (9.9999999999999991e-05, "9.9999999999999991e-05"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (1e-14, "1e-14"),
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (-5e-324, "-4.9406564584124654e-324"),
    (1e308, "1e+308"),
    (-1.2345e-123, "-1.2345000000000001e-123"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
]


def reference_bytes(grid):
    """The file as formatted one value at a time."""
    n1, n2, n3 = grid.dims
    flat = grid.values.ravel(order="F")
    rows = "".join(grids._format_row(flat[s : s + n1]) for s in range(0, flat.size, n1))
    return (HEADER + f"{n1} {n2} {n3}\n" + grids._format_row(grid.bbox.ravel()) + rows).encode()


def parse_outcome(parse):
    """('ok', value bytes) or ('error', message, line) of one parse."""
    try:
        return ("ok", parse().tobytes())
    except GridFormatError as exc:
        return ("error", str(exc), exc.line)


class TestBulkWrite:
    @given(
        arrays(np.float64, st.tuples(*[st.integers(1, 6)] * 3), elements=FINITE),
        st.integers(1, 40),
    )
    def test_bytes_equal_per_value_formatting(self, values, block):
        grid = GridFunction3D(BBOX, values)
        # small blocks put block boundaries inside the grid and inside rows
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(grids, "_BLOCK_VALUES", block):
            path = Path(tmp) / "grid.txt"
            save_grid(grid, path)
            assert path.read_bytes() == reference_bytes(grid)
            loaded = load_grid(path)
        assert loaded.values.tobytes() == grid.values.tobytes()  # bit-exact, signed zeros too

    def test_default_block_spans_several_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = GridFunction3D(BBOX, rng.standard_normal((40, 30, 20)) * 1e-3)
        assert grid.values.size > 2 * grids._BLOCK_VALUES
        save_grid(grid, tmp_path / "grid.txt")
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    def test_rows_longer_than_a_block_are_split(self, tmp_path):
        values = np.random.default_rng(6).standard_normal((3 * grids._BLOCK_VALUES // 2, 2, 1))
        grid = GridFunction3D(BBOX, values)
        sizes = []

        def recorded(values, start, n1, format_block=grids._format_block):
            sizes.append(values.size)
            return format_block(values, start, n1)

        with mock.patch.object(grids, "_format_block", recorded):
            save_grid(grid, tmp_path / "grid.txt")
        assert max(sizes) == grids._BLOCK_VALUES
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    @pytest.mark.parametrize("value, text", PINNED)
    def test_pinned_value_alone(self, value, text, tmp_path):
        save_grid(GridFunction3D(BBOX, np.full((1, 1, 1), value)), tmp_path / "grid.txt")
        assert (tmp_path / "grid.txt").read_text().splitlines()[3] == text

    @pytest.mark.parametrize("value, text", PINNED)
    def test_pinned_value_in_block(self, value, text, tmp_path):
        values = np.random.default_rng(3).uniform(-2.0, 2.0, (8, 8, 8))
        values[3, 5, 2] = value
        grid = GridFunction3D(BBOX, values)
        save_grid(grid, tmp_path / "grid.txt")
        tokens = (tmp_path / "grid.txt").read_text().split()[11:]  # after the three header lines
        assert tokens[3 + 8 * 5 + 64 * 2] == text
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    def test_values_next_to_powers_of_ten(self, tmp_path):
        # log10 misses the exponent of some of these by one; 1e-307 .. 1e308
        # spans every normal exponent, one-, two- and three-digit
        bits = np.array([float(f"1e{k}") for k in range(-307, 309)]).view(np.int64)
        near = (bits[:, None] + np.arange(-64, 65)).view(np.float64)
        grid = GridFunction3D(BBOX, np.concatenate([near, -near]).reshape(-1, 8, 129))
        save_grid(grid, tmp_path / "grid.txt")
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    def test_random_bit_patterns_of_every_exponent(self, tmp_path):
        rng = np.random.default_rng(8)
        exponents = np.repeat(np.arange(1, 2047, dtype=np.int64), 40)
        mantissas = rng.integers(0, 1 << 52, exponents.size, dtype=np.int64)
        signs = rng.integers(0, 2, exponents.size, dtype=np.int64) << 63
        values = (signs | exponents << 52 | mantissas).view(np.float64)
        grid = GridFunction3D(BBOX, values.reshape(40, 31, 66))
        save_grid(grid, tmp_path / "grid.txt")
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    def test_half_even_ties(self, tmp_path):
        # m 2^-(p+1) * 10^p = m 5^p / 2 with m odd lies halfway between two
        # 17-digit integers when 1e16 <= m 5^p / 2 < 1e17; at p = 23 and 24
        # 10^p is no double, and these ties go to the per-value fallback
        rng = np.random.default_rng(4)
        ties = []
        for p in range(25):
            lo, hi = int(2e16) // 5**p + 1, min(int(2e17) // 5**p, 2**53)
            if lo < hi:
                ties += [float(int(m) | 1) * 2.0 ** -(p + 1) for m in rng.integers(lo, hi, 40)]
        ties = np.array(ties)
        # where 10^p is a double the kernel rounds the exact ties itself
        assert grids._seventeen_digits(ties)[2].tolist() == (ties < 1e-6).tolist()
        grid = GridFunction3D(BBOX, ties.reshape(1, 1, -1))
        save_grid(grid, tmp_path / "grid.txt")
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    def test_powers_exact_where_ten_to_the_p_is_a_double(self):
        exact = np.flatnonzero(grids._scaled_powers()[4] == 0) + grids._X_MIN
        assert exact.tolist() == list(range(-6, 17))

    def test_near_half_ties_of_rounded_powers(self, tmp_path):
        # for p >= 23 the kernel rounds a * 10^p; next to a half-integer it
        # must format the value with '%' or still round it right
        rng = np.random.default_rng(9)
        values = [near_half_tie(p, int(m)) for p in range(23, 324) for m in rng.integers(2**52, 2**53, 3)]
        values = np.array([v for v in values if v is not None])
        assert values.size > 600 and grids._seventeen_digits(values)[2].any()
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
        grid = GridFunction3D(BBOX, values.reshape(1, 1, -1))
        save_grid(grid, tmp_path / "grid.txt")
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)

    def test_fallback_formats_few_values_of_a_bump_field(self, tmp_path):
        # only the subnormals and the flagged near-ties reach the fallback
        grid = random_bump_corpus(1, resolution=96, seed=7)[0]
        mag = np.abs(grid.values)
        near = grids._seventeen_digits(mag[mag >= np.finfo(float).tiny])[2]
        counts = []

        def counted(values, format_each=grids._format_each):
            counts.append(values.size)
            return format_each(values)

        with mock.patch.object(grids, "_format_each", counted):
            save_grid(grid, tmp_path / "grid.txt")
        subnormal = np.count_nonzero((mag > 0) & (mag < np.finfo(float).tiny))
        assert subnormal > 0 and sum(counts) == subnormal + np.count_nonzero(near)
        assert (tmp_path / "grid.txt").read_bytes() == reference_bytes(grid)


def near_half_tie(p, m_mid):
    """A double a = m 2^-(s+p) with m near ``m_mid`` whose a * 10^p = m 5^p / 2^s
    lies in [1e16, 1e17) within 2^-47 of a half-integer, or None.

    The m with m 5^p = M/2 + r (mod M = 2^s) form a lattice in (m, r); a
    Lagrange-Gauss reduced basis, weighted so that a range of 2^51 in m and
    a distance of 2^-48 M in r weigh alike, and Babai's rounding give the
    lattice point next to (m_mid, M/2)."""
    s = (5**p * m_mid // (3 * 10**16)).bit_length()
    M = 1 << s
    u, v = (M, 5**p % M << 99), (0, M << 99)
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]  # noqa: E731
    while True:
        if dot(u, u) > dot(v, v):
            u, v = v, u
        q = round(Fraction(dot(u, v), dot(u, u)))
        if q == 0:
            break
        v = (v[0] - q * u[0], v[1] - q * u[1])
    t = (m_mid * M, M << 98)
    det = u[0] * v[1] - u[1] * v[0]
    x = round(Fraction(t[0] * v[1] - t[1] * v[0], det))
    y = round(Fraction(u[0] * t[1] - u[1] * t[0], det))
    m = (x * u[0] + y * v[0]) // M
    scaled = Fraction(m * 5**p, M)
    if not (0 < m < 2**53 and 10**16 <= scaled < 10**17):
        return None
    if abs(scaled - math.floor(scaled) - Fraction(1, 2)) > Fraction(1, 2**47):
        return None
    return math.ldexp(m, -(s + p))


# tokens loadtxt reads where the reference parser rejects them: a '#' that
# would end the line as a comment, and numbers that are not finite
HAZARD_TOKENS = ["#", "nan", "inf", "1e400", "-1e400"]
ODD_TOKENS = HAZARD_TOKENS + ["1_0", "\u0661\u0662", "0x10", "1,5", "+.5", "5.", "1e", "--1", "\u00a0", "\u200b", "\x00", "'1'"]
NUMBER = st.one_of(FINITE.map(lambda v: f"{v:.17g}"), FINITE.map(repr), st.integers(-(10**6), 10**6).map(str))
# the line breaks of str.splitlines, among them those that file iteration
# and loadtxt do not split lines at
SEPARATOR = st.sampled_from(
    [" ", "  ", "\t", "\n", "\n\n", " \n ", "\n\t\n", "\r\n", "\r"]
    + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", " \x0c\n"]
)


class TestBulkRead:
    @pytest.mark.parametrize("odd_tokens", [HAZARD_TOKENS, ODD_TOKENS])
    @settings(max_examples=300)
    @given(st.tuples(*[st.integers(1, 3)] * 3), st.sampled_from([0, 0, 0, -1, 1, 2]), st.data())
    def test_matches_reference_parser(self, odd_tokens, dims, extra, data):
        total = dims[0] * dims[1] * dims[2]
        tokens = data.draw(st.lists(NUMBER, min_size=total + extra, max_size=total + extra))
        # up to two odd tokens, each put in place of a number or between two
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(tokens)))
            odd = data.draw(st.sampled_from(odd_tokens))
            if i < len(tokens) and data.draw(st.booleans()):
                tokens[i] = odd
            else:
                tokens.insert(i, odd)
        seps = data.draw(st.lists(SEPARATOR, min_size=len(tokens), max_size=len(tokens)))
        body = "".join(t + s for t, s in zip(tokens, seps))
        text = HEADER + "{} {} {}\n".format(*dims) + "-1 1 -1 1 -1 1\n" + body
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.txt"
            with open(path, "w", newline="") as fh:
                fh.write(text)
            actual = parse_outcome(lambda: load_grid(path).values.ravel(order="F"))
            with open(path) as fh:
                lines = fh.read().splitlines()
        expected = parse_outcome(lambda: grids._parse_body(lines, total))
        assert actual == expected

    @pytest.mark.parametrize("line", [0, 1, 2])
    @pytest.mark.parametrize("brk", ["\x0c", "\x1e", "\x85", "\u2028", "\r"])
    def test_header_line_break_as_reference(self, line, brk, tmp_path):
        # a break that only str.splitlines sees before a header line's newline
        # adds a blank line there: the reference reads the next header line
        # from it, and a read that splits at newlines alone must not differ
        lines = [GRID_MAGIC, "2 1 1", "0 1 0 1 0 1", "1 2"]
        lines[line] += brk
        path = tmp_path / "grid.txt"
        path.write_text("\n".join(lines) + "\n", newline="")

        def reference():
            text = grids._read_lines(path)
            dims = grids._parse_header(text)[1]
            return grids._parse_body(text, math.prod(dims))

        actual = parse_outcome(lambda: load_grid(path).values.ravel(order="F"))
        assert actual == parse_outcome(reference)
        assert actual[0] == ("ok" if brk == "\r" or line == 2 else "error")

    def test_well_formed_file_skips_reference_parser(self, small_grid, tmp_path, monkeypatch):
        save_grid(small_grid, tmp_path / "grid.txt")
        monkeypatch.setattr(grids, "_parse_body", mock.Mock(side_effect=AssertionError("reference parser used")))
        assert np.array_equal(load_grid(tmp_path / "grid.txt").values, small_grid.values)

    def test_python_only_token_falls_back(self, tmp_path):
        # loadtxt rejects 1_0, float() reads it as 10
        path = tmp_path / "grid.txt"
        path.write_text(f"{GRID_MAGIC}\n2 1 1\n0 1 0 1 0 1\n1_0 2\n")
        assert load_grid(path).values.ravel().tolist() == [10.0, 2.0]

    def test_hash_is_not_a_comment(self, tmp_path):
        # read as a comment, '# note' would leave the two values the header asks for
        path = tmp_path / "grid.txt"
        path.write_text(f"{GRID_MAGIC}\n2 1 1\n0 1 0 1 0 1\n1 2 # note\n")
        with pytest.raises(GridFormatError, match="more values than") as err:
            load_grid(path)
        assert err.value.line == 4


class TestLoadedLayout:
    @pytest.mark.parametrize("bulk", [True, False])
    def test_values_c_ordered_and_equal_to_reference(self, bulk, tmp_path, monkeypatch):
        grid = random_bump_corpus(1, resolution=6, seed=3)[0]
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        if not bulk:
            monkeypatch.setattr(grids, "_load_bulk", lambda path: None)
        values = load_grid(path).values
        lines = path.read_text().splitlines()
        assert values.flags.c_contiguous
        assert values.tobytes() == grids._parse_body(lines, grid.values.size).reshape(grid.dims, order="F").tobytes()

    def test_sums_equal_on_either_layout(self):
        c_grid = random_bump_corpus(1, resolution=24, seed=5)[0]
        f_grid = GridFunction3D(c_grid.bbox, np.asfortranarray(c_grid.values))
        assert f_grid.values.flags.f_contiguous and not f_grid.values.flags.c_contiguous
        dist_c, dist_f = distribution_function(c_grid, 1.0), distribution_function(f_grid, 1.0)
        assert dist_f.measures.tobytes() == dist_c.measures.tobytes()
        for q in (2, 6):
            assert weighted_lq_norm(f_grid, q, 1.0) == weighted_lq_norm(c_grid, q, 1.0)
        assert grushin_energy(f_grid, 1.0) == grushin_energy(c_grid, 1.0)


class TestResample:
    def test_identity_resolution(self, small_grid):
        re = resample(small_grid, small_grid.dims)
        assert np.allclose(re.values, small_grid.values, atol=1e-12)

    def test_refinement_preserves_smooth_field(self):
        bbox = np.array([(-1, 1)] * 3)
        fn = lambda X1, X2, Y: np.cos(X1) * np.cos(X2) * np.cos(Y)  # noqa: E731
        coarse = GridFunction3D.from_callable(fn, bbox, (16, 16, 16))
        fine = resample(coarse, (32, 32, 32))
        exact = GridFunction3D.from_callable(fn, bbox, (32, 32, 32))
        inner = (slice(2, -2),) * 3
        assert np.abs(fine.values[inner] - exact.values[inner]).max() <= 5e-3
