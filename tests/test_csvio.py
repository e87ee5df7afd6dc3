"""CSV trace files: layout, bit-exact round-trips, and strict loading."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spinfid import FidTrace, NoiseModel, TimeGrid, evolve_fid
import spinfid.csvio
from spinfid.csvio import CsvFormatError, _format_value, emit_trace_csv, load_csv, write_csv
from spinfid.experiments import PRESET_NAMES, run_preset
from spinfid.states import apply_pulse, pps_state
from spinfid import PulseSpec, SpinSystemSpec


@pytest.fixture(scope="module")
def sample_trace():
    spec = SpinSystemSpec(polarization=1.0)
    return evolve_fid(
        spec,
        apply_pulse(pps_state(spec), PulseSpec(target=2)),
        NoiseModel("lorentzian", 28.0),
        TimeGrid(),
        n_realizations=50,
        seed=13,
    )


class TestLayout:
    def test_header_and_row_count(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,mx,my,mperp"
        data = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
        assert len(data) == 481

    def test_metadata_trails_data(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace, metadata={"config_hash": "abc123"})
        lines = path.read_text().splitlines()
        tail = [ln for ln in lines if ln.startswith("#")]
        assert lines[-len(tail):] == tail  # all comments at the very end
        joined = "\n".join(tail)
        assert "seed = 13" in joined
        assert "n_realizations = 50" in joined
        assert "config_hash = abc123" in joined

    def test_oracle_column_naming(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        oracle = np.linspace(0.5, 0.0, 481)
        emit_trace_csv(str(path), sample_trace, oracles={"pps": oracle})
        header = path.read_text().splitlines()[0]
        assert header == "t_s,mx,my,mperp,oracle_pps_mperp"

    def test_values_carry_full_precision(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace)
        first_row = path.read_text().splitlines()[1].split(",")
        # repr-formatted floats reparse to the identical binary value
        assert float(first_row[1]) == sample_trace.mx[0]
        assert float(first_row[3]) == sample_trace.mperp[0]


class TestRoundTrip:
    def test_trace_round_trip_bit_exact(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace)
        loaded = load_csv(str(path)).trace()
        assert np.array_equal(loaded.mx, sample_trace.mx)
        assert np.array_equal(loaded.my, sample_trace.my)
        assert np.array_equal(loaded.mperp, sample_trace.mperp)
        assert loaded.seed == sample_trace.seed
        assert loaded.n_realizations == sample_trace.n_realizations
        assert loaded.polarization == sample_trace.polarization
        assert loaded.grid.n_points == sample_trace.grid.n_points
        assert loaded.grid.t_max == pytest.approx(sample_trace.grid.t_max)

    def test_trace_leaves_loaded_columns_writeable(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace)
        table = load_csv(str(path))
        trace = table.trace()
        assert table.columns["mx"].flags.writeable
        table.columns["mx"][0] += 1.0
        assert trace.mx[0] == sample_trace.mx[0]

    def test_oracles_round_trip(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        oracles = {
            "pps": np.linspace(0.5, 0.0, 481),
            "envelope": np.full(481, 0.25),
        }
        emit_trace_csv(str(path), sample_trace, oracles=oracles)
        back = load_csv(str(path)).oracles
        assert set(back) == {"pps", "envelope"}
        for name in oracles:
            assert np.array_equal(back[name], oracles[name])

    @pytest.mark.parametrize("metadata", [{}, {"note": "no rows"}], ids=["bare", "with-metadata"])
    def test_header_only_file_loads_empty_float_columns(self, tmp_path, metadata):
        path = tmp_path / "empty_table.csv"
        write_csv(str(path), {"m": np.empty(0), "residual": np.empty(0)}, metadata=metadata)
        data = load_csv(str(path))
        assert list(data.columns) == ["m", "residual"]
        for column in data.columns.values():
            assert column.dtype == np.float64 and column.shape == (0,)
        assert data.metadata == metadata

    def test_blank_lines_are_skipped(self, sample_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace, oracles={"pps": np.linspace(0.5, 0.0, 481)})
        lines = path.read_text().splitlines(keepends=True)
        trailer = next(k for k, line in enumerate(lines) if line.startswith("#"))
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join(lines[:3] + ["\n"] + lines[3:trailer] + ["\n"] + lines[trailer:]))
        want, got = load_csv(str(path)), load_csv(str(spaced))
        assert list(got.columns) == list(want.columns)
        for name, column in want.columns.items():
            assert np.array_equal(got.columns[name], column)
        assert got.metadata == want.metadata

    def test_generic_table_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        m = np.array([1.0, 2.0, 5.0])
        r = np.array([0.02, 0.04, 0.09])
        write_csv(str(path), {"m": m, "residual": r}, metadata={"note": "sweep"})
        data = load_csv(str(path))
        assert np.array_equal(data.columns["m"], m)
        assert np.array_equal(data.columns["residual"], r)
        assert data.metadata["note"] == "sweep"


def cell_by_cell_bytes(columns, metadata) -> bytes:
    """The file a per-cell ``_format_value`` loop writes: the writer's reference."""
    lines = [",".join(columns)]
    arrays = [np.asarray(column) for column in columns.values()]
    for row in range(arrays[0].shape[0]):
        lines.append(",".join(_format_value(array[row]) for array in arrays))
    lines += [f"# {key} = {_format_value(value)}" for key, value in metadata.items()]
    return ("\n".join(lines) + "\n").encode("utf-8")


# Every file the presets write: fig4a writes one per magnification.
PRESET_FILES = (
    "fig1", "fig2-thermal", "fig2-pps", "fig2-pps-x10", "fig3", "fig4a_m1", "fig4a_m2p5", "fig4a_m5", "fig4b",
)


@pytest.fixture(scope="module")
def preset_dir(tmp_path_factory):
    """A directory holding every preset's CSV files, each run at 500 draws."""
    directory = tmp_path_factory.mktemp("presets")
    for name in PRESET_NAMES:
        run_preset(name, n_realizations=500, seed=7, output=str(directory / f"{name}.csv"))
    assert sorted(path.stem for path in directory.iterdir()) == sorted(PRESET_FILES)
    return directory


class TestWriterBytes:
    def test_special_values_and_integer_columns(self, tmp_path):
        floats = np.array([
            np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
            1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf, 0.1, 1.0 / 3.0, -2.5,
        ])
        n = floats.size
        metadata = {"seed": 7, "weight": -0.0, "tiny": 5e-324, "ok": True, "note": "text"}
        path = tmp_path / "special.csv"
        write_csv(str(path), {"x": floats}, metadata)
        assert path.read_bytes() == cell_by_cell_bytes({"x": floats}, metadata)
        # The loader reads every cell as a float, so the writer refuses any column that is not float64.
        for name, column in {
            "m": np.arange(n) - 7,
            "big": np.full(n, 2**62 + 1, dtype=np.int64),
            "flag": np.arange(n) % 3 == 0,
            "single": np.arange(n, dtype=np.float32),
        }.items():
            refusal = f"column '{name}' has dtype {column.dtype}; every column must be float64"
            with pytest.raises(ValueError, match=refusal):
                write_csv(str(tmp_path / "refused.csv"), {"x": floats, name: column})
        assert not (tmp_path / "refused.csv").exists()

    @pytest.mark.parametrize("stem", PRESET_FILES)
    def test_preset_file(self, preset_dir, tmp_path, stem):
        path = preset_dir / f"{stem}.csv"
        table = load_csv(str(path))
        assert path.read_bytes() == cell_by_cell_bytes(table.columns, table.metadata)
        # The loaded mapping is the writer's input: writing it back reproduces the file.
        out = tmp_path / "rewritten.csv"
        write_csv(str(out), table.columns, table.metadata)
        assert out.read_bytes() == path.read_bytes()


def random_trace(grid: TimeGrid, seed: int) -> FidTrace:
    rng = np.random.default_rng(seed)
    mx, my = rng.normal(size=(2, grid.n_points))
    return FidTrace(grid, mx, my, n_realizations=7, seed=seed, polarization=-0.5)


class TestTimeColumnText:
    @pytest.mark.parametrize("n_points", [2, 481, 4001])
    def test_time_text_is_repr_of_each_grid_point(self, tmp_path, n_points):
        grid = TimeGrid(t_max=0.024, n_points=n_points)
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), random_trace(grid, 3))
        lines = path.read_text().splitlines()[1 : n_points + 1]
        assert [line.split(",")[0] for line in lines] == [repr(t) for t in grid.points.tolist()]

    def test_back_to_back_traces_match_inline_reference(self, tmp_path):
        # The second trace lives on an equal but distinct grid object and takes its t_s text from the cache.
        traces = [random_trace(TimeGrid(t_max=0.0371, n_points=997), seed) for seed in (5, 6)]
        oracle = np.linspace(1.0, 0.0, 997)
        for k, trace in enumerate(traces):
            hits = spinfid.csvio._time_cells.cache_info().hits
            path = tmp_path / f"trace{k}.csv"
            emit_trace_csv(str(path), trace, oracles={"model": oracle}, metadata={"config_hash": "abc"})
            if k:
                assert spinfid.csvio._time_cells.cache_info().hits == hits + 1
            rows = zip(trace.grid.points.tolist(), trace.mx.tolist(), trace.my.tolist(), trace.mperp.tolist(),
                       oracle.tolist())
            expected = (
                "t_s,mx,my,mperp,oracle_model_mperp\n"
                + "".join(",".join(map(repr, row)) + "\n" for row in rows)
                + f"# seed = {trace.seed}\n# n_realizations = 7\n# polarization = -0.5\n# config_hash = abc\n"
            )
            assert path.read_bytes() == expected.encode()


class TestWriterValidation:
    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), {"a": np.zeros(3), "b": np.zeros(4)})

    def test_empty_mapping_is_refused_before_the_file_is_opened(self, tmp_path):
        # Its file would hold a blank header line, which load_csv refuses as an empty file.
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="no columns"):
            write_csv(str(path), {}, {"seed": 1})
        assert not path.exists()

    def test_oracle_shape_mismatch(self, sample_trace, tmp_path):
        with pytest.raises(ValueError):
            emit_trace_csv(
                str(tmp_path / "x.csv"), sample_trace, oracles={"bad": np.zeros(5)}
            )


class TestLoaderValidation:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(str(path))

    def test_duplicate_header_names(self, tmp_path):
        path = self.write_lines(tmp_path, ["t_s,mx,mx,mperp", "0.0,1.0,1.0,1.4"])
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = self.write_lines(tmp_path, ["t_s,mx", "0.0,oops"])
        with pytest.raises(CsvFormatError, match="non-numeric"):
            load_csv(path)

    def test_field_count_mismatch(self, tmp_path):
        path = self.write_lines(tmp_path, ["t_s,mx", "0.0,1.0,2.0"])
        with pytest.raises(CsvFormatError, match="fields"):
            load_csv(path)

    def test_data_after_metadata_rejected(self, tmp_path):
        path = self.write_lines(
            tmp_path, ["t_s,mx", "0.0,1.0", "# seed = 1", "0.1,0.9"]
        )
        with pytest.raises(CsvFormatError, match="after metadata"):
            load_csv(path)

    def test_metadata_without_equals_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, ["t_s,mx", "0.0,1.0", "# just a remark"])
        with pytest.raises(CsvFormatError, match="without"):
            load_csv(path)

    def test_trace_requires_all_columns(self, tmp_path):
        path = self.write_lines(tmp_path, ["t_s,mx", "0.0,1.0", "0.1,0.9"])
        with pytest.raises(CsvFormatError, match=r"bad\.csv: not a trace file: missing columns"):
            load_csv(path).trace()

    def test_trace_magnitude_consistency_enforced(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ["t_s,mx,my,mperp", "0.0,1.0,0.0,1.0", "0.001,0.5,0.0,0.9"],
        )
        with pytest.raises(CsvFormatError, match=r"bad\.csv: mperp column does not match hypot"):
            load_csv(path).trace()

    def test_trace_derives_mperp_from_the_loaded_components(self, sample_trace, tmp_path):
        # A magnitude column off by 1e-13 passes the check, and the trace takes hypot(mx, my), not the column.
        path = tmp_path / "trace.csv"
        emit_trace_csv(str(path), sample_trace)
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = repr(float(cells[3]) + 1e-13)
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        table = load_csv(str(path))
        assert table.columns["mperp"][4] != sample_trace.mperp[4]
        trace = table.trace()
        assert trace.mperp.tobytes() == np.hypot(table.columns["mx"], table.columns["my"]).tobytes()
        assert trace.mperp.tobytes() == sample_trace.mperp.tobytes()

    def test_trace_time_axis_must_start_at_zero(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ["t_s,mx,my,mperp", "0.001,1.0,0.0,1.0", "0.002,0.5,0.0,0.5"],
        )
        with pytest.raises(CsvFormatError, match=r"bad\.csv: time axis must start at 0"):
            load_csv(path).trace()

    @pytest.mark.parametrize("t_end", ["0.0", "nan", "inf", "-0.001"])
    def test_trace_time_axis_must_end_positive_and_finite(self, tmp_path, t_end):
        path = self.write_lines(tmp_path, ["t_s,mx,my,mperp", "0.0,1.0,0.0,1.0", f"{t_end},0.5,0.0,0.5"])
        with pytest.raises(CsvFormatError, match=r"bad\.csv: time axis: t_max must be positive and finite"):
            load_csv(path).trace()

    def test_trace_time_axis_must_be_uniform(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "t_s,mx,my,mperp",
                "0.0,1.0,0.0,1.0",
                "0.001,0.5,0.0,0.5",
                "0.005,0.25,0.0,0.25",
            ],
        )
        with pytest.raises(CsvFormatError, match=r"bad\.csv: time axis is not a uniform grid"):
            load_csv(path).trace()

    @pytest.mark.parametrize("key", ["seed", "n_realizations", "polarization"])
    def test_trace_rejects_non_numeric_metadata(self, tmp_path, key):
        path = self.write_lines(
            tmp_path,
            ["t_s,mx,my,mperp", "0.0,1.0,0.0,1.0", "0.001,0.5,0.0,0.5", f"# {key} = abc"],
        )
        with pytest.raises(CsvFormatError, match=f"bad.csv: metadata '{key}'"):
            load_csv(path).trace()

    def test_trace_needs_two_samples(self, tmp_path):
        path = self.write_lines(tmp_path, ["t_s,mx,my,mperp", "0.0,1.0,0.0,1.0"])
        with pytest.raises(CsvFormatError, match=r"bad\.csv: trace needs at least two time samples"):
            load_csv(path).trace()


class TestLoaderMemory:
    def test_peak_memory_stays_near_the_values(self, tmp_path):
        # The whole text, its lines and a list of float rows peak near 11x the values; one flat buffer
        # and one transposed copy, near 2x.
        grid = TimeGrid(n_points=4001)
        phase = 2.0 * np.pi * 300.0 * grid.points
        trace = FidTrace(grid, np.cos(phase), np.sin(phase), n_realizations=1, seed=1)
        path = str(tmp_path / "long.csv")
        emit_trace_csv(path, trace, oracles={"envelope": np.ones(grid.n_points)})
        value_bytes = grid.n_points * 5 * 8
        load_csv(path).trace()  # warm-up: first-call caches are not the reader's
        tracemalloc.start()
        try:
            load_csv(path).trace()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * value_bytes
