"""Unit tests for dataset generators, the dataset abstraction, and storage."""

import numpy as np
import pytest

from repro.data import (
    DATASET_REGISTRY,
    DatasetStore,
    TimeVaryingDataset,
    get_dataset,
    shock_mixing,
    turbulent_jet,
    turbulent_vortex,
)
from repro.data.fields import jet_field, mixing_field, normalized_grid, vortex_field


def jet_field_closed_form(shape, t, seed=7):
    """``jet_field`` as it was written before the radial Gaussian was
    split into an x and a y factor: every term evaluated on the full
    grid.  Kept as the reference the separable form is held to."""
    x, y, z = normalized_grid(shape)
    rng = np.random.default_rng(seed)
    n_modes = 6
    amp = rng.uniform(0.01, 0.045, n_modes).astype(np.float32)
    freq = rng.uniform(3.0, 11.0, n_modes).astype(np.float32)
    speed = rng.uniform(0.6, 1.4, n_modes).astype(np.float32)
    phase = rng.uniform(0.0, 2 * np.pi, n_modes).astype(np.float32)
    cx = np.float32(0.5) + np.zeros_like(z)
    cy = np.float32(0.5) + np.zeros_like(z)
    for k in range(n_modes):
        arg = 2 * np.pi * freq[k] * z - speed[k] * t + phase[k]
        cx = cx + amp[k] * np.sin(arg)
        cy = cy + amp[k] * np.cos(1.3 * arg)
    r2 = (x - cx) ** 2 + (y - cy) ** 2
    width = np.float32(0.0025) + np.float32(0.028) * z**1.5
    core = np.exp(-r2 / width)
    puffs = 0.62 + 0.38 * np.sin(2 * np.pi * (9.0 * z - 0.45 * t))
    inflow = np.clip(12.0 * z, 0.0, 1.0)
    field = core * puffs * inflow * (1.15 - 0.45 * z)
    return np.clip(field, 0.0, 1.0).astype(np.float32)


class TestFields:
    @pytest.mark.parametrize("shape", [(129, 129, 104), (24, 24, 20), (40, 33, 57)])
    @pytest.mark.parametrize("t", [0.0, 40.0, 149.0])
    def test_separable_jet_matches_the_closed_form(self, shape, t):
        """exp(-(dx^2 + dy^2)/w) = exp(-dx^2/w) * exp(-dy^2/w): the same
        field to float32 rounding (a few ulp of values <= 1)."""
        new, old = jet_field(shape, t), jet_field_closed_form(shape, t)
        assert new.shape == shape and new.dtype == np.float32
        assert new.flags.c_contiguous and new.flags.writeable
        assert new.min() >= 0.0 and new.max() <= 1.0
        assert np.abs(new - old).max() <= 1e-6

    @pytest.mark.parametrize("field_fn", [jet_field, vortex_field])
    def test_shape_dtype_range(self, field_fn):
        vol = field_fn((20, 22, 18), t=3.0)
        assert vol.shape == (20, 22, 18)
        assert vol.dtype == np.float32
        assert vol.min() >= 0.0 and vol.max() <= 1.0

    def test_mixing_field_shape(self):
        vol = mixing_field((32, 16, 16), t=10, n_steps=50)
        assert vol.shape == (32, 16, 16)
        assert 0.0 <= vol.min() and vol.max() <= 1.0

    def test_time_evolution_changes_field(self):
        a = jet_field((24, 24, 20), t=0.0)
        b = jet_field((24, 24, 20), t=5.0)
        assert not np.allclose(a, b)

    def test_deterministic_per_time(self):
        a = vortex_field((16, 16, 16), t=2.0)
        b = vortex_field((16, 16, 16), t=2.0)
        assert np.array_equal(a, b)

    def test_seed_changes_structure(self):
        a = vortex_field((16, 16, 16), t=1.0, seed=1)
        b = vortex_field((16, 16, 16), t=1.0, seed=2)
        assert not np.allclose(a, b)

    def test_jet_is_sparse_vortex_is_dense(self):
        """The paper's compression-relevant contrast between datasets."""
        jet = jet_field((32, 32, 26), t=4.0)
        vortex = vortex_field((32, 32, 32), t=4.0)
        assert (jet > 0.1).mean() < 0.15
        assert (vortex > 0.1).mean() > 0.5

    def test_mixing_shock_progresses(self):
        early = mixing_field((40, 16, 16), t=20, n_steps=100)
        late = mixing_field((40, 16, 16), t=80, n_steps=100)
        # shocked (high-value) region grows along x over time
        assert (late > 0.2).mean() > (early > 0.2).mean()


class TestDatasetFactories:
    def test_paper_dimensions(self):
        assert turbulent_jet().shape == (129, 129, 104)
        assert turbulent_jet().n_steps == 150
        assert turbulent_vortex().shape == (128, 128, 128)
        assert turbulent_vortex().n_steps == 100
        assert shock_mixing().shape == (640, 256, 256)
        assert shock_mixing().n_steps == 265
        assert shock_mixing().components == 3

    def test_mixing_total_size_exceeds_44gb(self):
        # "the overall size of the data set is over 44 gigabytes"
        assert shock_mixing().total_nbytes > 44e9

    def test_scaling(self):
        ds = turbulent_jet(scale=0.5)
        assert ds.shape == (64, 64, 52)  # round-half-even on 64.5

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            turbulent_jet(scale=0.0)
        with pytest.raises(ValueError):
            turbulent_jet(scale=1.5)

    def test_registry(self):
        assert set(DATASET_REGISTRY) == {
            "turbulent-jet",
            "turbulent-vortex",
            "shock-mixing",
        }
        ds = get_dataset("turbulent-jet", scale=0.2, n_steps=5)
        assert ds.n_steps == 5

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_dataset("nonexistent")


class TestTimeVaryingDataset:
    def test_volume_access(self, jet_small):
        vol = jet_small.volume(0)
        assert vol.shape == jet_small.shape
        assert vol.dtype == np.float32

    def test_out_of_range(self, jet_small):
        with pytest.raises(IndexError):
            jet_small.volume(jet_small.n_steps)
        with pytest.raises(IndexError):
            jet_small.volume(-1)

    def test_len_and_iter(self, jet_small):
        assert len(jet_small) == jet_small.n_steps
        count = sum(1 for _ in turbulent_jet(scale=0.15, n_steps=3))
        assert count == 3

    def test_byte_accounting(self):
        ds = turbulent_jet(scale=0.25, n_steps=10)
        nx, ny, nz = ds.shape
        assert ds.points_per_step == nx * ny * nz
        assert ds.nbytes_per_step == ds.points_per_step * 4
        assert ds.total_nbytes == ds.nbytes_per_step * 10

    def test_subset(self, jet_small):
        sub = jet_small.subset(3)
        assert sub.n_steps == 3
        assert np.array_equal(sub.volume(1), jet_small.volume(1))

    def test_subset_validation(self, jet_small):
        with pytest.raises(ValueError):
            jet_small.subset(0)
        with pytest.raises(ValueError):
            jet_small.subset(jet_small.n_steps + 1)

    def test_cache(self):
        calls = []

        def gen(t):
            calls.append(t)
            return np.zeros((8, 8, 8), dtype=np.float32)

        ds = TimeVaryingDataset(
            name="x", shape=(8, 8, 8), n_steps=5, generator=gen, cache_steps=2
        )
        ds.volume(0)
        ds.volume(0)
        assert calls == [0]
        ds.volume(1)
        ds.volume(2)  # evicts 0
        ds.volume(0)
        assert calls == [0, 1, 2, 0]

    def test_generator_shape_validated(self):
        ds = TimeVaryingDataset(
            name="bad",
            shape=(4, 4, 4),
            n_steps=1,
            generator=lambda t: np.zeros((2, 2, 2), dtype=np.float32),
        )
        with pytest.raises(ValueError):
            ds.volume(0)


class TestDatasetStore:
    def test_save_and_reopen(self, tmp_path):
        ds = turbulent_jet(scale=0.15, n_steps=4)
        store = DatasetStore(tmp_path / "jet")
        store.save(ds)
        reopened = store.open()
        assert reopened.shape == ds.shape
        assert reopened.n_steps == 4
        for t in range(4):
            assert np.allclose(reopened.volume(t), ds.volume(t), atol=1e-6)

    def test_save_subrange(self, tmp_path):
        ds = turbulent_jet(scale=0.15, n_steps=10)
        store = DatasetStore(tmp_path / "sub")
        store.save(ds, steps=range(2, 5))
        reopened = store.open()
        assert reopened.n_steps == 3
        assert np.allclose(reopened.volume(0), ds.volume(2), atol=1e-6)

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DatasetStore(tmp_path / "empty").open()

    def test_corrupt_step_detected(self, tmp_path):
        ds = turbulent_jet(scale=0.15, n_steps=2)
        store = DatasetStore(tmp_path / "c")
        store.save(ds)
        (tmp_path / "c" / "step_00001.raw").write_bytes(b"short")
        reopened = store.open()
        reopened.volume(0)  # fine
        with pytest.raises(ValueError):
            reopened.volume(1)


class TestCompressedStore:
    def test_lzo_store_roundtrip(self, tmp_path):
        ds = turbulent_jet(scale=0.15, n_steps=3)
        store = DatasetStore(tmp_path / "z", codec="lzo")
        store.save(ds)
        reopened = store.open()
        for t in range(3):
            assert np.allclose(reopened.volume(t), ds.volume(t), atol=1e-6)

    def test_float_volumes_barely_compress(self, tmp_path):
        """Byte-oriented LZ gains little on float32 CFD data (mantissa
        noise) — the realistic reason facilities quantize before
        archiving."""
        ds = turbulent_jet(scale=0.2, n_steps=2)
        raw = DatasetStore(tmp_path / "raw")
        packed = DatasetStore(tmp_path / "packed", codec="lzo")
        raw.save(ds)
        packed.save(ds)
        assert packed.stored_bytes() < raw.stored_bytes() * 1.15

    def test_quantized_lzo_store_much_smaller(self, tmp_path):
        ds = turbulent_jet(scale=0.2, n_steps=2)
        raw = DatasetStore(tmp_path / "raw3")
        packed = DatasetStore(tmp_path / "qlz", codec="lzo", quantize=True)
        raw.save(ds)
        packed.save(ds)
        assert packed.stored_bytes() < raw.stored_bytes() / 8

    def test_quantized_store_quarter_size_half_level_error(self, tmp_path):
        ds = turbulent_jet(scale=0.2, n_steps=2)
        raw = DatasetStore(tmp_path / "raw2")
        q = DatasetStore(tmp_path / "q", quantize=True)
        raw.save(ds)
        q.save(ds)
        assert q.stored_bytes() * 3.9 < raw.stored_bytes() * 1.01
        reopened = q.open()
        assert np.abs(reopened.volume(1) - ds.volume(1)).max() <= 0.5 / 255 + 1e-6

    def test_quantized_plus_codec(self, tmp_path):
        ds = turbulent_jet(scale=0.2, n_steps=2)
        store = DatasetStore(tmp_path / "qz", codec="bzip", quantize=True)
        store.save(ds)
        reopened = store.open()
        assert np.abs(reopened.volume(0) - ds.volume(0)).max() <= 0.5 / 255 + 1e-6
        # sparse quantized jet crushes down
        assert store.stored_bytes() < ds.nbytes_per_step / 4

    def test_lossy_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatasetStore(tmp_path / "bad", codec="jpeg")
