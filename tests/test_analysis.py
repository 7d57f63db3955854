"""Unit tests for the analysis utilities (sparsity, pareto, tables, plots, io)."""

import csv

import numpy as np
import pytest

from repro.analysis import (
    SparsityProfile,
    ascii_heatmap,
    ascii_line_plot,
    dominates,
    format_table,
    load_json,
    pareto_front,
    save_csv,
    save_json,
)
from repro.core.network import SpikingMLP
from repro.data import ArrayDataset, DataLoader
from repro.encoding import DirectEncoder
from repro.runtime import evaluate_with_runtime


class TestSparsityProfile:
    def _profile(self):
        return SparsityProfile(
            layer_events_per_step={"lif1": 50.0, "lif_out": 5.0},
            input_events_per_step=120.0,
            layer_neuron_counts={"lif1": 100, "lif_out": 10},
            num_steps=8,
            samples_profiled=32,
        )

    def test_firing_rate_per_layer(self):
        profile = self._profile()
        assert profile.firing_rate("lif1") == pytest.approx(0.5)
        assert profile.firing_rate("lif_out") == pytest.approx(0.5)
        assert profile.firing_rate("missing") == 0.0

    def test_average_firing_rate(self):
        assert self._profile().average_firing_rate() == pytest.approx(55.0 / 110.0)

    def test_as_dict(self):
        d = self._profile().as_dict()
        assert d["input_events_per_step"] == 120.0
        assert "events/lif1" in d

    def test_profile_sparsity_on_real_model(self):
        rng = np.random.default_rng(0)
        dataset = ArrayDataset(rng.random((16, 8)).astype(np.float32), np.zeros(16, dtype=np.int64))
        loader = DataLoader(dataset, batch_size=8)
        model = SpikingMLP(in_features=8, hidden_units=16, num_classes=4, beta=0.9,
                           threshold=0.5, seed=0)
        profile = evaluate_with_runtime(model, DirectEncoder(num_steps=5), loader)[1].to_sparsity_profile()
        assert profile.samples_profiled == 16
        assert profile.num_steps == 5
        assert set(profile.layer_events_per_step) == {"lif1", "lif_out"}
        assert profile.layer_neuron_counts["lif1"] == 16
        assert profile.input_events_per_step > 0

    def test_profile_respects_max_batches(self):
        rng = np.random.default_rng(1)
        dataset = ArrayDataset(rng.random((32, 8)).astype(np.float32), np.zeros(32, dtype=np.int64))
        loader = DataLoader(dataset, batch_size=8)
        model = SpikingMLP(in_features=8, hidden_units=8, num_classes=2, seed=0)
        _, activity = evaluate_with_runtime(model, DirectEncoder(num_steps=3), loader, max_batches=2)
        profile = activity.to_sparsity_profile()
        assert profile.samples_profiled == 16

    def test_profile_requires_spiking_layers(self):
        from repro.nn import Linear

        dataset = ArrayDataset(np.zeros((4, 8), dtype=np.float32), np.zeros(4, dtype=np.int64))
        loader = DataLoader(dataset, batch_size=4)
        with pytest.raises(ValueError):
            evaluate_with_runtime(Linear(8, 2), DirectEncoder(3), loader)


class TestPareto:
    def test_dominates(self):
        assert dominates((2.0, 2.0), (1.0, 1.0))
        assert dominates((2.0, 1.0), (1.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert not dominates((2.0, 0.5), (1.0, 1.0))

    def test_dominates_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_pareto_front_extracts_non_dominated(self):
        points = [(1.0, 5.0), (2.0, 4.0), (3.0, 1.0), (2.5, 3.9), (0.5, 0.5)]
        front = pareto_front(points, objectives=lambda p: p)
        assert (0.5, 0.5) not in front
        assert (1.0, 5.0) in front and (3.0, 1.0) in front
        assert (2.0, 4.0) in front

    def test_pareto_front_single_item(self):
        assert pareto_front([(1.0, 1.0)], objectives=lambda p: p) == [(1.0, 1.0)]

    def test_pareto_front_with_accessor(self):
        items = [{"acc": 0.9, "eff": 10.0}, {"acc": 0.8, "eff": 5.0}]
        front = pareto_front(items, objectives=lambda r: (r["acc"], r["eff"]))
        assert front == [items[0]]


class TestTablesAndPlots:
    def test_format_table_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]], title="T")
        assert "T" in text
        assert "1.2346" in text  # default 4-decimal formatting
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1.0]])

    def test_ascii_line_plot_contains_series_markers(self):
        text = ascii_line_plot([1, 2, 3], {"acc": [0.1, 0.5, 0.9], "eff": [0.9, 0.5, 0.1]},
                               title="plot", y_label="metric")
        assert "plot" in text and "acc" in text and "eff" in text
        assert "*" in text and "o" in text

    def test_ascii_line_plot_flat_series(self):
        text = ascii_line_plot([1, 2], {"flat": [1.0, 1.0]})
        assert "flat" in text

    def test_ascii_line_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_line_plot([], {})
        with pytest.raises(ValueError):
            ascii_line_plot([1, 2], {"a": [1.0]})

    def test_ascii_heatmap_shows_values(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        text = ascii_heatmap(grid, ["r0", "r1"], ["c0", "c1"], title="H")
        assert "H" in text and "4.000" in text and "r1" in text

    def test_ascii_heatmap_validation(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros(3), ["a"], ["b"])
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros((2, 2)), ["a"], ["b", "c"])


class TestIO:
    def test_json_roundtrip_with_numpy_types(self, tmp_path):
        data = {"x": np.float32(1.5), "y": np.arange(3), "nested": {"z": np.int64(2)}}
        path = save_json(data, tmp_path / "out.json")
        loaded = load_json(path)
        assert loaded["x"] == 1.5
        assert loaded["y"] == [0, 1, 2]
        assert loaded["nested"]["z"] == 2

    def test_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "c": "hello"}]
        path = save_csv(rows, tmp_path / "out.csv")
        with open(path, newline="") as handle:
            loaded = list(csv.DictReader(handle))
        assert loaded[0]["a"] == "1"
        assert loaded[1]["c"] == "hello"
        assert loaded[0]["c"] == ""

    def test_empty_csv(self, tmp_path):
        path = save_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_json_creates_parent_dirs(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "deep" / "dir" / "out.json")
        assert path.exists()
