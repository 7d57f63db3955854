"""Runtime activity accounting against hand-computed spike counts.

A tiny fixed network (identity-like weights, ``beta = 0``) makes every
spike count predictable on paper; the runtime's measured activity must
match those counts exactly and round-trip through the
``repro.hardware.workload`` cost model.
"""

import numpy as np
import pytest

from conftest import dense_forward_with_trains
from repro.core.network import SpikingCNN, SpikingMLP
from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.encoding import DirectEncoder
from repro.hardware.workload import NetworkWorkload
from repro.runtime import RuntimeActivity, compile_network


@pytest.fixture
def fixed_mlp():
    """3-3-2 MLP whose hidden layer mirrors the input spikes exactly.

    ``fc1 = 2 * I`` with threshold 1 and ``beta = 0`` makes each hidden
    neuron spike iff its input spiked that step; ``fc2``'s first output row
    sums all hidden spikes (spikes iff any input was active) and its second
    row is zero (never spikes).
    """
    model = SpikingMLP(in_features=3, hidden_units=3, num_classes=2, beta=0.0, threshold=1.0, seed=0)
    model.fc1.weight.data[...] = 2.0 * np.eye(3, dtype=np.float32)
    model.fc1.bias.data[...] = 0.0
    model.fc2.weight.data[...] = np.array([[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]], dtype=np.float32)
    model.fc2.bias.data[...] = 0.0
    model.eval()
    return model


@pytest.fixture
def fixed_spikes():
    # (T=3, N=2, 3): 7 input events; sample activity per step:
    # sample 0 active at t0, t1; sample 1 active at t1, t2.
    return np.array(
        [
            [[1, 0, 0], [0, 0, 0]],
            [[1, 1, 0], [0, 0, 1]],
            [[0, 0, 0], [1, 1, 1]],
        ],
        dtype=np.float32,
    )


class TestHandComputedCounts:
    def test_layer_event_totals(self, fixed_mlp, fixed_spikes):
        result = compile_network(fixed_mlp).run(fixed_spikes)
        activity = result.activity
        assert activity.samples == 2
        assert activity.num_steps == 3
        assert activity.input_events == 7.0
        assert activity.layer_input_events == {"fc1": 7.0, "fc2": 7.0}
        assert activity.layer_output_events == {"lif1": 7.0, "lif_out": 4.0}
        assert activity.layer_neuron_counts == {"lif1": 3, "lif_out": 2}
        # Output counts: sample0 spiked at 2 steps, sample1 at 2 steps, class 0 only.
        assert np.array_equal(result.counts, np.array([[2.0, 0.0], [2.0, 0.0]], dtype=np.float32))

    def test_per_step_normalisation(self, fixed_mlp, fixed_spikes):
        activity = compile_network(fixed_mlp).run(fixed_spikes).activity
        norm = 2 * 3  # samples * steps
        assert activity.input_events_per_step == pytest.approx(7.0 / norm)
        assert activity.output_events_per_step() == pytest.approx({"lif1": 7.0 / norm, "lif_out": 4.0 / norm})
        assert activity.firing_rate("lif1") == pytest.approx(7.0 / norm / 3)

    def test_merge_accumulates(self, fixed_mlp, fixed_spikes):
        compiled = compile_network(fixed_mlp)
        a = compiled.run(fixed_spikes).activity
        b = compiled.run(fixed_spikes).activity
        a.merge(b)
        assert a.samples == 4
        assert a.input_events == 14.0
        assert a.layer_output_events == {"lif1": 14.0, "lif_out": 8.0}
        # Averages are unchanged by merging identical batches.
        assert a.input_events_per_step == pytest.approx(7.0 / 6.0)

    def test_merge_rejects_step_mismatch(self, fixed_mlp, fixed_spikes):
        compiled = compile_network(fixed_mlp)
        a = compiled.run(fixed_spikes).activity
        b = compiled.run(fixed_spikes[:2]).activity
        with pytest.raises(ValueError):
            a.merge(b)


class TestWorkloadRoundTrip:
    def test_total_sparse_synops_match_hand_computation(self, fixed_mlp, fixed_spikes):
        activity = compile_network(fixed_mlp).run(fixed_spikes).activity
        workload = activity.to_workload(fixed_mlp.layer_specs())
        assert isinstance(workload, NetworkWorkload)
        per_step = 7.0 / 6.0
        # fc1: fanout 3, dense 9; fc2: fanout 2, dense 6 — neither saturates.
        expected = min(per_step * 3, 9.0) + min(per_step * 2, 6.0)
        assert workload.total_sparse_synops_per_step == pytest.approx(expected)
        assert workload.total_dense_macs_per_step == 9 + 6
        assert workload.layer("fc1").avg_output_events_per_step == pytest.approx(per_step)
        assert workload.layer("fc2").avg_output_events_per_step == pytest.approx(4.0 / 6.0)

    def test_chained_convention_matches_build_workload(self, fixed_mlp, fixed_spikes):
        """measured_inputs=False must reproduce the classic chained workload."""
        from repro.core.experiment import build_workload

        activity = compile_network(fixed_mlp).run(fixed_spikes).activity
        chained = activity.to_workload(fixed_mlp.layer_specs(), measured_inputs=False)
        reference = build_workload(fixed_mlp, activity.to_sparsity_profile())
        for ours, ref in zip(chained.layers, reference.layers):
            assert ours == ref
        assert chained.total_sparse_synops_per_step == pytest.approx(
            reference.total_sparse_synops_per_step
        )

    def test_measured_inputs_account_for_pooling(self):
        """In the CNN, pooling shrinks the event stream between lif1 and conv2.

        The chained convention feeds conv2 with lif1's full output events;
        the measured report uses what actually crossed the pooling stage,
        which can only be smaller (max-pooling merges spikes).
        """
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=0)
        model.eval()
        rng = np.random.default_rng(42)
        spikes = (rng.random((4, 2, 3, 8, 8)) < 0.5).astype(np.float32)
        activity = compile_network(model).run(spikes).activity
        measured = activity.to_workload(model.layer_specs(), measured_inputs=True)
        chained = activity.to_workload(model.layer_specs(), measured_inputs=False)
        assert (
            measured.layer("conv2").avg_input_events_per_step
            <= chained.layer("conv2").avg_input_events_per_step
        )
        lif1_out = activity.output_events_per_step()["lif1"]
        assert chained.layer("conv2").avg_input_events_per_step == pytest.approx(lif1_out)
        # Static geometry is identical under both conventions.
        assert measured.total_dense_macs_per_step == chained.total_dense_macs_per_step
        assert measured.total_neurons == chained.total_neurons


class TestProfileAgreement:
    def test_runtime_profile_equals_dense_trains(self):
        """Runtime activity must equal the events counted from the dense spike trains."""
        model = SpikingCNN(image_size=8, conv_channels=(4, 4), hidden_units=16, seed=1)
        model.eval()
        rng = np.random.default_rng(3)
        images = rng.random((6, 3, 8, 8)).astype(np.float32)
        labels = np.zeros(6, dtype=np.int64)
        loader = DataLoader(ArrayDataset(images, labels), batch_size=3)
        encoder = DirectEncoder(num_steps=4)

        compiled = compile_network(model)
        merged = RuntimeActivity(num_steps=4)
        input_events = 0.0
        layer_events = {}
        for batch_images, _ in loader:
            spikes = encoder(batch_images)
            input_events += float(spikes.sum())
            _, trains = dense_forward_with_trains(model, spikes)
            for name, train in trains.items():
                layer_events[name] = layer_events.get(name, 0.0) + float(train.sum())
            merged.merge(compiled.run(spikes).activity)
        runtime = merged.to_sparsity_profile()

        norm = 6 * 4  # samples * steps
        assert runtime.layer_events_per_step == {name: events / norm for name, events in layer_events.items()}
        assert runtime.input_events_per_step == pytest.approx(input_events / norm)
        assert runtime.layer_neuron_counts == {name: train[0, 0].size for name, train in trains.items()}
        assert runtime.num_steps == 4
        assert runtime.samples_profiled == 6
