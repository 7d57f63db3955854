"""Integration tests for the BPTT trainer on small spiking models."""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.function import Node
from repro.data import ArrayDataset, DataLoader
from repro.core.network import SpikingCNN, SpikingMLP
from repro.encoding import DirectEncoder
from repro.training import Adam, CosineAnnealingLR, Trainer


def _two_blob_dataset(n=60, dim=12, seed=0):
    """Trivially separable two-class dataset in [0, 1]^dim."""
    rng = np.random.default_rng(seed)
    half = n // 2
    class0 = np.clip(rng.normal(0.25, 0.05, size=(half, dim)), 0, 1)
    class1 = np.clip(rng.normal(0.75, 0.05, size=(half, dim)), 0, 1)
    images = np.concatenate([class0, class1]).astype(np.float32)
    labels = np.concatenate([np.zeros(half), np.ones(half)]).astype(np.int64)
    return ArrayDataset(images, labels)


@pytest.fixture
def tiny_problem():
    dataset = _two_blob_dataset()
    loader = DataLoader(dataset, batch_size=20, shuffle=True, seed=0)
    model = SpikingMLP(in_features=12, hidden_units=24, num_classes=2, beta=0.5,
                       surrogate_scale=0.5, seed=0)
    encoder = DirectEncoder(num_steps=5)
    return model, encoder, loader


class TestTrainer:
    def test_train_batch_returns_loss_and_accuracy(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        images, labels = next(iter(loader))
        stats = trainer.train_batch(images, labels)
        assert set(stats) == {"loss", "accuracy"}
        assert stats["loss"] > 0

    def test_training_reduces_loss_and_learns(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(loader, val_loader=loader, epochs=12)
        losses = result.history["train_loss"]
        assert losses[-1] < losses[0]
        assert result.best_val_accuracy >= 0.8  # separable blobs must be learnable

    def test_history_contains_expected_keys(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(loader, val_loader=loader, epochs=2)
        for key in ("train_loss", "train_accuracy", "val_accuracy", "val_loss", "lr", "epoch_seconds"):
            assert key in result.history
            assert len(result.history[key]) == result.epochs_run

    def test_scheduler_reduces_lr(self, tiny_problem):
        model, encoder, loader = tiny_problem
        optimizer = Adam(model.parameters(), lr=1e-2)
        scheduler = CosineAnnealingLR(optimizer, t_max=4)
        trainer = Trainer(model, encoder, optimizer, scheduler=scheduler)
        trainer.fit(loader, epochs=4)
        assert optimizer.lr < 1e-2

    def test_evaluate_runs_without_gradients(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        stats = trainer.evaluate(loader)
        assert 0.0 <= stats["accuracy"] <= 1.0
        assert all(p.grad is None for p in model.parameters())

    def test_invalid_epochs(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        with pytest.raises(ValueError):
            trainer.fit(loader, epochs=0)

    def test_wall_time_recorded(self, tiny_problem):
        model, encoder, loader = tiny_problem
        trainer = Trainer(model, encoder, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(loader, epochs=1)
        assert result.wall_time_seconds > 0

    def test_train_batch_frees_its_graph_without_the_cycle_collector(self):
        # The BPTT graph of a batch must die by reference counting once the
        # step returns: a reference cycle would keep every activation of the
        # batch alive until the cyclic collector happens to run.
        model = SpikingCNN(image_size=8, conv_channels=(3, 4), hidden_units=16, seed=0)
        images = np.random.default_rng(0).random((6, 3, 8, 8), dtype=np.float32)
        labels = np.arange(6) % model.num_classes
        trainer = Trainer(model, DirectEncoder(num_steps=3), Adam(model.parameters(), lr=1e-2))
        graph_outputs = []
        loss_fn = trainer.loss_fn

        def recording_loss(counts, targets):
            graph_outputs.append(weakref.ref(counts.data))
            return loss_fn(counts, targets)

        trainer.loss_fn = recording_loss
        trainer.train_batch(images, labels)  # first-call allocations
        gc.collect()
        gc.disable()
        try:
            trainer.train_batch(images, labels)
            trainer.train_batch(images, labels)
            assert graph_outputs[1]() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_train_batch_graph_holds_no_intermediate_tensor(self):
        # A node links the node that made each non-leaf input, so the BPTT
        # graph pins no step's membrane, spike map or conv output; only the
        # arrays the ops saved for their backward stay alive until it runs.
        model = SpikingCNN(image_size=8, conv_channels=(3, 4), hidden_units=16, seed=0)
        images = np.random.default_rng(0).random((6, 3, 8, 8), dtype=np.float32)
        labels = np.arange(6) % model.num_classes
        trainer = Trainer(model, DirectEncoder(num_steps=3), Adam(model.parameters(), lr=1e-2))
        nodes, non_leaf_inputs = set(), []
        loss_fn = trainer.loss_fn

        def walking_loss(counts, targets):
            stack = [counts._node]
            while stack:
                for parent in stack.pop().inputs:
                    if isinstance(parent, Tensor) and parent._node is not None:
                        non_leaf_inputs.append(parent._node.fn.__name__)
                        parent = parent._node
                    if isinstance(parent, Node) and parent not in nodes:
                        nodes.add(parent)
                        stack.append(parent)
            return loss_fn(counts, targets)

        trainer.loss_fn = walking_loss
        trainer.train_batch(images, labels)
        assert len(nodes) > 10  # the walk reached the unrolled graph
        assert non_leaf_inputs == []
