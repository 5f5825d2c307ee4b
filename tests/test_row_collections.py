"""The row-block collections against a list-of-rows reference, and their checkpoints.

``SampleCollection`` and ``CorrectionCollection`` keep their rows in float64
blocks that double their capacity when full.  The reference below keeps plain
Python lists of rows and reduces them the way the collections always have
(``np.stack`` of the rows, then NumPy's reductions; a Welford fold for the
sample mean): every statistic must agree to the bit through any sequence of
appends, merges, subsets and snapshot round trips.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import SingleChainMCMC
from repro.core.kernels import MHKernel
from repro.core.problem import GaussianTargetProblem
from repro.core.proposals import AdaptiveMetropolisProposal
from repro.core.sample_collection import (
    INITIAL_ROWS,
    CorrectionCollection,
    SampleCollection,
)
from repro.parallel import CheckpointConfig, CheckpointError, Checkpointer
from repro.parallel.checkpoint import CHECKPOINT_VERSION
from repro.utils.stats import RunningMoments

DIM, QOI_DIM = 3, 2


class _Rows:
    """The list-of-rows reference: what the collections held before blocks."""

    def __init__(self, level: int | None = None) -> None:
        self.level = level
        self.parameters: list[np.ndarray] = []
        self.weights: list[int] = []
        self.qois: list[np.ndarray] = []
        self.fine: list[np.ndarray] = []
        self.coarse: list[np.ndarray] = []

    def expanded(self, rows: list[np.ndarray]) -> np.ndarray:
        return np.stack([row for row, w in zip(rows, self.weights) for _ in range(w)])

    def subset(self, start: int, stop: int) -> "_Rows":
        part = _Rows(self.level)
        for name in ("parameters", "weights", "qois", "fine", "coarse"):
            setattr(part, name, getattr(self, name)[start:stop])
        return part

    def extend(self, other: "_Rows") -> None:
        for name in ("parameters", "weights", "qois", "fine", "coarse"):
            getattr(self, name).extend(getattr(other, name))


def _sample_rows(
    rng: np.random.Generator, count: int, collection: SampleCollection | None = None
) -> tuple[SampleCollection, _Rows]:
    """``count`` random rows added to ``collection`` (a new one by default)."""
    collection = SampleCollection() if collection is None else collection
    rows = _Rows()
    for _ in range(count):
        theta, qoi = rng.normal(size=DIM), rng.normal(size=QOI_DIM) * 4.0 + 1.0
        weight = int(rng.integers(1, 4))
        collection.add(theta, float(rng.normal()), qoi, weight=weight)
        rows.parameters.append(theta.copy())
        rows.qois.append(qoi.copy())
        rows.weights.append(weight)
    return collection, rows


def _correction_rows(
    rng: np.random.Generator,
    level: int,
    count: int,
    collection: CorrectionCollection | None = None,
) -> tuple[CorrectionCollection, _Rows]:
    """``count`` random pairs added to ``collection`` (a new one by default)."""
    collection = CorrectionCollection(level) if collection is None else collection
    rows = _Rows(level)
    for _ in range(count):
        fine = rng.normal(size=QOI_DIM) * 3.0 + 1.0
        coarse = rng.normal(size=QOI_DIM) if level > 0 else None
        collection.add(fine, coarse)
        rows.fine.append(fine.copy())
        if coarse is not None:
            rows.coarse.append(coarse.copy())
    return collection, rows


def _bits(array: np.ndarray) -> tuple:
    array = np.asarray(array)
    return array.shape, array.tobytes()


def _check_samples(collection: SampleCollection, rows: _Rows) -> None:
    assert len(collection) == collection.num_unique == len(rows.weights)
    assert collection.num_samples == sum(rows.weights)
    if not rows.weights:
        assert collection.parameters().size == 0 and collection.qois().size == 0
        return
    parameters, qois = rows.expanded(rows.parameters), rows.expanded(rows.qois)
    assert _bits(collection.parameters()) == _bits(parameters)
    assert _bits(collection.qois()) == _bits(qois)
    assert _bits(collection.parameters(expand=False)) == _bits(np.stack(rows.parameters))
    reference = RunningMoments()
    for row in parameters:
        reference.push(row)
    assert _bits(collection.mean()) == _bits(reference.mean())
    variance = np.var(qois, axis=0, ddof=1) if qois.shape[0] > 1 else np.zeros(QOI_DIM)
    assert _bits(collection.variance(use_qoi=True)) == _bits(variance)
    collection.validate()


def _check_corrections(collection: CorrectionCollection, rows: _Rows) -> None:
    assert len(collection) == len(rows.fine)
    if not rows.fine:
        assert collection.differences().size == 0 and collection.variance().size == 0
        return
    fine = np.stack(rows.fine)
    diffs = fine - np.stack(rows.coarse) if rows.level > 0 else fine
    assert _bits(collection.differences()) == _bits(diffs)
    assert _bits(collection.mean()) == _bits(diffs.mean(axis=0))
    assert _bits(collection.fine_mean()) == _bits(fine.mean(axis=0))
    variance = diffs.var(axis=0, ddof=1) if diffs.shape[0] > 1 else np.zeros(QOI_DIM)
    assert _bits(collection.variance()) == _bits(variance)
    assert collection.has_coarse == (rows.level > 0)
    collection.validate()


#: one operation on the collection under test: append rows, merge a fresh
#: collection, keep a subset, or round-trip a snapshot (pickled, as on disk)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2 * INITIAL_ROWS + 3)),
        st.tuples(st.just("merge"), st.integers(0, 2 * INITIAL_ROWS + 3)),
        st.tuples(st.just("subset"), st.integers(-5, 40), st.integers(-5, 60)),
        st.tuples(st.just("state_dict"), st.just(0)),
    ),
    min_size=1,
    max_size=6,
)


def _apply(operations, collection, rows, make, seed):
    rng = np.random.default_rng(seed)
    for operation, *args in operations:
        if operation == "add":
            rows.extend(make(rng, args[0], collection)[1])
        elif operation == "merge":
            other, other_rows = make(rng, args[0])
            collection.merge(other)
            rows.extend(other_rows)
        elif operation == "subset":
            start, stop = args
            collection = collection.subset(start, stop)
            rows = rows.subset(start, stop)
        else:
            snapshot = pickle.loads(pickle.dumps(collection.state_dict()))
            collection = type(collection).from_state_dict(snapshot)
    return collection, rows


class TestAgainstListOfRows:
    @given(operations=_operations, start=st.integers(0, INITIAL_ROWS + 2), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sample_collection(self, operations, start, seed):
        collection, rows = _sample_rows(np.random.default_rng(seed + 1), start)
        collection, rows = _apply(operations, collection, rows, _sample_rows, seed)
        _check_samples(collection, rows)

    @given(
        operations=_operations,
        start=st.integers(0, INITIAL_ROWS + 2),
        level=st.integers(0, 2),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_correction_collection(self, operations, start, level, seed):
        def make(rng, count, collection=None):
            return _correction_rows(rng, level, count, collection)

        collection, rows = make(np.random.default_rng(seed + 1), start)
        collection, rows = _apply(operations, collection, rows, make, seed)
        _check_corrections(collection, rows)

    @given(level=st.integers(1, 2), rows=st.integers(1, 3 * INITIAL_ROWS), seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_block_append_equals_row_appends(self, level, rows, seed):
        by_rows, reference = _correction_rows(np.random.default_rng(seed), level, rows)
        split = rows // 3
        by_block = CorrectionCollection(level)
        by_block.extend(*by_rows.block(0, split))
        by_block.extend(*by_rows.block(split, rows))
        _check_corrections(by_block, reference)


class TestValidateRefusesTornSnapshots:
    @pytest.fixture
    def corrections(self):
        return _correction_rows(np.random.default_rng(3), 1, INITIAL_ROWS + 5)[0].state_dict()

    def test_half_recorded_pair(self, corrections):
        corrections["coarse"] = corrections["coarse"][:-1]
        with pytest.raises(ValueError, match="half-recorded"):
            CorrectionCollection.from_state_dict(corrections).validate()
        corrections["coarse"], corrections["fine"] = corrections["fine"], corrections["fine"][:-2]
        with pytest.raises(ValueError, match="half-recorded"):
            CorrectionCollection.from_state_dict(corrections).validate()

    def test_mixed_qoi_shapes(self, corrections):
        corrections["coarse"] = corrections["coarse"][:, :1]
        with pytest.raises(ValueError, match="inconsistent QOI shapes"):
            CorrectionCollection.from_state_dict(corrections).validate()

    def test_coarse_rows_on_level_zero_and_missing_above(self, corrections):
        with pytest.raises(ValueError, match="level 0"):
            CorrectionCollection.from_state_dict({**corrections, "level": 0}).validate()
        with pytest.raises(ValueError, match="half-recorded"):
            CorrectionCollection.from_state_dict({**corrections, "coarse": None}).validate()

    @pytest.mark.parametrize(
        "weights, match",
        [
            (lambda w: np.where(np.arange(w.size) == 2, 0, w), "invalid weights"),
            (lambda w: -w, "invalid weights"),
            (lambda w: w + 0.5, "invalid weights"),
            (lambda w: w + (np.arange(w.size) == 0), "does not match num_samples"),
        ],
        ids=["zero", "negative", "fractional", "sum"],
    )
    def test_bad_weights(self, weights, match):
        snapshot = _sample_rows(np.random.default_rng(4), INITIAL_ROWS + 1)[0].state_dict()
        snapshot["weights"] = weights(snapshot["weights"])
        with pytest.raises(ValueError, match=match):
            SampleCollection.from_state_dict(snapshot).validate()

    def test_rows_of_different_blocks(self):
        snapshot = _sample_rows(np.random.default_rng(5), 4)[0].state_dict()
        snapshot["log_densities"] = snapshot["log_densities"][:-1]
        with pytest.raises(ValueError, match="rows"):
            SampleCollection.from_state_dict(snapshot).validate()


# ----------------------------------------------------------------------------
# checkpoint layout 3: the chain and collector snapshots are row blocks
def _am_chain(seed: int) -> SingleChainMCMC:
    problem = GaussianTargetProblem(np.array([1.0, -2.0]), np.array([0.5, 2.0]))
    proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=20, adapt_interval=10)
    return SingleChainMCMC(
        MHKernel(problem, proposal), np.zeros(2), np.random.default_rng(seed), burnin=10
    )


class TestCheckpointLayout3:
    def test_version_2_snapshot_is_refused(self, tmp_path):
        config = CheckpointConfig(directory=str(tmp_path / "ck"))
        chain = _am_chain(1)
        chain.run_steps(30)
        path = Checkpointer(config, {"seed": 1}).write(0, "controller", chain.state_dict())
        snapshot = pickle.loads(path.read_bytes())
        assert CHECKPOINT_VERSION == 3 and snapshot["version"] == 3
        snapshot["version"] = 2
        path.write_bytes(pickle.dumps(snapshot))
        with pytest.raises(CheckpointError, match="version 2"):
            Checkpointer(config, {"seed": 1}).read(0, "controller")

    def test_am_chain_restored_from_a_snapshot_continues_bitwise(self, tmp_path):
        reference = _am_chain(7)
        reference.run_steps(400)
        interrupted = _am_chain(7)
        interrupted.run_steps(170)
        checkpointer = Checkpointer(CheckpointConfig(directory=str(tmp_path / "ck")), {})
        checkpointer.write(0, "controller", interrupted.state_dict())
        snapshot = checkpointer.read(0, "controller")
        # the recorded rows travel as blocks, not as lists of states
        assert snapshot["samples"]["parameters"].shape == (160, 2)
        assert snapshot["corrections"]["fine"].shape == (160, 2)
        restored = _am_chain(99)
        restored.load_state_dict(snapshot)
        restored.run_steps(230)
        assert restored.kernel.proposal.num_adaptations == (
            reference.kernel.proposal.num_adaptations
        ) > 0
        assert _bits(restored.kernel.proposal.current_covariance()) == _bits(
            reference.kernel.proposal.current_covariance()
        )
        for name in ("parameters", "qois", "log_densities"):
            assert _bits(getattr(restored.samples, name)()) == _bits(
                getattr(reference.samples, name)()
            )
        assert _bits(restored.corrections.differences()) == _bits(
            reference.corrections.differences()
        )
        assert _bits(restored.current_state.parameters) == _bits(
            reference.current_state.parameters
        )

    def test_collector_collection_restored_from_a_snapshot_continues_bitwise(self, tmp_path):
        reference, rows = _correction_rows(np.random.default_rng(11), 2, 3 * INITIAL_ROWS)
        checkpointer = Checkpointer(CheckpointConfig(directory=str(tmp_path / "ck")), {})
        partial = reference.subset(0, INITIAL_ROWS + 3)
        # what a collector writes, and what a respawned collector reads back
        checkpointer.write(4, "collector", {"level": 2, "collection": partial.state_dict()})
        snapshot = checkpointer.read(4, "collector")
        restored = CorrectionCollection.from_state_dict(snapshot["collection"])
        restored.validate()
        restored.extend(*reference.block(INITIAL_ROWS + 3, len(reference)))
        _check_corrections(restored, rows)
        assert _bits(restored.differences()) == _bits(reference.differences())
