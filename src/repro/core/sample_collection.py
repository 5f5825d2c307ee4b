"""Sample collections.

A :class:`SampleCollection` stores the points a chain recorded together with
their multiplicities and exposes the statistics needed by the multilevel
estimator (means, variances, effective sample sizes, integrated
autocorrelation times).  :class:`CorrectionCollection` stores the coupled
(fine QOI, coarse QOI) pairs produced by the multilevel kernel and reduces
them to the telescoping-sum correction terms ``E[Q_l - Q_{l-1}]``.

Both keep their rows in growable float64 blocks whose capacity doubles when
full; a recorded point or pair is one row write per block.  Statistics read
the filled prefix, which is row for row the matrix ``np.stack`` would build
from the same rows, so every statistic is bitwise what a list of rows gives.
Rows are only ever appended: a prefix view handed out stays valid and
unchanged while the collection keeps growing.

Both collections are mergeable, which is what the parallel layer's distributed
collectors rely on.
"""

from __future__ import annotations

import numpy as np

from repro.utils.stats import (
    RunningMoments,
    effective_sample_size,
    integrated_autocorrelation_time,
)

__all__ = ["SampleCollection", "CorrectionCollection"]

#: rows allocated by the first append; capacity doubles from there
INITIAL_ROWS = 16


def _grown(block: np.ndarray, filled: int, rows: int, width: int) -> np.ndarray:
    """A block of capacity ``>= rows`` holding the first ``filled`` rows of ``block``.

    Capacity doubles (from :data:`INITIAL_ROWS`) until it fits; ``width`` is
    the row width of a 2-d block that has no rows yet.
    """
    capacity = max(INITIAL_ROWS, block.shape[0])
    while capacity < rows:
        capacity *= 2
    shape = (capacity,) if block.ndim == 1 else (capacity, block.shape[1] if filled else width)
    grown = np.empty(shape, dtype=block.dtype)
    if filled:
        grown[:filled] = block[:filled]
    return grown


class _RowBlocks:
    """Named row blocks that share one row count.

    ``_blocks`` maps a name to a block whose leading axis is the row (a block
    without rows is ``(0, 0)``, or ``(0,)`` for scalar rows).  Rows are only
    appended, so a prefix view handed out never changes.
    """

    def __init__(self, blocks: dict[str, np.ndarray]) -> None:
        self._rows = 0
        self._blocks = blocks

    def __len__(self) -> int:
        return self._rows

    def _reserve(self, rows: int, widths: dict[str, int]) -> None:
        """Grow every block to hold ``rows`` rows (``widths`` of blocks without rows)."""
        n = self._rows
        self._blocks = {
            name: _grown(block, n, rows, widths.get(name, 0))
            for name, block in self._blocks.items()
        }

    def _append(self, rows: dict[str, np.ndarray]) -> None:
        """Append one ``(k, ...)`` block of rows to every stored block."""
        k = len(next(iter(rows.values())))
        if not k:
            return
        n = self._rows
        if n + k > len(next(iter(self._blocks.values()))):
            self._reserve(n + k, {name: np.shape(block)[-1] for name, block in rows.items()})
        for name, block in self._blocks.items():
            block[n : n + k] = rows[name]
        self._rows = n + k

    def _filled(self) -> dict[str, np.ndarray]:
        """The filled prefix of every block (views)."""
        return {name: block[: self._rows] for name, block in self._blocks.items()}

    def _view(self, name: str) -> np.ndarray:
        """Read-only view of a block's filled rows (``(0, 0)`` when there are none)."""
        if not self._rows:
            return np.zeros((0, 0))
        view = self._blocks[name][: self._rows]
        view.flags.writeable = False
        return view

    def _load(self, blocks: dict[str, np.ndarray]) -> None:
        """Take snapshot blocks as they are (copied), so :meth:`validate` sees a
        torn snapshot."""
        self._blocks = {name: np.array(block) for name, block in blocks.items()}
        self._rows = max(len(block) if np.size(block) else 0 for block in self._blocks.values())

    def _check_rows(self) -> None:
        n = self._rows
        if n and any(len(block) < n for block in self._blocks.values()):
            raise ValueError(
                f"blocks of {[len(block) for block in self._blocks.values()]} rows "
                f"for {n} rows (half-recorded pair or torn snapshot)"
            )


class SampleCollection(_RowBlocks):
    """The points a chain recorded, one row each, with multiplicities.

    Four blocks share the row index: parameters ``(n, dim)``, log densities
    ``(n,)`` (NaN when not evaluated), integer weights ``(n,)`` and QOIs
    ``(n, qoi_dim)``.  The QOI block is kept while every row carries a QOI.
    """

    def __init__(self) -> None:
        super().__init__(
            {
                "parameters": np.empty((0, 0)),
                "log_densities": np.empty(0),
                "weights": np.empty(0, dtype=np.int64),
                "qois": np.empty((0, 0)),
            }
        )
        self._num_samples = 0

    # ------------------------------------------------------------------
    def add(
        self,
        parameters: np.ndarray,
        log_density: float | None = None,
        qoi: np.ndarray | None = None,
        weight: int = 1,
    ) -> None:
        """Record one point (its values are copied into a new row)."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        n = self._rows
        blocks = self._blocks
        if n == len(blocks["weights"]):
            self._reserve(n + 1, {"parameters": np.size(parameters), "qois": np.size(qoi)})
            blocks = self._blocks
        blocks["parameters"][n] = parameters
        blocks["log_densities"][n] = np.nan if log_density is None else log_density
        blocks["weights"][n] = weight
        if qoi is None:
            blocks.pop("qois", None)
        elif "qois" in blocks:
            blocks["qois"][n] = qoi
        self._rows = n + 1
        self._num_samples += weight

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Total number of samples including multiplicities."""
        return self._num_samples

    @property
    def num_unique(self) -> int:
        """Number of stored rows."""
        return self._rows

    def _expanded(self, name: str, expand: bool) -> np.ndarray:
        rows = self._view(name)
        if expand and self._num_samples != self._rows:
            return np.repeat(rows, self._blocks["weights"][: self._rows], axis=0)
        return rows

    def parameters(self, expand: bool = True) -> np.ndarray:
        """Parameter matrix, optionally expanding multiplicities, shape (n, dim)."""
        return self._expanded("parameters", expand)

    def qois(self, expand: bool = True) -> np.ndarray:
        """QOI matrix (requires every row to carry a QOI), shape (n, qoi_dim)."""
        if self._rows and "qois" not in self._blocks:
            raise ValueError("row without evaluated QOI in collection")
        return self._expanded("qois", expand)

    def log_densities(self, expand: bool = True) -> np.ndarray:
        """Vector of log densities (NaN where none was recorded)."""
        return self._expanded("log_densities", expand) if self._rows else np.zeros(0)

    # ------------------------------------------------------------------
    def mean(self, use_qoi: bool = False) -> np.ndarray:
        """Sample mean of the parameters (or the QOI), multiplicities expanded.

        Folds the rows through a Welford accumulator, as this collection has
        always computed its mean.
        """
        moments = RunningMoments()
        for row in self.qois() if use_qoi else self.parameters():
            moments.push(row)
        return moments.mean()

    def variance(self, use_qoi: bool = False) -> np.ndarray:
        """Per-component sample variance, multiplicities expanded."""
        data = self.qois() if use_qoi else self.parameters()
        if data.size == 0:
            return np.zeros(0)
        return np.var(data, axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(data.shape[1])

    def ess(self, use_qoi: bool = False) -> float:
        """Effective sample size (minimum over components)."""
        data = self.qois() if use_qoi else self.parameters()
        if data.shape[0] < 4:
            return float(data.shape[0])
        return effective_sample_size(data)

    def integrated_autocorrelation_time(self, component: int = 0, use_qoi: bool = False) -> float:
        """IACT of a single component (expanded chain)."""
        data = self.qois() if use_qoi else self.parameters()
        if data.shape[0] < 4:
            return 1.0
        return integrated_autocorrelation_time(data[:, component])

    # ------------------------------------------------------------------
    def merge(self, other: "SampleCollection") -> "SampleCollection":
        """Append another collection's rows (used by distributed collectors)."""
        if other._rows:
            self._extend(other._filled(), other._num_samples)
        return self

    def _extend(self, rows: dict[str, np.ndarray], num_samples: int) -> None:
        if "qois" not in rows:
            self._blocks.pop("qois", None)
        self._append(rows)
        self._num_samples += num_samples

    def subset(self, start: int = 0, stop: int | None = None) -> "SampleCollection":
        """A copy of a contiguous range of rows."""
        rows = {name: block[start:stop] for name, block in self._filled().items()}
        result = SampleCollection()
        result._extend(rows, int(rows["weights"].sum()))
        return result

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot (checkpointing): copies of the filled blocks.

        The ``"qois"`` entry is ``None`` once a row without a QOI was recorded.
        """
        state = {"qois": None, **{name: block.copy() for name, block in self._filled().items()}}
        return {**state, "num_samples": self._num_samples}

    def __reduce__(self):
        # pickle (messages, checkpoints, harvests) ships the filled rows, not
        # the spare capacity of the blocks
        return SampleCollection.from_state_dict, (self.state_dict(),)

    @classmethod
    def from_state_dict(cls, state: dict) -> "SampleCollection":
        """Rebuild a collection from a :meth:`state_dict` snapshot (arrays are copied)."""
        collection = cls()
        names = ("parameters", "log_densities", "weights", "qois")
        collection._load({name: state[name] for name in names if state[name] is not None})
        collection._num_samples = state["num_samples"]
        return collection

    def validate(self) -> None:
        """Raise ``ValueError`` unless the collection is internally consistent.

        Used on salvaged crash-path state: every row must carry a positive
        integer weight, the weights must sum to :attr:`num_samples`, and every
        block must hold every row (a torn snapshot breaks one of these).
        """
        self._check_rows()
        weights = self._blocks["weights"][: self._rows]
        if not np.issubdtype(weights.dtype, np.integer) or np.any(weights <= 0):
            raise ValueError(f"invalid weights {weights.tolist()!r}")
        if int(weights.sum()) != self._num_samples:
            raise ValueError(
                f"weight sum {int(weights.sum())} does not match num_samples "
                f"{self._num_samples}"
            )


class CorrectionCollection(_RowBlocks):
    """Coupled (fine, coarse) QOI pairs for one telescoping correction term.

    For level 0 (no coarser level) there is no coarse block and the term
    reduces to a plain expectation of ``Q_0``.  Every statistic — including
    the :meth:`variance` adaptive allocation polls between continuation
    rounds — is the two-pass formula over the filled rows.
    """

    def __init__(self, level: int) -> None:
        self.level = int(level)
        names = ("fine",) if self.level == 0 else ("fine", "coarse")
        super().__init__({name: np.empty((0, 0)) for name in names})

    # ------------------------------------------------------------------
    def add(self, fine_qoi: np.ndarray, coarse_qoi: np.ndarray | None = None) -> None:
        """Record one coupled pair (or a single fine QOI on level 0)."""
        n = self._rows
        blocks = self._blocks
        if n == len(blocks["fine"]):
            self._reserve(n + 1, {"fine": np.size(fine_qoi), "coarse": np.size(fine_qoi)})
            blocks = self._blocks
        blocks["fine"][n] = fine_qoi
        if self.level:
            if coarse_qoi is None:
                raise ValueError("coarse QOI required for levels above 0")
            blocks["coarse"][n] = coarse_qoi
        elif coarse_qoi is not None:
            raise ValueError("level 0 takes no coarse QOI")
        self._rows = n + 1

    def extend(self, fine: np.ndarray, coarse: np.ndarray | None = None) -> None:
        """Record a block of pairs: ``(k, qoi_dim)`` fine rows and, above level 0,
        the matching coarse rows."""
        if (self.level == 0) != (coarse is None):
            raise ValueError("coarse QOIs required for levels above 0 and refused on level 0")
        if coarse is not None and len(coarse) != len(fine):
            raise ValueError(f"{len(fine)} fine QOIs but {len(coarse)} coarse QOIs")
        self._append({"fine": fine} if coarse is None else {"fine": fine, "coarse": coarse})

    @property
    def has_coarse(self) -> bool:
        """Whether this collection stores coupled coarse QOIs."""
        return self.level > 0 and self._rows > 0

    def block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Rows ``start:stop`` as ``(fine block, coarse block or None)``.

        Read-only views: parallel controllers ship them to collectors as two
        contiguous arrays.
        """
        fine = self._view("fine")[start:stop]
        return fine, (self._view("coarse")[start:stop] if self.level else None)

    # ------------------------------------------------------------------
    def fine_matrix(self) -> np.ndarray:
        """All fine QOIs, shape (n, qoi_dim)."""
        return self._view("fine")

    def coarse_matrix(self) -> np.ndarray:
        """All coarse QOIs, shape (n, qoi_dim); ``(0, 0)`` on level 0."""
        return self._view("coarse") if self.level else np.zeros((0, 0))

    def differences(self) -> np.ndarray:
        """Per-sample correction contributions ``Q_l - Q_{l-1}`` (or ``Q_0``)."""
        fine = self.fine_matrix()
        return fine - self.coarse_matrix() if self.level else fine

    def mean(self) -> np.ndarray:
        """Monte Carlo estimate of the correction term."""
        diffs = self.differences()
        return diffs.mean(axis=0) if diffs.size else np.zeros(0)

    def variance(self) -> np.ndarray:
        """Per-component sample variance of the correction contributions."""
        diffs = self.differences()
        if diffs.shape[0] < 2:
            return np.zeros(diffs.shape[1])
        return diffs.var(axis=0, ddof=1)

    def fine_mean(self) -> np.ndarray:
        """Mean of the fine QOIs alone (used for per-level posterior summaries)."""
        fine = self.fine_matrix()
        return fine.mean(axis=0) if fine.size else np.zeros(0)

    # ------------------------------------------------------------------
    def merge(self, other: "CorrectionCollection") -> "CorrectionCollection":
        """Append another collection of the same level."""
        if other.level != self.level:
            raise ValueError("cannot merge correction collections of different levels")
        self._append(other._filled())
        return self

    def subset(self, start: int = 0, stop: int | None = None) -> "CorrectionCollection":
        """A copy of a contiguous range of pairs.

        Lets a parallel collector ship only the pairs collected since its last
        report instead of re-sending (and double-counting) the whole
        collection across continuation rounds.
        """
        result = CorrectionCollection(self.level)
        result._append({name: block[start:stop] for name, block in self._filled().items()})
        return result

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot (checkpointing): copies of the filled blocks."""
        state = {"coarse": None, **{name: block.copy() for name, block in self._filled().items()}}
        return {"level": self.level, **state}

    def __reduce__(self):
        # pickle (messages, checkpoints, harvests) ships the filled rows, not
        # the spare capacity of the blocks
        return CorrectionCollection.from_state_dict, (self.state_dict(),)

    @classmethod
    def from_state_dict(cls, state: dict) -> "CorrectionCollection":
        """Rebuild a collection from a :meth:`state_dict` snapshot (arrays are copied)."""
        collection = cls(level=int(state["level"]))
        blocks = {"fine": state["fine"]}
        if collection.level or state["coarse"] is not None:
            coarse = state["coarse"]
            blocks["coarse"] = np.empty((0, 0)) if coarse is None else coarse
        collection._load(blocks)
        return collection

    def validate(self) -> None:
        """Raise ``ValueError`` unless every correction pair is complete.

        Guards salvaged crash-path state: levels above 0 must pair every fine
        QOI with a coarse QOI (a half-recorded pair would silently bias the
        telescoping difference), level 0 stores no coarse QOIs, and the fine
        and coarse rows must be 1-d QOIs of one shape.
        """
        blocks = self._blocks
        if self.level == 0 and "coarse" in blocks:
            raise ValueError("level 0 must not store coarse QOIs")
        if any(block.ndim != 2 for block in blocks.values()):
            raise ValueError("correction QOIs must be 1-d arrays")
        self._check_rows()
        if self._rows and len({block.shape[1] for block in blocks.values()}) > 1:
            raise ValueError(
                "inconsistent QOI shapes in collection: "
                f"{sorted(block.shape[1:] for block in blocks.values())}"
            )
