"""Sparse assembly of the diffusion operator and boundary condition handling.

Assembly exploits the structured grid: the element stiffness matrix for a unit
coefficient is computed once and scaled by the per-element diffusion
coefficient, so assembling the global matrix is a vectorised scatter of
``num_elements`` scaled copies — important because the MCMC chain assembles a
new operator for every proposed parameter.

Two assembly paths exist:

* :func:`assemble_diffusion_system` + :func:`apply_dirichlet` — the reference
  path; builds a fresh COO matrix per call and eliminates Dirichlet
  rows/columns on the assembled operator.
* :class:`AssemblyPlan` — the solve path.  Everything that depends only on
  the ``(grid, Dirichlet set)`` pair is precomputed once: a scatter map from
  the per-element coefficients straight into LAPACK lower band storage of
  the SPD interior block ``K_ii`` (banded with half-bandwidth ``nx`` in
  natural node ordering) and the interior/boundary split.  Per sample the
  reduced system ``K_ii u_i = b_i - K_ib u_b`` is two sparse products — no
  ``scipy.sparse`` matrix is built — ready for a banded Cholesky solve.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import scipy.sparse as sp

from repro.fem.grid import StructuredGrid
from repro.fem.q1 import Q1Element
from repro.utils.array_api import resolve_dtype

__all__ = [
    "assemble_diffusion_system",
    "apply_dirichlet",
    "assemble_mass_matrix",
    "AssemblyPlan",
]


def _check_coefficients(kappa: np.ndarray, num_elements: int) -> np.ndarray:
    """Validate per-element coefficients: one vector or a block of rows.

    Rejects a wrong element count and any entry that is not positive and
    finite: NaN fails ``min > 0`` (the reductions propagate it) and inf fails
    ``max < inf``.
    """
    if kappa.shape[-1] != num_elements:
        raise ValueError(
            f"expected {num_elements} element coefficients, got {kappa.shape[-1]}"
        )
    if not (kappa.min() > 0 and kappa.max() < np.inf):
        raise ValueError("diffusion coefficients must be positive and finite")
    return kappa


def assemble_diffusion_system(
    grid: StructuredGrid,
    element_coefficients: np.ndarray,
    source: np.ndarray | float = 0.0,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the global stiffness matrix and load vector.

    Parameters
    ----------
    grid:
        The structured grid.
    element_coefficients:
        Diffusion coefficient per element, shape ``(num_elements,)``.
    source:
        Right-hand side ``f``: either a scalar or per-element values; the load
        vector uses a one-point (midpoint) mass lumping per element which is
        second-order accurate for Q1.

    Returns
    -------
    (K, b):
        ``K`` is the CSR stiffness matrix (without boundary conditions),
        ``b`` the load vector.
    """
    kappa = _check_coefficients(
        np.asarray(element_coefficients, dtype=np.float64).ravel(), grid.num_elements
    )

    conn = grid.element_connectivity()
    ke_unit = Q1Element.local_stiffness(grid.hx, grid.hy, coefficient=1.0)

    # Build COO triplets for all elements at once.
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    data = (kappa[:, None, None] * ke_unit[None, :, :]).reshape(grid.num_elements, -1).ravel()
    stiffness = sp.coo_matrix(
        (data, (rows, cols)), shape=(grid.num_nodes, grid.num_nodes)
    ).tocsr()

    # Load vector.
    load = np.zeros(grid.num_nodes)
    source_arr = np.broadcast_to(np.asarray(source, dtype=np.float64), (grid.num_elements,))
    if np.any(source_arr != 0.0):
        element_area = grid.hx * grid.hy
        contrib = source_arr * element_area / 4.0
        np.add.at(load, conn.ravel(), np.repeat(contrib, 4))
    return stiffness, load


def assemble_mass_matrix(grid: StructuredGrid) -> sp.csr_matrix:
    """Assemble the global (consistent) mass matrix."""
    conn = grid.element_connectivity()
    me = Q1Element.local_mass(grid.hx, grid.hy)
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    data = np.tile(me.ravel(), grid.num_elements)
    return sp.coo_matrix(
        (data, (rows, cols)), shape=(grid.num_nodes, grid.num_nodes)
    ).tocsr()


def apply_dirichlet(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    dirichlet_nodes: np.ndarray,
    dirichlet_values: np.ndarray | float,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Impose Dirichlet conditions by row/column elimination (symmetry preserving).

    The boundary values are moved to the right-hand side, boundary rows and
    columns are zeroed and the diagonal set to one, keeping the reduced system
    symmetric positive definite.  Implemented as a vectorized COO filter (no
    ``tolil`` conversion, no Python loop over boundary nodes).
    """
    nodes = np.asarray(dirichlet_nodes, dtype=int).ravel()
    values = np.broadcast_to(np.asarray(dirichlet_values, dtype=np.float64), nodes.shape)
    num = matrix.shape[0]
    rhs = np.array(rhs, dtype=np.float64, copy=True)

    # Move known values to the RHS: b -= K @ g where g carries the boundary
    # values (accumulated, so duplicate nodes behave like repeated columns).
    boundary_vector = np.zeros(num)
    np.add.at(boundary_vector, nodes, values)
    rhs -= matrix @ boundary_vector

    # Zero rows and columns by dropping every stored entry that touches a
    # boundary node, then set unit diagonals and pin the RHS.
    mask = np.zeros(num, dtype=bool)
    mask[nodes] = True
    coo = matrix.tocoo()
    keep = ~(mask[coo.row] | mask[coo.col])
    unique_nodes = np.unique(nodes)
    eliminated = sp.coo_matrix(
        (
            np.concatenate([coo.data[keep], np.ones(unique_nodes.size)]),
            (
                np.concatenate([coo.row[keep], unique_nodes]),
                np.concatenate([coo.col[keep], unique_nodes]),
            ),
        ),
        shape=matrix.shape,
    ).tocsr()
    rhs[nodes] = values
    return eliminated, rhs


class AssemblyPlan:
    """Precomputed assembly and banded interior-reduction structure for one grid.

    Built once per ``(grid, Dirichlet node set)`` pair; afterwards every
    per-sample operation is a sparse product with a fixed operator:

    * ``band_systems(kappa_block, lifting)`` — the symmetric positive
      definite interior systems ``K_ii u_i = b_i - K_ib u_b`` of a coefficient
      block, one member at a time.  ``K_ii`` is written straight into LAPACK
      lower band storage by ``band_scatter @ kappa``; :attr:`bandwidth` is the half-bandwidth
      measured on the plan's own interior structure (``nx`` for the
      left/right Dirichlet split in natural node ordering).  The boundary
      coupling ``K_ib u_b`` is ``lifting @ kappa`` with the fixed operator
      built once by :meth:`lifting`.
    * ``expand(u_i, values)`` — scatter interior solutions back to the full
      nodal vectors.

    Parameters
    ----------
    grid:
        The structured grid.
    dirichlet_nodes:
        Global node indices with essential boundary conditions (must be
        unique); ``None`` or empty means no reduction (``interior`` covers
        every node).
    source:
        Fixed right-hand side ``f`` (scalar or per element), baked into
        :attr:`load` exactly as in :func:`assemble_diffusion_system`.
    dtype:
        Assembly dtype (``float32`` or ``float64``, default double): the
        scatter operators, the load vector and every per-sample matrix/vector
        the plan produces carry this dtype, so a coarse level of the precision
        ladder assembles and solves in single precision.  The plan geometry
        (band positions, interior split) is computed in double either way.
    """

    def __init__(
        self,
        grid: StructuredGrid,
        dirichlet_nodes: np.ndarray | None = None,
        source: np.ndarray | float = 0.0,
        dtype=None,
    ) -> None:
        self.grid = grid
        self.dtype = resolve_dtype(dtype)
        num_nodes = grid.num_nodes
        conn = grid.element_connectivity()
        ke_unit = Q1Element.local_stiffness(grid.hx, grid.hy, coefficient=1.0)

        # COO triplets of the full operator (element-major, 16 per element).
        rows = np.repeat(conn, 4, axis=1).ravel()
        cols = np.tile(conn, (1, 4)).ravel()
        elements = np.repeat(np.arange(grid.num_elements), 16)
        weights = np.tile(ke_unit.ravel(), grid.num_elements)

        #: fixed load vector for the plan's source term (accumulated in double,
        #: rounded once to the plan dtype)
        load = np.zeros(num_nodes)
        source_arr = np.broadcast_to(
            np.asarray(source, dtype=np.float64), (grid.num_elements,)
        )
        if np.any(source_arr != 0.0):
            contrib = source_arr * (grid.hx * grid.hy) / 4.0
            np.add.at(load, conn.ravel(), np.repeat(contrib, 4))
        self.load = load.astype(self.dtype, copy=False)

        # Interior-DOF reduction: split nodes into interior/boundary once.
        if dirichlet_nodes is None:
            dirichlet_nodes = np.empty(0, dtype=int)
        self.dirichlet_nodes = np.asarray(dirichlet_nodes, dtype=int).ravel()
        if np.unique(self.dirichlet_nodes).size != self.dirichlet_nodes.size:
            raise ValueError("dirichlet_nodes must be unique")
        mask = np.zeros(num_nodes, dtype=bool)
        mask[self.dirichlet_nodes] = True
        #: interior (non-Dirichlet) node indices, ascending
        self.interior = np.nonzero(~mask)[0]
        self.load_interior = self.load[self.interior]

        # Row/column position of every triplet in the interior ordering
        # (-1 for Dirichlet nodes).
        position = np.full(num_nodes, -1, dtype=np.int64)
        position[self.interior] = np.arange(self.interior.size)
        row, col = position[rows], position[cols]

        # K_ii in lower band storage: entry (i, j), i >= j, of member k lives
        # at ``bands[k, j, i - j]``, i.e. flat index j * (bandwidth + 1) + i - j.
        lower = (col >= 0) & (row >= col)
        offsets = row[lower] - col[lower]
        #: half-bandwidth of ``K_ii`` (0 when the interior is empty)
        self.bandwidth = int(offsets.max()) if offsets.size else 0
        #: sparse ``((bandwidth + 1) * num_interior, num_elements)`` operator
        #: with ``band_scatter @ kappa == K_ii`` in lower band storage
        self.band_scatter = sp.coo_matrix(
            (
                weights[lower].astype(self.dtype),
                (col[lower] * (self.bandwidth + 1) + offsets, elements[lower]),
            ),
            shape=((self.bandwidth + 1) * self.interior.size, grid.num_elements),
        ).tocsr()

        # K_ib triplets, kept for :meth:`lifting` (interior row, Dirichlet
        # node, element, unit-coefficient weight).
        coupling = (row >= 0) & (col < 0)
        self._coupling = (
            row[coupling], cols[coupling], elements[coupling], weights[coupling]
        )

    # ------------------------------------------------------------------
    @property
    def num_interior(self) -> int:
        """Number of interior (free) degrees of freedom."""
        return self.interior.size

    def coefficients(self, element_coefficients: np.ndarray) -> np.ndarray:
        """Validate per-element coefficients (same checks as assembly).

        Accepts one vector (any shape, flattened) or an ``(n, num_elements)``
        block.  Validation runs in double; the result carries the plan dtype
        so the scatter products stay in the level's precision.
        """
        kappa = np.asarray(element_coefficients, dtype=np.float64)
        if kappa.ndim != 2:
            kappa = kappa.ravel()
        return _check_coefficients(kappa, self.grid.num_elements).astype(
            self.dtype, copy=False
        )

    # ------------------------------------------------------------------
    def lifting(self, dirichlet_values: np.ndarray | float) -> sp.csr_matrix:
        """Fixed ``(num_interior, num_elements)`` operator ``R`` of the boundary data.

        ``R @ kappa == K_ib @ u_b`` for the given Dirichlet values, so a
        solver with fixed boundary data builds it once.  Entries are
        accumulated in double and rounded once to the plan dtype.
        """
        boundary = np.zeros(self.grid.num_nodes)
        boundary[self.dirichlet_nodes] = dirichlet_values
        row, node, element, weight = self._coupling
        return sp.coo_matrix(
            (weight * boundary[node], (row, element)),
            shape=(self.num_interior, self.grid.num_elements),
        ).tocsr().astype(self.dtype)

    def band_systems(
        self, coefficient_block: np.ndarray, lifting: sp.csr_matrix
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The banded SPD interior systems of an ``(n, num_elements)`` block.

        Validates the whole block, computes every right-hand side
        ``b_i - K_ib u_b`` in one product (``lifting`` from :meth:`lifting`),
        then yields ``(band, rhs)`` per member: ``band`` is that member's
        ``K_ii`` as a fresh Fortran-contiguous ``(bandwidth + 1,
        num_interior)`` array in LAPACK lower band storage, ready for
        ``?pbsv``.  Bands are built one at a time because each one is dense
        over the band: a block never holds more than one.
        """
        kappa = np.atleast_2d(self.coefficients(coefficient_block))
        rhs = self.load_interior - (lifting @ kappa.T).T
        shape = (self.num_interior, self.bandwidth + 1)
        for member, member_rhs in zip(kappa, rhs):
            yield (self.band_scatter @ member).reshape(shape).T, member_rhs

    def expand(
        self,
        interior_solution: np.ndarray,
        dirichlet_values: np.ndarray | float,
    ) -> np.ndarray:
        """Scatter interior solutions (one vector or a block of rows) and the
        boundary values to all nodes."""
        interior_solution = np.asarray(interior_solution)
        full = np.empty(
            interior_solution.shape[:-1] + (self.grid.num_nodes,), dtype=self.dtype
        )
        full[..., self.interior] = interior_solution
        full[..., self.dirichlet_nodes] = np.asarray(dirichlet_values, dtype=self.dtype)
        return full
