"""Reference code that only the tests use: block dimensions, a symmetry measure, coherent-state
outcome probabilities and the reduction of a product-space operator to J blocks."""
from __future__ import annotations

import numpy as np

from relangle.su2 import DomainError, HalfInt, half
from relangle.states import (
    BlockedOperator,
    GenericState,
    averaged_state,
    coupled_basis_matrix,
    coupling_structure,
)


def block_dims(state: GenericState, j2: HalfInt) -> dict[HalfInt, int]:
    return {J: len(basis) for J, basis in coupling_structure(state, half(j2))}


def max_symmetry_defect(rho: BlockedOperator) -> float:
    return max(float(np.abs(m - m.T).max()) for _, m in rho.blocks.values())


def coherent_overlap_distribution(state: GenericState, j2: HalfInt, beta: float) -> dict[HalfInt, float]:
    """Outcome probabilities p_J(beta) for a coherent preparation (each J once)."""
    if not state.is_coherent():
        raise DomainError("overlap distribution is defined for coherent preparations only")
    rho = averaged_state(state, j2, beta)
    return {J: float(mat[0, 0]) for J, (basis, mat) in rho.blocks.items()}


def blocks_from_full_matrix(state: GenericState, j2: HalfInt, full: np.ndarray) -> BlockedOperator:
    """Reduce a full product-space operator to M-summed (J, j1, j1') blocks."""
    V, labels = coupled_basis_matrix(state, j2)
    coupled = V.T @ full.real @ V
    cols: dict[tuple[HalfInt, HalfInt], list[int]] = {}  # per (J, j1), in ascending M
    for c, (J, _, j1) in enumerate(labels):
        cols.setdefault((J, j1), []).append(c)
    out = BlockedOperator()
    for J, basis in coupling_structure(state, j2):
        # sum over M of the (J M j1, J M j1') entries: the diagonal of each sub-block
        out.blocks[J] = (basis, np.array([[np.trace(coupled[np.ix_(cols[J, a], cols[J, b])])
                                           for b in basis] for a in basis]))
    return out
