"""Helpers shared by the test modules."""


def register_indices(register, n: int) -> tuple[int, ...]:
    """The exact rotation index of every qubit of a register at precision n.

    Registers keep their state private; tests read it through this helper.
    Every qubit must be exact, in no amplitude group: a grouped qubit's
    index is stale.
    """
    assert register._groups == {}
    assert register._n == n
    return tuple(register._indices.tolist())
