"""The package's public names."""

import phasebound


def test_exports_resolve():
    names = phasebound.__all__
    assert [name for name in names if not hasattr(phasebound, name)] == []
    assert len(set(names)) == len(names)
    assert {"AsymptoticProblem", "MatrixValidity", "validate_phase_matrix"}.isdisjoint(names)
