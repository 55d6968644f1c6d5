"""The package's public names."""

import phasebound


def test_exports_resolve():
    names = phasebound.__all__
    assert [name for name in names if not hasattr(phasebound, name)] == []
    assert len(set(names)) == len(names)
    assert {"AsymptoticProblem", "MatrixValidity", "validate_phase_matrix"}.isdisjoint(names)
    removed = {
        "AsymptoticSpectrum",
        "ComparisonReport",
        "compare_discrete_to_asymptotic",
        "nystrom_spectrum",
    }
    assert removed.isdisjoint(names)
    assert not any(hasattr(phasebound, name) for name in removed)
    assert "nystrom_eigenvalues" in names
    assert phasebound.nystrom_eigenvalues is phasebound.asymptotic.nystrom_eigenvalues
