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
        "ConcentrationKernel",
        "SpectrumDiagnostics",
        "SpectrumResult",
        "build_kernel",
        "compare_discrete_to_asymptotic",
        "eigensystem",
        "nystrom_spectrum",
        "second_eigenvalue_bound",
    }
    assert removed.isdisjoint(names)
    assert not any(hasattr(phasebound, name) for name in removed)
    # the kernel's column is its only form: no dense matrix, one operator
    for name in ("ConcentrationKernel", "build_kernel", "toeplitz_from_column", "toeplitz_operator"):
        assert not hasattr(phasebound.kernel, name)
    assert "nystrom_eigenvalues" in names
    # the Nystrom rule is the continuum oracle; the limit module solves the
    # Legendre blocks and takes nothing from the dense parity split
    assert phasebound.nystrom_eigenvalues is phasebound.oracles.nystrom_eigenvalues
    assert phasebound.prolate_eigenvalues is phasebound.asymptotic.prolate_eigenvalues
    for name in ("nystrom_eigenvalues", "gauss_legendre", "_sinc_kernel", "parity_blocks"):
        assert not hasattr(phasebound.asymptotic, name)
    for name in ("OracleConfig", "NoConvergenceError"):
        assert name not in names
        assert not hasattr(phasebound, name)
    # the brute-force oracles only the tests call live in tests/reference_oracles.py
    for name in ("quadrature_probability", "random_state_search"):
        assert name not in names
        assert not hasattr(phasebound, name)
        assert not hasattr(phasebound.oracles, name)


def test_traced_benchmark_names():
    # perfbench/tracing.py wraps the CLI writers by name and reads these
    # result fields; renaming or deleting one breaks `run.py --trace 1`
    import phasebound.cli as cli

    for name in ("write_curve_csv", "write_curve_json", "write_gnuplot_script"):
        assert callable(getattr(cli, name))
    assert phasebound.power_iteration(1.0, 4).iterations >= 1
