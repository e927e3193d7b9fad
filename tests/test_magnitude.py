import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import distances_of
from oracles import (conjugate_gradient_weighting, rebuilt_rows_residual,
                     reference_similarity_matrix, reference_solve_direct)
from trajtopo import blas, magnitude
from trajtopo.cli import main
from trajtopo.errors import InvalidInputError, NumericalFailureError
from trajtopo.geometry import (DistanceMatrix, distance_matrix, save_distance_matrix,
                               subsample_uniform)
from trajtopo.magnitude import (
    RESIDUAL_TOL,
    pmag_scale,
    positive_magnitude,
    scale_grid,
    similarity_matrix,
    weighting,
)
from trajtopo.trainer import SGDConfig, make_task_and_data, projected_sgd


def two_point_pmag(d: float, s: float) -> float:
    """Closed form for two points at distance d: 2 / (1 + e^(-s d))."""
    return 2.0 / (1.0 + math.exp(-s * d))


class TestWeighting:
    def test_single_point_weight_is_one(self):
        sol = weighting(distances_of([[0.0, 0.0]]), s=3.7)
        np.testing.assert_array_equal(sol.gamma, [1.0])
        assert sol.pmag == 1.0
        assert sol.residual <= RESIDUAL_TOL

    def test_two_points_closed_form(self):
        # distance 1 at scale ln 3 gives similarity 1/3 and weights 3/4
        sol = weighting(distances_of([[0.0], [1.0]]), s=math.log(3.0))
        np.testing.assert_allclose(sol.gamma, [0.75, 0.75], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sol.pmag, 1.5, rtol=0.0, atol=1e-12)

    def test_extreme_scale_gives_unit_weights(self):
        sol = weighting(distances_of([[0.0], [800.0]]), s=1.0)
        np.testing.assert_array_equal(sol.gamma, [1.0, 1.0])

    def test_residual_always_within_tolerance(self, rng):
        for _ in range(5):
            m = int(rng.integers(2, 40))
            dist = distances_of(rng.standard_normal((m, 3)))
            assert weighting(dist, s=2.0).residual <= RESIDUAL_TOL

    def test_solvers_agree(self, rng):
        """The Cholesky weighting agrees with the conjugate-gradient oracle,
        which converges to the residual tolerance on each instance."""
        for _ in range(5):
            m = int(rng.integers(5, 120))
            dist = distances_of(rng.standard_normal((m, 4)))
            direct = weighting(dist, s=1.5)
            krylov, iterations, residual = conjugate_gradient_weighting(dist, 1.5)
            assert iterations >= 1
            assert residual <= RESIDUAL_TOL
            err = np.linalg.norm(krylov - direct.gamma)
            assert err <= 1e-8 * np.linalg.norm(direct.gamma)

    def test_duplicate_points_rejected(self):
        with pytest.raises(InvalidInputError, match="deduplicate"):
            weighting(distances_of([[0.0], [0.0]]), s=1.0)

    def test_near_duplicates_fail_numerically(self):
        # far below the deduplication default, the system is singular at
        # double precision
        dist = distances_of([[0.0], [1e-18], [1.0]])
        with pytest.raises((NumericalFailureError, InvalidInputError)):
            weighting(dist, s=1.0)

    def test_invalid_scale_and_solver(self):
        dist = distances_of([[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            weighting(dist, s=0.0)
        for solver in ("lu", "conjugate_gradient"):
            with pytest.raises(InvalidInputError, match=f"unknown solver '{solver}'"):
                weighting(dist, s=1.0, solver=solver)

    # "direct" is the one value of `weighting`'s `solver` keyword
    @pytest.mark.parametrize("solver", ["direct"])
    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, -1.0])
    def test_non_finite_scale_rejected(self, s, solver):
        with pytest.raises(InvalidInputError, match="scale"):
            weighting(distances_of([[0.0], [1.0]]), s=s, solver=solver)

    @pytest.mark.parametrize("solver", ["direct"])
    def test_not_positive_definite_similarity_fails_numerically(self, solver):
        with pytest.raises(NumericalFailureError, match="not positive definite"):
            weighting(_NON_EUCLIDEAN, s=1.0, solver=solver)

    def test_cli_pmag_of_a_not_positive_definite_matrix_exits_3(self, tmp_path, capsys):
        save_distance_matrix(_NON_EUCLIDEAN, tmp_path / "d")
        assert main(["pmag", str(tmp_path / "d"), "--scales", "1"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "not positive definite" in err

    def test_residual_above_tolerance_refines_once_then_exits_3(self, rng, tmp_path, capsys,
                                                                  monkeypatch):
        """A Cholesky solve whose residual exceeds the tolerance takes one
        step of iterative refinement with the same factor, and a residual
        still above it fails naming the residual."""
        import scipy.linalg.lapack

        # at 6 points the residual is exactly 0; at 40 it is not
        save_distance_matrix(distances_of(rng.standard_normal((40, 2))), tmp_path / "d")
        solves = []
        real = scipy.linalg.lapack.dpotrs
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs",
                            lambda *args: solves.append(args) or real(*args))
        monkeypatch.setattr(magnitude, "RESIDUAL_TOL", 0.0)
        assert main(["pmag", str(tmp_path / "d"), "--scales", "1"]) == 3
        assert len(solves) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.search(r"weighting residual \d\.\d{3}e-\d+ exceeds 0e\+00", err), err


# Three points that pass every check of a distance matrix but embed in no
# Euclidean space: their similarity matrix at scale 1 has a negative
# eigenvalue (-0.397).
_NON_EUCLIDEAN = DistanceMatrix(
    values=[[0.0, 0.01, 0.01], [0.01, 0.0, 5.0], [0.01, 5.0, 0.0]], point_ids=[0, 1, 2])


class TestPositiveMagnitude:
    def test_single_point(self):
        assert positive_magnitude(distances_of([[4.0]]), s=0.5) == 1.0

    def test_two_points_closed_form_sweep(self, rng):
        for _ in range(25):
            d = float(rng.uniform(0.05, 5.0))
            s = float(rng.uniform(0.1, 20.0))
            value = positive_magnitude(distances_of([[0.0], [d]]), s)
            np.testing.assert_allclose(value, two_point_pmag(d, s), rtol=0.0, atol=1e-10)

    def test_large_scale_counts_points(self, rng):
        points = rng.standard_normal((5, 2)) * 10.0
        dist = distances_of(points)
        s = 800.0 / dist.values[dist.values > 0].min()
        np.testing.assert_allclose(positive_magnitude(dist, s), 5.0, rtol=0.0, atol=1e-6)

    def test_dominates_plain_magnitude_and_one(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 50))
            sol = weighting(distances_of(rng.standard_normal((m, 3))), s=1.0)
            assert sol.pmag >= sol.magnitude >= 1.0 - 1e-12

    def test_scale_equivariance_exact(self, rng):
        """Scale moves freely between distances and s: doubling the points
        while halving s leaves the similarity matrix bit-identical (the
        factor 2 is exact in floating point)."""
        points = rng.standard_normal((12, 3))
        a = positive_magnitude(distances_of(points), s=2.0)
        b = positive_magnitude(distances_of(2.0 * points), s=1.0)
        assert a == b

    def test_underflow_flush_keeps_diagonal(self):
        dist = distances_of([[0.0], [1000.0]])
        z = similarity_matrix(dist, s=1.0)
        np.testing.assert_array_equal(z, np.eye(2))

    def test_overflowing_scale_flushes_without_a_warning(self, rng):
        """At s = 1e308, s*d overflows for every distance above 1: Z = I and
        every weight is 1, with no overflow warning (an error under this
        suite's warning filter)."""
        dist = distances_of(rng.standard_normal((50, 3)) * 10.0)
        assert dist.values[dist.values > 0].min() > 1.0
        np.testing.assert_array_equal(similarity_matrix(dist, 1e308), np.eye(50))
        assert positive_magnitude(dist, 1e308) == 50.0

    def test_cli_pmag_at_an_overflowing_scale_prints_no_warning(self, rng, tmp_path, capsys):
        dist = distances_of(rng.standard_normal((50, 3)) * 10.0)
        save_distance_matrix(dist, tmp_path / "d")
        assert main(["pmag", str(tmp_path / "d"), "--scales", "1e308"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "50.0" in out


class TestScaleSchedule:
    def test_unit_inputs(self):
        assert pmag_scale(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_cube_root_scaling(self):
        np.testing.assert_allclose(pmag_scale(1.0, 1.0, 1.0, 1e-3), 10.0, rtol=1e-12)

    def test_nonpositive_rejected(self):
        for bad in [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            with pytest.raises(InvalidInputError):
                pmag_scale(*bad)

    def test_scale_grid_validation(self):
        with pytest.raises(InvalidInputError, match="scale grid must be nonempty"):
            scale_grid(())
        for bad in ((-1.0, 2.0), (0, 1), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(InvalidInputError, match="scales must be finite and positive"):
                scale_grid(bad)
        assert scale_grid((1.0, 100.0)) == (1.0, 100.0)
        # sorted, without duplicates, and float
        assert scale_grid([100, 1.0, 100.0]) == (1.0, 100.0)
        assert all(type(s) is float for s in scale_grid([100, 1]))

    def test_profile_keys(self, rng, tmp_path, capsys):
        """`trajtopo pmag` prints one weighting per distinct scale, keyed by
        the scale's repr: its PMag, magnitude and residual."""
        dist = distances_of(rng.standard_normal((6, 2)))
        save_distance_matrix(dist, tmp_path / "d")
        capsys.readouterr()
        assert main(["pmag", str(tmp_path / "d"), "--scales", "100,1,100"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert sorted(profile) == ["1.0", "100.0"]
        for s in (1.0, 100.0):
            assert sorted(profile[repr(s)]) == ["magnitude", "pmag", "residual"]
            assert profile[repr(s)]["pmag"] == weighting(dist, s).pmag


# log of the smallest normal double, below which Z's entries are flushed to
# zero, and the cut one below it, under which exp need not be evaluated
_LOG_TINY = math.log(np.finfo(np.float64).tiny)
_CUT = _LOG_TINY - 1.0


def _straddling_distances(rng) -> DistanceMatrix:
    """Distances whose -D entries alternate between runs at or above the
    cut and runs below it, of every length from 1 to 17, and include values
    within a few ulps of the cut and of log(tiny). The matrix is a Hankel
    matrix, D[i, j] = g[i + j], so each row meets the runs at another
    offset."""
    near = [np.nextafter(v, direction) for v in (-_CUT, -_LOG_TINY)
            for direction in (0.0, np.inf)] + [-_CUT, -_LOG_TINY]
    # runs where exp is evaluated, then as many where it is skipped
    g = np.concatenate([rng.uniform(low, high, size=length) for length in range(1, 18)
                        for low, high in ((0.0, -_CUT), (-_CUT, 800.0))])
    g[::7] = np.resize(near, g[::7].size)
    m = (len(g) + 1) // 2
    values = g[np.add.outer(np.arange(m), np.arange(m))]
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values, point_ids=np.arange(m))


@pytest.mark.parametrize("s", [1.0, 0.5, 3.0])
def test_similarity_matrix_is_bit_identical_across_the_cut(rng, s):
    dist = _straddling_distances(rng)
    dist = DistanceMatrix(values=dist.values / s, point_ids=dist.point_ids)
    z = similarity_matrix(dist, s)
    reference = reference_similarity_matrix(dist, s)
    assert z.tobytes() == reference.tobytes()
    assert 0.2 < np.count_nonzero(z == 0.0) / z.size < 0.8


@functools.cache
def _task_distances(kind: str) -> DistanceMatrix:
    task, data, _ = make_task_and_data(kind, 40, 4, seed=1, hidden=3)
    traj = projected_sgd(task, data, SGDConfig(radius=10.0, step=0.05, iterations=600, seed=1))
    return distance_matrix(subsample_uniform(traj, 160, seed=1))


# a scale as a multiple of 1 / (a quantile of the off-diagonal distances),
# and the share of Z's entries that then underflow to zero
_UNDERFLOW_CASES = {
    "none": (700.0, 1.0, (0.0, 0.0)),
    "some": (745.0, 0.5, (0.2, 0.8)),
    "nearly_all": (745.0, 0.01, (0.95, 1.0)),
}


@pytest.mark.parametrize("solver", ["direct"])
@pytest.mark.parametrize("case", sorted(_UNDERFLOW_CASES))
@pytest.mark.parametrize("kind", ["quadratic", "logistic_regression", "small_mlp"])
def test_weighting_is_bit_identical_to_the_checked_cholesky_solve(monkeypatch, kind, case,
                                                                   solver):
    """The same gamma, residual, pmag and magnitude, to the last bit, as
    exp at every entry and scipy's checked `cho_factor`/`cho_solve`."""
    dist = _task_distances(kind)
    factor, q, (low, high) = _UNDERFLOW_CASES[case]
    off_diagonal = dist.values[~np.eye(len(dist), dtype=bool)]
    s = factor / float(np.quantile(off_diagonal, q))
    zeros = np.count_nonzero(similarity_matrix(dist, s) == 0.0) / off_diagonal.size
    assert low <= zeros <= high
    with monkeypatch.context() as patch:
        patch.setattr(magnitude, "similarity_matrix", reference_similarity_matrix)
        patch.setattr(magnitude, "_solve_direct", lambda z, dist, s, b: reference_solve_direct(
            reference_similarity_matrix(dist, s), b))
        reference = weighting(dist, s, solver=solver)
    sol = weighting(dist, s, solver=solver)
    assert sol.gamma.tobytes() == reference.gamma.tobytes()
    assert sol.residual == reference.residual
    assert (sol.pmag, sol.magnitude) == (reference.pmag, reference.magnitude)


def test_a_weighting_holds_one_matrix_buffer(rng):
    """Z is factored in the buffer that holds it, and the residual rebuilds
    Z 64 rows at a time: one weighting at m = 400 allocates well under two
    m x m float64 arrays."""
    m = 400
    dist = distances_of(rng.standard_normal((m, 3)))
    weighting(dist, 1.0)  # the first solve imports scipy.linalg
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        weighting(dist, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / (8 * m * m) < 1.5


@pytest.fixture(scope="module")
def distances_1500() -> DistanceMatrix:
    return distances_of(np.random.default_rng(20240817).standard_normal((1500, 3)))


def _one_thread_product(z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # a command runs OpenBLAS at one thread outside its solves
    with blas.command_threads():
        return z @ gamma


def test_residual_is_the_one_thread_dense_product(distances_1500):
    """The residual of a direct solve is max|1 - Z gamma| with Z gamma
    formed densely at one BLAS thread, bit for bit; at m = 1500 and s = 1
    the product over the whole matrix at 2 threads differs from it."""
    sol = weighting(distances_1500, 1.0)
    z = reference_similarity_matrix(distances_1500, 1.0)
    one = _one_thread_product(z, sol.gamma)
    if blas.start_threads() == 2:
        assert (z @ sol.gamma).tobytes() != one.tobytes()
    assert sol.residual == float(np.abs(1.0 - one).max())


def test_refinement_reuses_the_factor_left_in_the_buffer(monkeypatch, distances_1500):
    """With the tolerance at 0 the refinement step always runs, and gives
    the refined gamma of scipy's `cho_factor`/`cho_solve` with one-thread
    residuals bit for bit, with that gamma's residual: the residual pass
    leaves the factor in place. Nothing asks the step to lower the
    residual, which on this input depends on the OpenBLAS kernel."""
    import scipy.linalg

    z, b = reference_similarity_matrix(distances_1500, 1.0), np.ones(len(distances_1500))
    factor = scipy.linalg.cho_factor(z)
    gamma = scipy.linalg.cho_solve(factor, b)
    refined = gamma + scipy.linalg.cho_solve(factor, b - _one_thread_product(z, gamma))
    assert refined.tobytes() != gamma.tobytes()
    monkeypatch.setattr(magnitude, "RESIDUAL_TOL", 0.0)
    with blas.command_threads(), blas.full_threads():
        got, residual = magnitude._solve_direct(similarity_matrix(distances_1500, 1.0),
                                                distances_1500, 1.0, b)
    assert got.tobytes() == refined.tobytes()
    assert residual == float(np.abs(b - _one_thread_product(z, refined)).max())


@pytest.mark.parametrize("m", [1, 63, 64, 65, 130, 600])
def test_residual_copies_z_out_of_the_factored_buffer(m):
    """The residual of a solve takes Z's rows from the buffer that holds
    the factor, and gives the bits of the rows rebuilt from the distances."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    dist = distances_of(np.random.default_rng(m).standard_normal((m, 3)))
    z = similarity_matrix(dist, 1.0)
    assert z.min() >= 2.0 ** -511
    factor, info = dpotrf(z.T, lower=0, clean=0, overwrite_a=1)
    assert info == 0
    b = np.ones(m)
    gamma = dpotrs(factor, b)[0]
    got = magnitude._residual(z, gamma, b)
    assert got.tobytes() == rebuilt_rows_residual(dist, 1.0, gamma, b).tobytes()


def test_the_factored_buffer_holds_no_entry_below_the_floor(monkeypatch):
    """A solve zeroes Z's entries below 2^-511 before the factorization, so
    that it multiplies no subnormals; the public Z still keeps them down to
    tiny. On a space where over 30% of Z's entries lie between, gamma and
    the residual are those of scipy's checked solve of the flushed Z, bit
    for bit."""
    import scipy.linalg.lapack

    dist = _task_distances("quadratic")
    off_diagonal = dist.values[~np.eye(len(dist), dtype=bool)]
    s = 400.0 / float(np.quantile(off_diagonal, 0.5))
    z = similarity_matrix(dist, s)
    floor, tiny = 2.0 ** -511, np.finfo(np.float64).tiny
    assert np.count_nonzero((tiny <= z) & (z < floor)) / z.size >= 0.3
    assert np.count_nonzero((0 < z) & (z < tiny)) == 0

    factored = []
    real = scipy.linalg.lapack.dpotrf

    def recording_dpotrf(a, *args, **kwargs):
        factored.append(np.count_nonzero((0 < a) & (a < floor)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", recording_dpotrf)
    sol = weighting(dist, s)
    assert factored == [0]
    gamma, residual = reference_solve_direct(reference_similarity_matrix(dist, s),
                                             np.ones(len(dist)))
    assert sol.gamma.tobytes() == gamma.tobytes()
    assert sol.residual == residual
