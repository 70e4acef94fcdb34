import ctypes
import importlib.machinery
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack
from scipy.linalg import solveh_banded

from bfamily.variational import _dptsv, spd_solve


def random_spd_system(rng, n):
    off = rng.standard_normal(n - 1)
    # strictly diagonally dominant with positive diagonal => SPD
    diag = np.abs(rng.standard_normal(n)) + 1.0
    diag[:-1] += np.abs(off)
    diag[1:] += np.abs(off)
    rhs = rng.standard_normal(n)
    return diag, off, rhs


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1000])
def test_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    diag, off, rhs = random_spd_system(rng, n)
    x = spd_solve(diag, off, rhs)
    a = dense(diag, off)
    assert np.allclose(x, np.linalg.solve(a, rhs), rtol=1e-12, atol=1e-12)
    assert np.allclose(a @ x, rhs, atol=1e-10)


@pytest.mark.parametrize("n", [2, 5, 64, 1000, 4097])
def test_bit_identical_to_banded_reference(n):
    rng = np.random.default_rng(100 + n)
    diag, off, rhs = random_spd_system(rng, n)
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1, :] = diag
    ref = solveh_banded(ab, rhs, lower=False, check_finite=False)
    assert np.array_equal(spd_solve(diag, off, rhs), ref)


@pytest.mark.parametrize(
    "diag, off",
    [
        ([1.0, -2.0, 1.0], [0.0, 0.0]),
        ([1.0, 1.0], [2.0]),  # positive diagonal, negative determinant
        ([-1.0], []),
        ([0.0], []),
    ],
)
def test_rejects_indefinite(diag, off):
    diag, off = np.array(diag), np.array(off)
    with pytest.raises(np.linalg.LinAlgError):
        spd_solve(diag, off, np.ones(diag.shape[0]))


@pytest.mark.parametrize(
    "diag, off, rhs",
    [
        (np.ones(3), np.ones(3), np.ones(3)),
        (np.ones(3), np.ones(1), np.ones(3)),
        (np.ones(3), np.ones(2), np.ones(4)),
        (np.ones(1), np.ones(1), np.ones(1)),
    ],
)
def test_dimension_validation(diag, off, rhs):
    with pytest.raises(ValueError):
        spd_solve(diag, off, rhs)


@pytest.mark.parametrize("n", [1, 64])
def test_inputs_unmodified(n):
    rng = np.random.default_rng(7)
    system = random_spd_system(rng, n)
    copies = [a.copy() for a in system]
    spd_solve(*system)
    for a, before in zip(system, copies):
        assert np.array_equal(a, before)


@pytest.mark.parametrize("n", [2, 4095, 2**16])
def test_overwrite_gives_the_copying_bits(n):
    rng = np.random.default_rng(200 + n)
    system = random_spd_system(rng, n)
    want = spd_solve(*system)
    got = spd_solve(*(a.copy() for a in system), overwrite=True)
    assert np.array_equal(got, want)


class TestGilFreeRoute:
    # spd_solve calls LAPACK's dptsv through ctypes, at the address scipy's
    # f2py wrapper exposes, so that the call releases the GIL.  It must give
    # the bits of the wrapper, which the routine keeps, and keep its in-place
    # contract.
    def test_call_releases_the_gil(self):
        # A CFUNCTYPE function; a PYFUNCTYPE one would hold the GIL.
        assert not type(_dptsv())._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    @pytest.mark.parametrize("n", [2, 3, 4096, 2**16])
    def test_bit_identical_to_the_f2py_wrapper(self, n):
        rng = np.random.default_rng(300 + n)
        system = random_spd_system(rng, n)
        d, e, x, info = _dptsv().wrapper(*system)
        assert info == 0
        assert np.array_equal(spd_solve(*system), x)
        # Overwriting: the solution in rhs itself, the L D L^T factors in
        # diag and off, all the wrapper's bits.
        work = [a.copy() for a in system]
        got = spd_solve(*work, overwrite=True)
        assert got is work[2]
        for a, want in zip(work, (d, e, x)):
            assert np.array_equal(a, want)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_strided_and_other_dtype_inputs_are_solved(self, overwrite):
        rng = np.random.default_rng(11)
        diag, off, rhs = random_spd_system(rng, 65)
        want = spd_solve(diag, off, rhs)
        strided = [np.repeat(a, 2)[::2] for a in (diag, off, rhs)]
        assert not strided[0].flags.c_contiguous
        assert np.array_equal(spd_solve(*strided, overwrite=overwrite), want)
        # float32 and integer inputs are converted to float64 first.
        small = [a.astype(np.float32) for a in (diag, off, rhs)]
        x = spd_solve(*small, overwrite=overwrite)
        assert x.dtype == np.float64
        assert np.array_equal(x, spd_solve(*(a.astype(np.float64) for a in small)))
        ints = np.array([4, 4, 4]), np.array([1, 1]), np.array([1, 2, 3])
        assert np.allclose(dense(*ints[:2]) @ spd_solve(*ints, overwrite=overwrite), ints[2])
        # A read-only array is not overwritten.
        frozen = diag.copy()
        frozen.flags.writeable = False
        assert np.array_equal(spd_solve(frozen, off.copy(), rhs.copy(), overwrite=True), want)
        assert np.array_equal(frozen, diag)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_indefinite_raises(self, overwrite):
        diag, off, rhs = random_spd_system(np.random.default_rng(5), 4096)
        diag[2000] = -1.0
        with pytest.raises(np.linalg.LinAlgError, match="leading minor 2001 "):
            spd_solve(diag, off, rhs, overwrite=overwrite)


@pytest.fixture
def uncached_dptsv():
    # _dptsv keeps the routine it found; these tests look it up afresh and
    # leave nothing of theirs cached.
    _dptsv.cache_clear()
    yield
    _dptsv.cache_clear()


def test_loaded_lapack_module_reused(uncached_dptsv, monkeypatch):
    # This module has imported scipy.linalg, so its LAPACK extension is in
    # sys.modules: the solve takes that one rather than loading it again.
    assert _dptsv().wrapper is scipy.linalg.lapack.dptsv
    _dptsv.cache_clear()
    loaded = types.SimpleNamespace(
        dptsv=types.SimpleNamespace(_cpointer=scipy.linalg.lapack.dptsv._cpointer))
    monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", loaded)
    assert _dptsv().wrapper is loaded.dptsv


def test_missing_scipy_raises_import_error(uncached_dptsv, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(ImportError, match="scipy"):
        _dptsv()


def test_missing_extension_names_the_directory(uncached_dptsv, monkeypatch, tmp_path):
    # scipy's package pointed at an empty directory: the error says where it
    # looked.
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        _dptsv()


def test_extension_found_by_meta_path_finder(uncached_dptsv, monkeypatch, tmp_path):
    # An install whose extensions lie outside the package's directory (an
    # editable install's build tree) is served by its own finder on
    # sys.meta_path, which the lookup asks as the import system would.  The
    # module it loads leaves sys.modules as it found it.
    linalg_dir = str(Path(scipy.linalg.__file__).parent)

    class BuildTreeFinder:
        @staticmethod
        def find_spec(name, path=None, target=None):
            if name == "scipy.linalg._flapack":
                return importlib.machinery.PathFinder.find_spec(name, [linalg_dir])
            return None

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.setattr(sys, "meta_path", [BuildTreeFinder, *sys.meta_path])
    assert _dptsv().wrapper is scipy.linalg.lapack.dptsv
    assert "scipy.linalg._flapack" not in sys.modules
