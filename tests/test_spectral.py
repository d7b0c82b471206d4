import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_reference

from qop import _eig, spectral
from qop.errors import DomainError, PreconditionError, ShapeError, StructureError
from qop.generators import (ginibre, hermitian, near_normal, normal_with_spectrum,
                            partial_isometry, positive, random_unitary)
from qop.linalg import QMatrix, _from_psi, embed_chi
from qop.quaternion import I, J, K, Quaternion
from qop.spectral import (CLUSTER_TOL, delta_q, eigh_q, fun_calc, is_psd, kernel_basis,
                          power_psd, rayleigh_bounds, spherical_eigenspace,
                          spherical_point_spectrum, spherical_spectrum, standard_eigenvalues)


def test_eigh_q_matches_numpy_on_embedding():
    for n in (2, 3, 5):
        t = hermitian(n, seed=400 + n)
        sys = eigh_q(t)
        ref = np.linalg.eigvalsh(embed_chi(t))
        # the embedding doubles every eigenvalue
        doubled = np.repeat(np.array(sys.eigenvalues), 2)
        assert np.allclose(np.sort(doubled), ref,
                           atol=1e-10 * max(1.0, np.abs(ref).max()))


def test_eigh_q_invariants():
    t = hermitian(4, seed=410)
    sys = eigh_q(t)
    v = sys.vectors
    scale = max(1.0, t.frobenius())
    recon = sys.reconstruct()
    assert (recon - t).frobenius() <= 1e-9 * scale
    gram = v.H @ v
    assert (gram - QMatrix.identity(4)).frobenius() <= 1e-8
    # columns are genuine right eigenvectors for real eigenvalues
    for idx, lam in enumerate(sys.eigenvalues):
        col = v.column(idx)
        assert ((t @ col) - col * Quaternion.from_real(lam)).norm() <= 1e-8 * scale


def test_eigh_q_rejects_nonhermitian():
    with pytest.raises(PreconditionError):
        eigh_q(ginibre(3, seed=420))


def test_eigh_q_diagonal_exact():
    t = QMatrix.diag([2.0, -1.0, 7.0])
    sys = eigh_q(t)
    assert sys.eigenvalues == (-1.0, 2.0, 7.0)


def test_not_selfadjoint_message_is_unchanged():
    a = ginibre(3, seed=421)
    with pytest.raises(PreconditionError) as err:
        eigh_q(a)
    assert str(err.value) == (
        f"operator is not self-adjoint (deviation {(a - a.H).frobenius():.3e})")


@pytest.mark.parametrize("big", [1e155, 1e200])
def test_selfadjointness_is_decided_where_the_squares_overflow(big):
    # ||x - x*||_F and ||x||_F both overflow here, and inf > 1e-8 * inf is
    # false: the check compares them of x scaled by its largest entry
    upper = QMatrix.from_quaternions([[0.0, big], [0.0, 0.0]])
    sym = QMatrix.from_quaternions([[big, big], [big, 0.0]])
    # a skew part 1e-10 of the entries passes, 1e-5 of them does not
    near = QMatrix.from_quaternions([[big, big], [big * (1.0 + 1e-10), 0.0]])
    far = QMatrix.from_quaternions([[big, big], [big * (1.0 + 1e-5), 0.0]])
    for bad in (upper, far):
        assert math.isinf(bad.frobenius())
        for call in (lambda: is_psd(bad), lambda: eigh_q(bad), lambda: rayleigh_bounds(bad)):
            with pytest.raises(PreconditionError, match=r"not self-adjoint \(deviation"):
                call()
    for good in (sym, near):
        spectral._require_selfadjoint(good)
    # the stacked check of a batch decides each row as the lone one does
    stack = [upper, sym, near, far]
    errors = spectral._selfadjoint_errors(np.stack([x._a for x in stack]),
                                          np.stack([x._b for x in stack]))
    assert [type(e) for e in errors] == [PreconditionError, type(None), type(None),
                                         PreconditionError]


@pytest.mark.parametrize("c", [1e155, 1e160, 1e200, 1e300])
def test_selfadjoint_operators_whose_squares_overflow_are_accepted(c):
    # ||x||_F^2 overflows, and the complex sum of squares then reads NaN, not
    # inf; the relative deviation is still round-off
    top = eigh_q(normal_with_spectrum([3.0, 2.0, 1.0, 0.5], seed=1) * c).eigenvalues[-1]
    assert top == pytest.approx(3.0 * c, rel=1e-12, abs=0.0)


def test_an_overflowing_deviation_is_reported_as_a_number():
    with pytest.raises(PreconditionError, match=r"^operator is not self-adjoint "
                                                r"\(deviation \d\.\d{3}e\+\d{3}\)$"):
        eigh_q(ginibre(4, seed=1) * 1e160)


def _eager_eigensystem(a):
    """The eager construction the lazy ``vectors`` replaced, kept as the reference."""
    n = a.rows
    m = embed_chi(a)
    w2, v2 = _eig.eigh(0.5 * (m + m.conj().T))
    mids = spectral._pair_real(w2)
    scale = max(1.0, float(np.abs(mids).max(initial=0.0)))
    clusters = [[0]]
    for t in range(1, n):
        if mids[t] - mids[clusters[-1][-1]] <= CLUSTER_TOL * scale:
            clusters[-1].append(t)
        else:
            clusters.append([t])
    eigenvalues, columns = [], []
    for cluster in clusters:
        lam = float(np.mean([mids[t] for t in cluster]))
        eigenvalues.extend([lam] * len(cluster))
        columns.extend(map(_from_psi, spectral._quaternionic_bases(
            v2[None, :, 2 * cluster[0]:2 * cluster[-1] + 2], len(cluster))[0]))
    return tuple(eigenvalues), QMatrix.from_columns(columns)


def _near_tolerance_spectrum():
    """Gaps of 0.5, 0.9 and 1.1 CLUSTER_TOL at scale 2: a cluster of three, then a split."""
    tol = CLUSTER_TOL * 2.0
    return [1.0, 1.0 + 0.5 * tol, 1.0 + 1.4 * tol, 1.0 + 2.5 * tol, 2.0]


def test_lazy_vectors_match_the_eager_construction():
    u = random_unitary(5, seed=437)
    cases = [QMatrix.identity(5), QMatrix.diag([1.0, 1.0, 2.0]),
             QMatrix.diag(_near_tolerance_spectrum()),
             u @ QMatrix.diag(_near_tolerance_spectrum()) @ u.H]
    cases += [hermitian(n, seed=438 + n) for n in (1, 4, 16, 64)]
    for a in cases:
        a = 0.5 * (a + a.H)
        eigenvalues, vectors = _eager_eigensystem(a)
        sys = eigh_q(a)
        assert sys.eigenvalues == eigenvalues
        assert sys.vectors.equals_exact(vectors)
    # the near-tolerance spectrum exercises both sides of the cluster test
    lam = eigh_q(QMatrix.diag(_near_tolerance_spectrum())).eigenvalues
    assert lam[0] == lam[1] == lam[2] != lam[3] != lam[4]


def test_vectors_are_pulled_back_on_first_read_only(monkeypatch):
    calls = []
    real = spectral._quaternionic_bases
    monkeypatch.setattr(spectral, "_quaternionic_bases",
                        lambda v, need: calls.append(need) or real(v, need))
    t = 0.5 * (positive(4, seed=439) + QMatrix.identity(4))
    a = QMatrix.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    sys_t, sys_a = eigh_q(t), eigh_q(a)
    sys_t.power_psd(0.5)
    power_psd(t, 2.0)
    is_psd(t)
    fun_calc(a, np.exp)
    sys_a.reconstruct()
    assert calls == []
    # one pull-back per cluster on the first read, none on the next
    v = sys_a.vectors
    assert calls == [2, 1, 3]
    assert sys_a.vectors is v
    assert calls == [2, 1, 3]


def test_power_psd_cube_root_roundtrip():
    t = positive(4, seed=430)
    r = power_psd(t, 1.0 / 3.0)
    cubed = r @ r @ r
    assert (cubed - t).frobenius() <= 1e-7 * max(1.0, t.frobenius())


def test_power_psd_zero_power_is_identity():
    t = positive(3, seed=431)
    assert (power_psd(t, 0.0) - QMatrix.identity(3)).frobenius() <= 1e-12


def test_power_psd_domain_errors():
    t = positive(3, seed=432)
    with pytest.raises(DomainError):
        power_psd(t, -0.5)
    neg = QMatrix.diag([1.0, -2.0])
    with pytest.raises(DomainError):
        power_psd(neg, 0.5)


def test_power_psd_rejects_nonfinite_exponents():
    # 1.0 ** nan and 1.0 ** inf are 1.0, and a zero eigenvalue takes no
    # power: no weight turns non-finite, yet the exponent is not one
    for t in (QMatrix.identity(2), QMatrix.diag([1.0, 0.0]), QMatrix.zeros(2, 2)):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite reals on the spectrum"):
                power_psd(t, bad)
            with pytest.raises(DomainError, match="finite reals on the spectrum"):
                eigh_q(t).power_psd(bad)


def test_power_psd_clamps_roundoff_negatives():
    eps = 1e-12
    t = QMatrix.diag([1.0, -eps])
    r = power_psd(t, 0.5)
    assert abs(r.entry(0, 0).w - 1.0) <= 1e-12
    assert abs(r.entry(1, 1).w) <= 1e-6


def test_psd_weights_take_each_exponent_as_a_scalar():
    # numpy computes a scalar exponent of 0.5 or 2 as sqrt or square and an
    # array of exponents by pow, which moves the last bit of about one weight
    # in twenty; so a table is exact roots and squares, a whole column at a
    # time or one row at a time, whatever the rows around it
    w = np.sort(np.abs(np.random.default_rng(7).standard_normal((16, 8))), axis=1)
    w[3, :2] = 0.0
    grid = spectral._psd_weights(w, [(0.5, 2.0)] * 16)
    rows = spectral._psd_weights(w, [(0.5 + 1.5 * (i % 2),) for i in range(16)])
    assert np.array_equal(grid[:, 0], np.sqrt(w)) and np.array_equal(grid[:, 1], np.square(w))
    assert np.array_equal(rows[0::2, 0], np.sqrt(w[0::2]))
    assert np.array_equal(rows[1::2, 0], np.square(w[1::2]))
    # the clamp is decided per row, and its error names the first failing row
    w[5, 0], w[9, 0] = -1e-3, -2e-3
    with pytest.raises(DomainError, match=r"min eigenvalue -1\.000e-03"):
        spectral._psd_weights(w, [(0.5,)] * 16)


def test_fun_calc_square_matches_product():
    t = hermitian(4, seed=433)
    sq = fun_calc(t, lambda x: x * x)
    assert (sq - t @ t).frobenius() <= 1e-10 * max(1.0, t.frobenius() ** 2)


def test_fun_calc_rejects_nonfinite_values():
    t = QMatrix.diag([1.0, 0.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(DomainError):
            fun_calc(t, lambda x: 1.0 / x)


def test_is_psd_and_rayleigh_bounds():
    t = positive(4, seed=434)
    ok, lo = is_psd(t)
    assert ok and lo >= -1e-10
    s = hermitian(4, seed=435)
    lo_s, hi_s = rayleigh_bounds(s)
    ref = np.linalg.eigvalsh(embed_chi(s))
    assert abs(lo_s - ref[0]) <= 1e-9 * max(1.0, abs(ref[0]))
    assert abs(hi_s - ref[-1]) <= 1e-9 * max(1.0, abs(ref[-1]))
    shifted = s - QMatrix.identity(4) * (lo_s - 1.0)
    ok2, _ = is_psd(shifted)
    assert ok2


def test_delta_q_formula():
    t = ginibre(3, seed=437)
    q = Quaternion(0.5, 1.0, -2.0, 0.25)
    d = delta_q(t, q)
    expect = t @ t - t * (2.0 * q.w) + QMatrix.identity(3) * q.norm_squared()
    assert (d - expect).frobenius() <= 1e-12 * max(1.0, expect.frobenius())


def test_standard_eigenvalues_of_quaternion_diagonal():
    t = QMatrix.diag([Quaternion(1.0, 1.0, 0.0, 0.0), Quaternion(0.0, 0.0, 2.0, 0.0)])
    reps = standard_eigenvalues(t)
    got = sorted(reps, key=lambda z: (z.real, z.imag))
    assert got[0] == pytest.approx(0.0 + 2.0j, abs=1e-10)
    assert got[1] == pytest.approx(1.0 + 1.0j, abs=1e-10)


def test_spherical_spectrum_merges_classes():
    # i and j generate the same similarity class; 2k is a different sphere
    t = QMatrix.diag([I, J, K * Quaternion.from_real(2.0)])
    spec = spherical_spectrum(t)
    assert spec.classes == pytest.approx([1.0j, 2.0j], abs=1e-10)
    assert spec.multiplicities == (2, 1)
    assert spec.radius == pytest.approx(2.0, abs=1e-10)


def test_spectrum_of_antidiagonal_j_example():
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    t = QMatrix.from_quaternions([[zero, J], [-J, zero]])
    spec = spherical_spectrum(t)
    assert spec.classes == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_spherical_point_spectrum_verifies_kernels():
    vals = [Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(0.0, 3.0, 0.0, 0.0)]
    t = normal_with_spectrum(vals, seed=440)
    spec = spherical_point_spectrum(t)
    reps = sorted(spec.classes, key=lambda z: (z.real, z.imag))
    assert reps[0] == pytest.approx(0.0 + 3.0j, abs=1e-8)
    assert reps[1] == pytest.approx(2.0 + 0.0j, abs=1e-8)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_kernel_gaps_sit_at_round_off(n):
    # sigma_min from the SVD is eps-sized on an exact kernel; taken from the
    # eigenvalues of Delta* Delta it reads about 1e-9, their noise floor's root
    t = ginibre(n, seed=1)
    gaps = spectral._kernel_gaps(t, spherical_spectrum(t).classes)
    assert max(gaps) <= 1e-12


def test_repeated_spheres_keep_their_kernels():
    # 3i and -3k share one sphere, and 2 is repeated: both classes have a
    # two-dimensional kernel, whose gap the SVD reads at round-off too
    vals = [Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(2.0, 0.0, 0.0, 0.0),
            Quaternion(0.0, 3.0, 0.0, 0.0), Quaternion(0.0, 0.0, 0.0, -3.0),
            Quaternion(1.0, 0.0, 2.0, 0.0)]
    t = normal_with_spectrum(vals, seed=440)
    spec = spherical_point_spectrum(t)
    assert spec.classes == pytest.approx([3.0j, 1.0 + 2.0j, 2.0], abs=1e-8)
    assert spec.multiplicities == (2, 1, 2)
    assert max(spectral._kernel_gaps(t, spec.classes)) <= 1e-12


def test_a_class_without_kernel_is_a_structure_error(monkeypatch):
    monkeypatch.setattr(spectral, "GAP_TOL", -1.0)
    with pytest.raises(StructureError) as exc:
        spherical_point_spectrum(QMatrix.diag([1.0, 5.0]))
    assert str(exc.value) == "class (1+0j) reported but Delta has no kernel (gap 0.000e+00)"


def test_spherical_eigenspace_of_block_diagonal():
    t = QMatrix.diag([I, J * Quaternion.from_real(2.0)])
    vecs = spherical_eigenspace(t, 1.0j)
    assert len(vecs) == 1
    v = vecs[0]
    # supported on the first coordinate
    assert v[1].norm() <= 1e-8
    assert abs(v.norm() - 1.0) <= 1e-8


def test_spherical_eigenspace_defective_sphere_is_polynomial_kernel():
    # real Jordan block: delta_2 = (T - 2I)^2 = 0, so the kernel is everything
    t = QMatrix.from_quaternions([[2.0, 1.0], [0.0, 2.0]])
    vecs = spherical_eigenspace(t, 2.0 + 0.0j)
    assert len(vecs) == 2


def test_kernel_basis_dimensions():
    t = QMatrix.diag([0.0, 3.0, 0.0])
    ker = kernel_basis(t)
    assert len(ker) == 2
    for v in ker:
        assert (t @ v).norm() <= 1e-10
    assert kernel_basis(QMatrix.identity(3)) == []
    assert len(kernel_basis(ginibre(4, 3, seed=1))) == 0
    with pytest.raises(ShapeError, match="^kernel extraction expects rows >= cols$"):
        kernel_basis(ginibre(3, 4, seed=1))


@pytest.mark.parametrize("rtol", [math.nan, math.inf, -math.inf, -1.0, 1.0])
def test_kernel_basis_rejects_a_cutoff_outside_the_unit_interval(monkeypatch, rtol):
    # NaN compares false with every singular value, so a full-rank operator
    # had a kernel of full dimension; a negative cutoff gave none at any rank
    calls = []
    real = _eig.svd
    monkeypatch.setattr(_eig, "svd", lambda m: calls.append(m.shape) or real(m))
    for t in (ginibre(3, seed=1), QMatrix.diag([0.0, 3.0, 0.0])):
        with pytest.raises(DomainError, match=r"rtol must be finite and lie in \[0, 1\)"):
            kernel_basis(t, rtol=rtol)
    assert calls == []
    # the ends of the interval that are inside it
    assert kernel_basis(ginibre(3, seed=1), rtol=0.0) == []
    assert len(kernel_basis(QMatrix.diag([0.0, 3.0, 0.0]), rtol=math.nextafter(1.0, 0.0))) == 2


def test_eigenvalue_pairing_on_random_hermitian_embeddings():
    for seed in range(441, 447):
        t = hermitian(3, seed=seed)
        sys = eigh_q(t)
        assert len(sys.eigenvalues) == 3
        ref = np.linalg.eigvalsh(embed_chi(t))
        assert np.allclose(ref[0::2], ref[1::2], atol=1e-8 * max(1.0, np.abs(ref).max()))


# Spheres are drawn from a coarse grid of real parts and radii, so two
# eigenvalues share a sphere exactly or sit at least 1 apart; random axes
# make the same sphere show up as different quaternions (i and j, say).
_SPHERE = st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),   # real part
                    st.sampled_from([0.0, 1.0, 2.0]),         # radius
                    st.tuples(*[st.floats(-1.0, 1.0)] * 3))   # axis


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spheres=st.lists(_SPHERE, min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spherical_spectrum_of_rotated_sphere_spectra(spheres, seed):
    vals, want = [], {}
    for w, r, axis in spheres:
        norm = float(np.linalg.norm(axis))
        ux, uy, uz = (a / norm for a in axis) if norm > 1e-3 else (1.0, 0.0, 0.0)
        vals.append(Quaternion(w, r * ux, r * uy, r * uz))
        want[complex(w, r)] = want.get(complex(w, r), 0) + 1
    spec = spherical_spectrum(normal_with_spectrum(vals, seed=seed))
    got = dict(zip(spec.classes, spec.multiplicities))
    assert len(got) == len(want)
    for rep, mult in want.items():
        match = [c for c in got if abs(c - rep) <= 1e-8]
        assert len(match) == 1 and got[match[0]] == mult
    # ordered by real part, then imaginary part, with round-off tied
    for a, b in zip(spec.classes, spec.classes[1:]):
        assert a.real < b.real - 0.5 or (abs(a.real - b.real) <= 1e-8 and a.imag < b.imag)


def test_sphere_spectrum_i_j_2k_on_every_seed():
    vals = [I, J, K * Quaternion.from_real(2.0)]
    for seed in range(40):
        spec = spherical_spectrum(normal_with_spectrum(vals, seed=seed))
        assert spec.classes == pytest.approx([1.0j, 2.0j], abs=1e-10)
        assert spec.multiplicities == (2, 1)


def _repeated_spheres(n, seed):
    """Normal operator whose spheres repeat: each of n // 2 quaternions twice."""
    rs = np.random.default_rng(seed + 100 * n)
    base = [Quaternion(*rs.normal(size=4)) for _ in range(max(1, n // 2))]
    return normal_with_spectrum((base * 2)[:n], seed=seed)


_FAMILIES = {
    "ginibre": lambda n, seed: ginibre(n, seed=seed),
    "random_unitary": lambda n, seed: random_unitary(n, seed=seed),
    "positive": lambda n, seed: positive(n, seed=seed),
    "hermitian": lambda n, seed: hermitian(n, seed=seed),
    "near_normal": lambda n, seed: near_normal(n, 1e-3, seed=seed),
    "partial_isometry": lambda n, seed: partial_isometry(n, n // 3, seed=seed),
    "repeated_spheres": _repeated_spheres,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
def test_spectra_equal_the_per_eigenvalue_reference(n):
    # repr tells -0.0 from 0.0, which == does not
    for name, draw in _FAMILIES.items():
        t = draw(n, 460 + n)
        assert repr(standard_eigenvalues(t)) == repr(spectral_reference.standard_eigenvalues(t)), name
        assert repr(spherical_spectrum(t)) == repr(spectral_reference.spherical_spectrum(t)), name


def _pairs_and_reference(vals):
    vals = np.asarray(vals, dtype=np.complex128)
    got = spectral._conjugate_pairs(vals)
    assert got == spectral_reference.conjugate_pairs(vals)
    return got


def test_conjugate_pairs_fall_back_when_the_nearest_index_is_taken():
    # row 1's nearest conjugate is index 2, which row 0 took: it pairs with 3
    first, second, worst = _pairs_and_reference([1j, 1.1j, -1.05j, -1.2j])
    assert (first, second) == ([0, 1], [2, 3])
    assert worst == abs(-1.2j - np.conj(1.1j))
    # exact ties go to the first free index, real eigenvalues pair with each other
    assert _pairs_and_reference([1j, 1j, -1j, -1j])[:2] == ([0, 1], [2, 3])
    assert _pairs_and_reference([2.0, 2.0, 2.0, 2.0])[:2] == ([0, 2], [1, 3])
    assert _pairs_and_reference([3.0, 1j, 3.0, -1j]) == ([0, 1], [2, 3], 0.0)


def test_conjugate_pairs_equal_the_reference_on_clustered_spectra():
    # a few centres with noise around each conjugate, so rows often find
    # their nearest index taken and the masked search runs
    rng = np.random.default_rng(470)
    fallbacks = 0
    for _ in range(200):
        k = int(rng.integers(1, 40))
        centres = rng.choice([0.5 + 1j, -1 + 0.2j, 2.0 + 0j, 0.3j], size=k)
        noise = 1e-9 * (rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k)))
        vals = np.concatenate([centres + noise[0], np.conj(centres) + noise[1]])
        vals = vals[rng.permutation(vals.size)]
        first, second, _ = _pairs_and_reference(vals)
        dist = np.abs(vals[None, :] - np.conj(vals)[:, None])
        np.fill_diagonal(dist, np.inf)
        fallbacks += sum(int(np.argmin(dist[i])) != j for i, j in zip(first, second))
    assert fallbacks > 0


def test_pairing_failure_message(monkeypatch):
    # a spectrum that is not closed under conjugation: 1j pairs with 1j, 3j with 3j
    # shaped as the solver returns it: a stack of one spectrum for a stack of one
    monkeypatch.setattr(_eig, "eigvals",
                        lambda m: np.array([1j, 1j, 3j, 3j]).reshape(m.shape[:-1]))
    t = QMatrix.identity(2)
    for fn in (standard_eigenvalues, spectral_reference.standard_eigenvalues):
        with pytest.raises(StructureError) as err:
            fn(t)
        assert str(err.value) == (
            "conjugate pairing failure (worst gap 6.000e+00 at scale 3.000e+00)")


def test_eigenvalue_pairing_failure_message(monkeypatch):
    # the lower eigenvalue of each pair of chi(I) moved down by 1e-3, well
    # past PAIR_TOL: the self-adjoint solve reports the gap and the scale
    real = _eig.eigh

    def split(m):
        w, v = real(m)
        w = w.copy()
        w[..., 0::2] -= 1e-3
        return w, v

    monkeypatch.setattr(_eig, "eigh", split)
    with pytest.raises(StructureError) as err:
        eigh_q(QMatrix.identity(2))
    assert str(err.value) == "eigenvalue pairing failure (worst gap 1.000e-03 at scale 1.000e+00)"


@pytest.mark.parametrize("vals", [
    [-0.0 - 1j, -0.0 + 1j, -0.0 + 2j, -0.0 - 2j],
    [-5e-324 - 1j, -0.0 + 1j, 0.0 + 2j, -5e-324 - 2j],
    [-0.0 + 0j, -0.0 - 0j, -0.0 - 0j, 0.0 + 0j],
    [-0.0 + 1j, -0.0 - 1j, -0.0 + 1j, -0.0 - 1j],
])
def test_signed_zeros_equal_the_reference(monkeypatch, vals):
    # the sign of a zero real part in a midpoint, and in a one-member class
    # centre, is the one the per-pair scalar arithmetic and np.mean give
    monkeypatch.setattr(_eig, "eigvals", lambda m: np.array(vals).reshape(m.shape[:-1]))
    t = QMatrix.identity(2)
    assert repr(standard_eigenvalues(t)) == repr(spectral_reference.standard_eigenvalues(t))
    assert repr(spherical_spectrum(t)) == repr(spectral_reference.spherical_spectrum(t))
