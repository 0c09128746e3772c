import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cdlab.equivalence import BlockUnitary
from cdlab.errors import (InvalidArgumentError, NumericError,
                          SingularResolventError)
from cdlab.homogeneity import (MobiusMap, WitnessEntry,
                               homogeneity_condition_check,
                               mobius_block_identity_check, mobius_images,
                               mobius_sample_set, thm45_condition_check)
from cdlab.kernels import bergman_kernel
from cdlab.operators import (ModelOperator, UpperTriangularModel,
                             apply_mobius, assemble_model, frobenius,
                             random_operator, shift_from_kernel)

from oracles import dense_block, product_gap_bound, traced_peak

# phi(T) from its blocks (`mobius_images`) against the dense image of the
# assembled T, and its corner against a solved corner, the oracles: a
# relative Frobenius bound.  The images agree to about 2e-16 relative on the
# models below; the corner, which reads D0^{-1} off phi(T0), agrees with the
# solved one to about eps / (1 - |a|^2) of its norm, 1.2e-14 at |a| = 0.99,
# and shrinks with 1 - |a|^2, so the image stays that close as |a| nears 1.
IMAGE_RTOL = 1e-13
EPS = np.finfo(float).eps


def _blocks(model):
    """(T0, C, T1) of a model as matrices, as `mobius_images` takes them."""
    return model.t0.matrix, model.coupling_block, model.t1.matrix


def _assembled(images, k):
    """The 2N x 2N image of map k from the stacks of `mobius_images`."""
    phi_t0s, corners, phi_t1s = images
    return dense_block(phi_t0s[k], corners[k], None, phi_t1s[k])


def _assert_stacks_equal(got, want):
    for got_stack, want_stack in zip(got, want, strict=True):
        np.testing.assert_array_equal(got_stack, want_stack)


def _matrix_power_residuals(model):
    """The oracle: ||T^n - [[T0^n, X T1^n - T0^n X], [0, T1^n]]|| for
    n = 2, 3, 5 from np.linalg.matrix_power on the assembled T."""
    power = np.linalg.matrix_power
    return {n: frobenius(power(model.t, n)
                         - assemble_model(power(model.t0.matrix, n),
                                          power(model.t1.matrix, n),
                                          model.x).t)
            for n in (2, 3, 5)}


def _power_bound(model, n):
    """A bound on the gap between two routes to the power residual n.  It
    is zero in exact arithmetic, and a chain of n - 1 products of 2N x 2N
    factors of T errs by at most about (n - 1) 2N eps ||T||_2^(n-1) ||T||
    in Frobenius norm; the factor 4 covers both routes with room."""
    t = model.t
    return (4 * n * t.shape[0] * EPS * np.linalg.norm(t, 2) ** (n - 1)
            * frobenius(t))


def _random_model(size=6, seed=0, norm=0.5):
    return assemble_model(
        ModelOperator(random_operator(size, seed, norm=norm)),
        ModelOperator(random_operator(size, seed + 1, norm=norm)),
        random_operator(size, seed + 2, norm=norm))


def _paired_diagonal(mobius, seeds):
    entries = []
    for z in seeds:
        entries.extend([z, mobius.scalar(z)])
    return np.diag(np.asarray(entries, dtype=complex))


def _swap_pairs(size):
    perm = np.zeros((size, size), dtype=complex)
    for k in range(0, size, 2):
        perm[k, k + 1] = perm[k + 1, k] = 1.0
    return perm


class TestMobiusMap:
    def test_parameter_validation(self):
        with pytest.raises(InvalidArgumentError):
            MobiusMap(a=1.0)

    @pytest.mark.parametrize("a", [math.nan, complex(0.3, math.nan)],
                             ids=["nan", "complex-nan"])
    def test_nan_parameter_rejected(self, a):
        # abs(nan) >= 1 is False, so the guard must be written as not < 1
        with pytest.raises(InvalidArgumentError, match=r"\|a\| < 1"):
            MobiusMap(a=a)

    def test_sample_set_is_the_documented_twelve(self):
        maps = mobius_sample_set()
        assert len(maps) == 12
        radii = sorted({round(abs(m.a), 10) for m in maps})
        assert radii == [0.2, 0.5, 0.7]
        assert all(m.phase == 0.0 for m in maps)

    def test_scalar_involution(self):
        mob = MobiusMap(a=0.3 + 0.4j)
        z = 0.25 - 0.1j
        assert abs(mob.scalar(mob.scalar(z)) - z) < 1e-14

    def test_inverse_undoes_a_phase(self):
        mob = MobiusMap(a=0.3 - 0.2j, phase=1.3)
        inv = mob.inverse()
        assert inv.a == (0.3 - 0.2j) * np.exp(1.3j)
        assert math.isclose(inv.phase, 2.0 * math.pi - 1.3)
        for z in (0.25 - 0.1j, -0.6j, 0.0):
            assert abs(inv.scalar(mob.scalar(z)) - z) < 1e-14
            assert abs(mob.scalar(inv.scalar(z)) - z) < 1e-14
        # phi(phi(z)) != z once the phase is nonzero
        assert abs(mob.scalar(mob.scalar(0.25 - 0.1j)) - (0.25 - 0.1j)) > 0.1

    def test_inverse_of_phase_free_map_is_the_map(self):
        for mob in mobius_sample_set():
            assert mob.inverse() == mob


class TestBlockIdentity:
    def test_negation_map_exact(self):
        model = _random_model(seed=3)
        result = mobius_block_identity_check(model, MobiusMap(a=0.0))
        assert result.residual < 1e-13

    def test_zero_coupling_block_diagonal_calculus(self):
        t0 = shift_from_kernel(bergman_kernel(1, 6))
        t1 = shift_from_kernel(bergman_kernel(2, 6))
        model = assemble_model(t0, t1, np.zeros((6, 6)))
        mob = MobiusMap(a=0.3 + 0.2j)
        phi_t = mob.of(model.t)
        np.testing.assert_allclose(phi_t[:6, 6:], 0, atol=1e-12)
        np.testing.assert_allclose(phi_t[:6, :6], mob.of(t0.matrix), atol=1e-12)
        np.testing.assert_allclose(phi_t[6:, 6:], mob.of(t1.matrix), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_contractive_blocks(self, seed):
        model = _random_model(size=4, seed=10 * seed)
        mob = MobiusMap(a=0.3 + 0.2j)
        result = mobius_block_identity_check(model, mob)
        assert result.residual <= 1e-10 * frobenius(model.t)
        assert max(result.power_residuals.values()) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 30])
    def test_power_residuals_equal_matrix_power_reference(self, seed):
        # both are rounding noise around an exact 0, so they agree within
        # the rounding bound of either route (`_power_bound`)
        model = _random_model(size=7, seed=seed)
        result = mobius_block_identity_check(model, MobiusMap(a=0.5j))
        reference = _matrix_power_residuals(model)
        assert result.power_residuals.keys() == reference.keys()
        for n, residual in result.power_residuals.items():
            assert abs(residual - reference[n]) <= _power_bound(model, n)

    def test_powers_formed_once_per_model(self, monkeypatch):
        calls = []
        real = UpperTriangularModel.power_residuals.func

        def counted(model):
            calls.append(model.size)
            return real(model)

        counted_property = functools.cached_property(counted)
        counted_property.__set_name__(UpperTriangularModel, "power_residuals")
        monkeypatch.setattr(UpperTriangularModel, "power_residuals",
                            counted_property)
        model = _random_model(size=8, seed=4)
        results = [mobius_block_identity_check(model, mob)
                   for mob in mobius_sample_set()]
        assert calls == [8]
        assert all(r.power_residuals == results[0].power_residuals
                   for r in results)

        fresh = assemble_model(model.t0, model.t1, model.x)
        again = mobius_block_identity_check(fresh, mobius_sample_set()[0])
        assert calls == [8, 8]
        assert again.power_residuals == results[0].power_residuals

    def test_power_residuals_peak_under_eight_blocks(self):
        # the corner recurrence holds T0^n, T1^n, C_n and two temporaries,
        # all N x N; the assembled route held about 18 blocks
        size = 240
        t0 = shift_from_kernel(bergman_kernel(1, size))
        t1 = shift_from_kernel(bergman_kernel(2, size))
        model = assemble_model(t0, t1, random_operator(size, 3, norm=0.5))
        peak = traced_peak(lambda: model.power_residuals)
        assert peak < 8 * 16 * size ** 2
        assert "t" not in vars(model)

    def test_per_map_calls_equal_one_call_for_all_maps(self):
        maps = mobius_sample_set()
        model = _random_model(size=7, seed=9)
        # a second model with equal blocks, so neither call reuses the other's cache
        together = mobius_block_identity_check(
            _random_model(size=7, seed=9), maps)
        apart = [mobius_block_identity_check(model, mob) for mob in maps]
        assert [r.residual for r in apart] == together.residuals
        _assert_stacks_equal(
            [np.concatenate(stacks) for stacks in zip(*(r.images for r in apart))],
            together.images)
        assert all(r.power_residuals == together.power_residuals for r in apart)

    def test_single_map_result_is_a_stack_of_one(self):
        model = _random_model(seed=5)
        mob = MobiusMap(a=0.3 + 0.2j, phase=0.4)
        result = mobius_block_identity_check(model, mob)
        assert result.residuals == [result.residual]
        assert [stack.shape for stack in result.images] == [(1, 6, 6)] * 3
        dense = mob.of(model.t)
        assert frobenius(_assembled(result.images, 0) - dense) \
            <= IMAGE_RTOL * frobenius(dense)
        listed = mobius_block_identity_check(model, [mob])
        assert listed.residuals == result.residuals
        _assert_stacks_equal(listed.images, result.images)
        assert listed.power_residuals == result.power_residuals

    def test_no_maps_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mobius_block_identity_check(_random_model(), [])

    def test_involution_on_assembled_matrix(self):
        model = _random_model(seed=21)
        for mob in mobius_sample_set():
            twice = apply_mobius(apply_mobius(model.t, mob.a, mob.phase),
                                 mob.a, mob.phase)
            assert frobenius(twice - model.t) <= 1e-9


class TestStackedSweep:
    """The sweep over many maps against a per-map reference built from
    np.linalg.matrix_power and single apply_mobius calls on the assembled T,
    each within a stated bound, and against one call per map, exactly."""

    MAPS = mobius_sample_set() + [MobiusMap(a=0.3 - 0.2j, phase=1.3),
                                  MobiusMap(a=-0.6j, phase=5.9)]

    @pytest.mark.parametrize("size,seed", [(6, 0), (6, 40), (9, 7), (120, 3)])
    def test_sweep_matches_per_map_reference(self, size, seed):
        model = _random_model(size=size, seed=seed)
        t0, t1, x = model.t0.matrix, model.t1.matrix, model.x
        result = mobius_block_identity_check(model, self.MAPS)

        images = [apply_mobius(model.t, m.a, m.phase) for m in self.MAPS]
        residuals = [frobenius(image - assemble_model(
            apply_mobius(t0, m.a, m.phase), apply_mobius(t1, m.a, m.phase), x).t)
            for image, m in zip(images, self.MAPS)]

        # the residuals measure the same corner formula against images that
        # differ by at most IMAGE_RTOL ||phi(T)||, so (triangle inequality)
        # they differ by at most that much too
        for k, (image, residual, want) in enumerate(zip(images, result.residuals,
                                                        residuals)):
            got = _assembled(result.images, k)
            assert frobenius(got - image) <= IMAGE_RTOL * frobenius(image)
            assert abs(residual - want) <= IMAGE_RTOL * frobenius(image)
        assert result.residual == max(result.residuals)
        reference = _matrix_power_residuals(model)
        for n, residual in result.power_residuals.items():
            assert abs(residual - reference[n]) <= _power_bound(model, n)
        apart = [mobius_block_identity_check(model, mob) for mob in self.MAPS]
        assert [r.residual for r in apart] == result.residuals
        _assert_stacks_equal(
            [np.concatenate(stacks) for stacks in zip(*(r.images for r in apart))],
            result.images)

    def test_involution_of_the_image_stack(self):
        model = _random_model(seed=21)
        result = mobius_block_identity_check(model, self.MAPS)
        twice = mobius_images(result.images, self.MAPS)
        t_norm = frobenius(model.t)
        for k, mob in enumerate(self.MAPS):
            # the stacked map-back equals the map-back of each image alone
            _assert_stacks_equal(
                (stack[k:k + 1] for stack in twice),
                mobius_images([stack[k] for stack in result.images], [mob]))
            # the images are within IMAGE_RTOL of the dense ones, and phi
            # moves that gap by a factor of order one at |a| <= 0.7
            dense = apply_mobius(apply_mobius(model.t, mob.a, mob.phase),
                                 mob.a, mob.phase)
            back = _assembled(twice, k)
            assert frobenius(back - dense) <= 10 * IMAGE_RTOL * t_norm
            if mob.phase == 0.0:  # only then is phi its own inverse
                assert frobenius(back - model.t) <= 1e-9

    def test_inverse_maps_give_back_the_blocks(self):
        # what the mobius-block scenario's involution checks, phase or not
        model = _random_model(seed=21)
        result = mobius_block_identity_check(model, self.MAPS)
        back = mobius_images(result.images, [m.inverse() for m in self.MAPS])
        t_norm = frobenius(model.t)
        for stack, block in zip(back, _blocks(model), strict=True):
            gaps = np.linalg.norm(stack - block, axis=(1, 2))
            assert gaps.max() <= 1e-12 * t_norm


def _exact(mat):
    return [[Fraction(int(v)) for v in row] for row in np.asarray(mat).real]


def _exact_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _exact_power(a, n):
    out = [[Fraction(int(i == j)) for j in range(len(a))] for i in range(len(a))]
    for _ in range(n):
        out = _exact_product(out, a)
    return out


class TestPowerResidualsExact:
    """Integer blocks with entries in -3..3 at N = 4 keep every product and
    sum exact in float64, so the corner recurrence is checked exactly
    against Fraction arithmetic."""

    SIZE = 4

    def _model(self, seed):
        rng = np.random.default_rng(seed)
        t0, t1, x, delta = (rng.integers(-3, 4, (self.SIZE, self.SIZE))
                            for _ in range(4))
        return assemble_model(t0, t1, x), delta

    @pytest.mark.parametrize("seed", range(3))
    def test_integer_model_reads_zero(self, seed):
        model, _ = self._model(seed)
        assert model.power_residuals == {2: 0.0, 3: 0.0, 5: 0.0}

    @pytest.mark.parametrize("seed", range(3))
    def test_moved_coupling_reads_the_exact_corner_shift(self, seed):
        # with C + D in place of C the corner of T^n moves by
        # sum_k T0^k D T1^(n-1-k), and X T1^n - T0^n X does not move
        model, delta = self._model(seed)
        moved = UpperTriangularModel(t0=model.t0, t1=model.t1, x=model.x,
                                     coupling_block=model.coupling_block + delta)
        t0, t1, d = _exact(model.t0.matrix), _exact(model.t1.matrix), _exact(delta)
        for n, residual in moved.power_residuals.items():
            shift = [[Fraction(0)] * self.SIZE for _ in range(self.SIZE)]
            for k in range(n):
                term = _exact_product(_exact_product(_exact_power(t0, k), d),
                                      _exact_power(t1, n - 1 - k))
                shift = [[p + q for p, q in zip(r, s)] for r, s in zip(shift, term)]
            squares = sum(v * v for row in shift for v in row)
            assert squares > 0
            assert residual == math.sqrt(squares)


# the size of a coupling perturbation, far above rounding and far below 1
DELTA = 1e-6


def _perturbed(model, delta, seed=99):
    """`model` with its coupling block moved by delta P, ||P|| = 1, off
    X T1 - T0 X."""
    p = random_operator(model.size, seed)
    p /= frobenius(p)
    return UpperTriangularModel(t0=model.t0, t1=model.t1, x=model.x,
                                coupling_block=model.coupling_block + delta * p), p


def _corner_shift(mob, model, p):
    """E(C + P) - E(C) = E(P) for the corner E(C) = D0^{-1} C (conj(a)
    phi(T1) - e^{i phase} I), which is -e^{i phase} (1 - |a|^2) D0^{-1} C
    D1^{-1} and so linear in C; taken from dense inverses."""
    eye = np.eye(model.size)
    d0_inv, d1_inv = (np.linalg.inv(eye - np.conj(mob.a) * t.matrix)
                      for t in (model.t0, model.t1))
    return (-np.exp(1j * mob.phase) * (1.0 - abs(mob.a) ** 2)
            * (d0_inv @ p @ d1_inv))


class TestMobiusImages:
    """The one phi(T) route: the corner comes from the coupling block, so a
    coupling that is not X T1 - T0 X fails the block identity."""

    def test_perturbed_coupling_fails_the_block_identity(self):
        model = _random_model(size=8, seed=12)
        maps = mobius_sample_set() + [MobiusMap(a=0.3 - 0.2j, phase=1.3)]
        assert mobius_block_identity_check(model, maps).residual <= 1e-14
        bad, p = _perturbed(model, DELTA)
        result = mobius_block_identity_check(bad, maps)
        for mob, residual in zip(maps, result.residuals):
            # the corner moves by delta times the closed-form shift, and
            # 1/4 <= ||shift|| <= 4 for blocks of 2-norm 0.5 and |a| <= 0.7
            want = DELTA * frobenius(_corner_shift(mob, model, p))
            assert abs(residual - want) <= 1e-8 * want
            assert DELTA / 4 <= residual <= 4 * DELTA
        assert result.residual > 1e-10 * frobenius(bad.t)

    @pytest.mark.parametrize("block", ["t0", "t1"])
    def test_singular_resolvent_names_the_map(self, block):
        # Di = I - conj(a) Ti vanishes at Ti = 2 I and a = 0.5, map 2
        eye = np.eye(4, dtype=complex)
        blocks = {"t0": 0.3 * eye, "t1": 0.3 * eye, block: 2.0 * eye}
        model = assemble_model(ModelOperator(blocks["t0"]),
                               ModelOperator(blocks["t1"]), eye)
        maps = [MobiusMap(a=0.1), MobiusMap(a=0.3j), MobiusMap(a=0.5),
                MobiusMap(a=0.2)]
        with pytest.raises(SingularResolventError,
                           match=r"of map 2 \(a = 0\.5\+0j\)"):
            mobius_images(_blocks(model), maps)
        with pytest.raises(SingularResolventError, match="of map 2"):
            mobius_block_identity_check(model, maps)


class TestHomogeneityWitness:
    def _setup(self):
        mob = MobiusMap(a=0.4)
        diag = _paired_diagonal(mob, [0.2, -0.3, 0.1 + 0.2j])
        perm = _swap_pairs(6)
        x = np.eye(6, dtype=complex) + 0.5 * perm
        model = assemble_model(ModelOperator(diag), ModelOperator(diag), x)
        return mob, model, perm

    def test_engineered_witness_passes(self):
        mob, model, perm = self._setup()
        witness = [WitnessEntry(mobius=mob, u0=perm, u1=perm)]
        report = homogeneity_condition_check(model, witness, tol=1e-10)
        assert report.overall
        assert report.info["sampled_maps"] == 1

    def test_commutation_violation_detected(self):
        mob, model, perm = self._setup()
        # a witness pair that conjugates correctly but breaks U0 X = X U1
        phase = np.exp(0.3j)
        witness = [WitnessEntry(mobius=mob, u0=perm, u1=phase * perm)]
        report = homogeneity_condition_check(model, witness, tol=1e-10)
        assert report.condition("map0-conjugate-t0").passed
        assert report.condition("map0-conjugate-t1").passed
        assert not report.condition("map0-commutation").passed
        assert not report.overall

    def test_wrong_map_fails_conjugation(self):
        mob, model, perm = self._setup()
        other = MobiusMap(a=0.5)
        witness = [WitnessEntry(mobius=other, u0=perm, u1=perm)]
        report = homogeneity_condition_check(model, witness, tol=1e-10)
        assert not report.condition("map0-conjugate-t0").passed

    def test_perturbed_coupling_fails_homogeneity_assembled(self):
        mob, model, perm = self._setup()
        witness = [WitnessEntry(mobius=mob, u0=perm, u1=perm)]
        bad, p = _perturbed(model, DELTA)
        report = homogeneity_condition_check(bad, witness, tol=1e-10)
        for name in ("conjugate-t0", "conjugate-t1", "commutation"):
            assert report.condition(f"map0-{name}").passed
        assembled = report.condition("map0-assembled")
        assert not assembled.passed
        # U T - phi(T) U moves only in its corner, by delta (U0 P - shift U1)
        want = DELTA * frobenius(perm @ p
                                      - _corner_shift(mob, model, p) @ perm)
        assert abs(assembled.residual - want) <= 1e-8 * want
        assert DELTA / 4 <= assembled.residual <= 4 * DELTA

    def test_many_witness_maps_match_a_per_map_reference(self):
        mob, model, perm = self._setup()
        maps = [mob, MobiusMap(a=0.5), MobiusMap(a=0.4, phase=0.7)]
        witness = [WitnessEntry(mobius=m, u0=perm, u1=perm) for m in maps]
        report = homogeneity_condition_check(model, witness, tol=1e-10)
        zero = np.zeros((6, 6))
        u_full = np.block([[perm, zero], [zero, perm]])
        for idx, m in enumerate(maps):
            t0 = model.t0.matrix
            assert report.condition(f"map{idx}-conjugate-t0").residual == \
                frobenius(perm @ t0 @ perm.conj().T - m.of(t0))
            # taken block by block, so equal to the dense product up to rounding
            assert abs(report.condition(f"map{idx}-assembled").residual
                       - frobenius(u_full @ model.t - m.of(model.t) @ u_full)) \
                <= 1e-14 * frobenius(model.t)
        assert report.condition("map0-assembled").passed
        assert not report.condition("map1-assembled").passed

    def test_no_witness_rejected(self):
        _, model, _ = self._setup()
        with pytest.raises(InvalidArgumentError):
            homogeneity_condition_check(model, [], tol=1e-10)

    def test_non_unitary_witness_rejected(self):
        mob, _, perm = self._setup()
        with pytest.raises(NumericError):
            WitnessEntry(mobius=mob, u0=2.0 * perm, u1=perm)


def _corollary_unitary(size, theta=0.0):
    eye = np.eye(size, dtype=complex)
    half = math.sqrt(2) / 2
    return BlockUnitary(u00=half * np.exp(1j * theta) * eye,
                        u01=half * np.exp(1j * theta) * eye,
                        u10=half * eye, u11=-half * eye)


class TestThm45:
    def _engineered(self, theta=0.0, size=12, a=0.35 + 0.1j):
        mob = MobiusMap(a=a)
        t1 = shift_from_kernel(bergman_kernel(2, size))
        t0 = ModelOperator(mob.of(t1.matrix))
        model = assemble_model(t0, t1, np.eye(size, dtype=complex))
        return mob, model, _corollary_unitary(size, theta)

    def test_engineered_construction_passes(self):
        mob, model, unitary = self._engineered()
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        assert report.overall
        assert report.condition("gram-u10").residual <= 1e-12
        assert report.condition("block-u00-xu10").residual <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4])
    def test_end_to_end_agrees_with_dense(self, theta):
        # both products are taken block by block, and phi(T) by block
        # back-substitution, which agrees with the dense image to 1e-13
        # relative (test_block_image_matches_the_dense_image); U is unitary,
        # so that gap moves the residual by at most 1e-13 ||phi(T)||
        mob, model, unitary = self._engineered(theta=theta)
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        u, phi_t = dense_block(*unitary.blocks), mob.of(model.t)
        dense = frobenius(u @ model.t - phi_t @ u)
        bound = (product_gap_bound(model.size, (u, model.t), (phi_t, u))
                 + 1e-13 * frobenius(phi_t))
        assert abs(report.condition("end-to-end").residual - dense) <= bound

    def test_phase_mismatch_breaks_block_relations(self):
        mob, model, unitary = self._engineered(theta=math.pi / 4)
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        assert not report.condition("block-u00-xu10").passed
        assert not report.condition("end-to-end").passed

    def test_norm_consistency_bound(self):
        # the Gram relation forces ||U10|| ||(1+XX*)^(1/2)|| >= 1
        mob, model, unitary = self._engineered()
        x = model.x
        gram_root = np.linalg.cholesky(np.eye(12) + x @ x.conj().T)
        product = (np.linalg.norm(unitary.u10, 2)
                   * np.linalg.norm(gram_root, 2))
        assert product >= 1.0 - 1e-12

    def test_singular_u10_indeterminate(self):
        size = 4
        z = np.zeros((size, size))
        unitary = BlockUnitary(u00=np.eye(size), u01=z, u10=z, u11=np.eye(size))
        mob = MobiusMap(a=0.2)
        t1 = shift_from_kernel(bergman_kernel(1, size))
        model = assemble_model(ModelOperator(mob.of(t1.matrix)), t1,
                               np.eye(size, dtype=complex))
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        assert report.condition("corner-intertwine-u10").status == "indeterminate"
        assert not report.overall

    def test_zero_on_a_real_diagonal_u10_indeterminate(self, monkeypatch):
        # U = [[C, -S], [S, C]] is unitary with U10 = S singular: 1 / 0 is
        # never taken, and no LU either
        size = 4
        sines = np.array([0.0, 0.5, 0.7, 0.9])
        s_mat = np.diag(sines).astype(complex)
        c_mat = np.diag(np.sqrt(1.0 - sines ** 2)).astype(complex)
        unitary = BlockUnitary(u00=c_mat, u01=-s_mat, u10=s_mat, u11=c_mat)
        mob = MobiusMap(a=0.2)
        t1 = shift_from_kernel(bergman_kernel(1, size))
        model = assemble_model(ModelOperator(mob.of(t1.matrix)), t1,
                               np.eye(size, dtype=complex))
        monkeypatch.setattr(np.linalg, "inv", None)
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        cond = report.condition("corner-intertwine-u10")
        assert cond.status == "indeterminate"
        assert report.info["u10_condition_1norm"] == math.inf
        assert not report.overall

    def test_near_singular_u10_indeterminate(self):
        # U = [[C, -S], [S, C]] is unitary with U10 = S of condition 9e12:
        # invertible, but above the cap
        size = 4
        sines = np.array([1e-13, 0.5, 0.7, 0.9])
        s_mat = np.diag(sines).astype(complex)
        c_mat = np.diag(np.sqrt(1.0 - sines ** 2)).astype(complex)
        unitary = BlockUnitary(u00=c_mat, u01=-s_mat, u10=s_mat, u11=c_mat)
        mob = MobiusMap(a=0.2)
        t1 = shift_from_kernel(bergman_kernel(1, size))
        model = assemble_model(ModelOperator(mob.of(t1.matrix)), t1,
                               np.eye(size, dtype=complex))
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        cond = report.condition("corner-intertwine-u10")
        assert cond.status == "indeterminate"
        assert "1-norm condition number" in cond.detail
        assert report.info["u10_condition_1norm"] == pytest.approx(9e12)
        assert "u10_condition" not in report.info

    def test_reports_one_norm_condition_of_u10(self):
        mob, model, unitary = self._engineered()
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        assert report.info["u10_condition_1norm"] == pytest.approx(1.0)

    @pytest.mark.parametrize("size", [6, 40])
    @pytest.mark.parametrize("radius", [0.2, 0.7, 0.95, 0.999999])
    @pytest.mark.parametrize("phase", [0.0, 1.3])
    def test_block_image_matches_the_dense_image(self, size, radius, phase):
        mob = MobiusMap(a=radius * np.exp(0.9j), phase=phase)
        model = _random_model(size, seed=size)
        dense = mob.of(model.t)
        got = _assembled(mobius_images(_blocks(model), [mob]), 0)
        assert frobenius(got - dense) <= IMAGE_RTOL * frobenius(dense)

    @pytest.mark.parametrize("size", [6, 40, 120])
    @pytest.mark.parametrize("radius", [0.2, 0.7, 0.95, 0.99])
    @pytest.mark.parametrize("phase", [0.0, 1.3])
    def test_corner_matches_the_solved_corner(self, size, radius, phase):
        # the oracle solves D0 E = C (conj(a) phi(T1) - e^{i phase} I);
        # the corner takes D0^{-1} from phi(T0) instead
        mob = MobiusMap(a=radius * np.exp(0.9j), phase=phase)
        model = _random_model(size, seed=size)
        t0, coupling, t1 = _blocks(model)
        conj_a = np.conj(mob.a)
        want = np.linalg.solve(
            np.eye(size) - conj_a * t0,
            conj_a * (coupling @ mob.of(t1)) - np.exp(1j * mob.phase) * coupling)
        corner = mobius_images(_blocks(model), [mob])[1][0]
        assert frobenius(corner - want) <= IMAGE_RTOL * frobenius(want)

    @pytest.mark.parametrize("phase", [0.0, 0.8])
    def test_blocks_equal_the_single_map_formula(self, phase):
        # E = (I - conj(a) e^{-i phase} phi(T0))
        #     (conj(a) C phi(T1) - e^{i phase} C) / (1 - |a|^2)
        mob, model, _ = self._engineered(size=40)
        mob = MobiusMap(a=mob.a, phase=phase)
        t0, coupling = model.t0.matrix, model.coupling_block
        phi_t0, phi_t1 = mob.of(t0), mob.of(model.t1.matrix)
        conj_a, rotation = np.conj(mob.a), np.exp(1j * mob.phase)
        corner = ((np.eye(model.size) - conj_a * np.conj(rotation) * phi_t0)
                  @ (conj_a * (coupling @ phi_t1) - rotation * coupling)
                  / (1.0 - np.abs(mob.a) ** 2))
        for stack, want in zip(mobius_images(_blocks(model), [mob]),
                               (phi_t0, corner, phi_t1)):
            assert stack.shape == (1, 40, 40)
            np.testing.assert_array_equal(stack[0], want)

    @pytest.mark.parametrize("maps", [[MobiusMap(a=0.35 + 0.1j, phase=0.8)],
                                      mobius_sample_set()],
                             ids=["one-map", "sample-set"])
    def test_two_solves_both_in_apply_mobius(self, monkeypatch, maps):
        callers = []

        def record(*args, _solve=np.linalg.solve, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", record)
        mobius_images(_blocks(_random_model(20, seed=3)), maps)
        assert callers == ["apply_mobius", "apply_mobius"]

    def test_solves_and_inverts_no_2n_system(self, monkeypatch):
        size = 60
        mob, model, unitary = self._engineered(size=size)
        shapes = []
        for name in ("solve", "inv"):
            def record(mat, *args, _call=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(mat))
                return _call(mat, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, record)
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        assert report.overall
        assert shapes and all(shape[-2:] == (size, size) for shape in shapes)

    def test_identity_coupling_takes_no_inverse_and_two_solves(self,
                                                               monkeypatch):
        # at X = I every block of U is a real diagonal: U10's guard and the
        # Gram inverses are 1 / d, and only phi(T0) and phi(T1) are solved
        mob, model, unitary = self._engineered(size=24)
        callers = {"solve": [], "inv": []}
        for name in callers:
            def record(*args, _call=getattr(np.linalg, name),
                       _calls=callers[name], **kwargs):
                _calls.append(sys._getframe(1).f_code.co_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, record)
        report = thm45_condition_check(unitary, model, mob, tol=1e-10)
        assert report.overall
        assert callers == {"solve": ["apply_mobius", "apply_mobius"], "inv": []}

    def test_peak_under_eight_blocks(self):
        # U T - phi(T) U is reduced one N x N block at a time beside the
        # three blocks of phi(T), never as two whole block products
        size = 240
        mob, model, unitary = self._engineered(size=size)
        peak = traced_peak(lambda: thm45_condition_check(unitary, model, mob,
                                                         tol=1e-10))
        assert peak < 8 * 16 * size ** 2

    def test_singular_diagonal_resolvent_is_refused(self):
        # D0 = I - conj(a) T0 vanishes at T0 = 2 I and a = 0.5
        size = 4
        eye = np.eye(size, dtype=complex)
        model = assemble_model(ModelOperator(2.0 * eye),
                               ModelOperator(0.3 * eye), eye)
        with pytest.raises(SingularResolventError, match="a = 0.5"):
            thm45_condition_check(_corollary_unitary(size), model,
                                  MobiusMap(a=0.5), tol=1e-10)
