"""Problem generation: invariants, decompositions, determinism."""
from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from kqrk.problems import (
    CorruptedProblem,
    GenSpec,
    InvalidSpecError,
    canonical_decomposition,
    generate,
    ordered_magnitude,
)


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            GenSpec(m=5, n=6)
        with pytest.raises(InvalidSpecError):
            GenSpec(m=5, n=2, ensemble="cauchy")
        with pytest.raises(InvalidSpecError):
            GenSpec(m=5, n=2, corruption_scale=-1.0)
        with pytest.raises(Exception):
            GenSpec(m=10, n=2, beta=Fraction(1, 3))

    def test_corrupted_rows(self):
        spec = GenSpec(m=20, n=2, beta=Fraction(1, 5))
        assert spec.corrupted_rows == 4


class TestGenerate:
    def test_invariants(self):
        spec = GenSpec(
            m=40, n=5, beta=Fraction(1, 10), corruption_scale=50.0,
            noise_stddev=2.0, seed=11,
        )
        prob = generate(spec)
        assert prob.system.row_normalized
        assert prob.system.shape == (40, 5)
        np.testing.assert_allclose(prob.system.data @ prob.x_star, prob.b_t, atol=1e-10)
        np.testing.assert_array_equal(prob.b, prob.b_t + prob.eta + prob.xi)
        assert prob.corruption_count() == 4
        assert prob.minimal_beta() == Fraction(1, 10)
        # corruption values land in [0, scale)
        nz = prob.xi[prob.xi != 0]
        assert np.all((nz >= 0) & (nz < 50.0))

    def test_zero_scale_gives_zero_corruption(self):
        spec = GenSpec(m=30, n=3, beta=Fraction(1, 10), corruption_scale=0.0, seed=2)
        prob = generate(spec)
        assert np.count_nonzero(prob.xi) == 0
        assert prob.minimal_beta() == Fraction(0)

    def test_scale_zero_matches_beta_zero_elsewhere(self):
        """Only xi differs between a zero-scale and a corrupted problem."""
        base = dict(m=30, n=3, noise_stddev=1.0, seed=9)
        plain = generate(GenSpec(beta=Fraction(1, 10), corruption_scale=0.0, **base))
        loud = generate(GenSpec(beta=Fraction(1, 10), corruption_scale=80.0, **base))
        np.testing.assert_array_equal(plain.system.data, loud.system.data)
        np.testing.assert_array_equal(plain.x_star, loud.x_star)
        np.testing.assert_array_equal(plain.eta, loud.eta)
        assert not np.array_equal(plain.xi, loud.xi)

    def test_determinism(self):
        spec = GenSpec(m=25, n=4, beta=Fraction(1, 5), corruption_scale=9.0, seed=5)
        p1, p2 = generate(spec), generate(spec)
        np.testing.assert_array_equal(p1.system.data, p2.system.data)
        np.testing.assert_array_equal(p1.b, p2.b)

    def test_seed_changes_output(self):
        s0 = GenSpec(m=25, n=4, seed=0)
        s1 = GenSpec(m=25, n=4, seed=1)
        assert not np.array_equal(generate(s0).b, generate(s1).b)

    def test_uniform_ensemble(self):
        prob = generate(GenSpec(m=20, n=3, ensemble="uniform", seed=6))
        # uniform entries are nonnegative before normalization
        assert np.all(prob.system.data >= 0)

    def test_noise_stddev_zero(self):
        prob = generate(GenSpec(m=15, n=3, noise_stddev=0.0, seed=7))
        assert np.all(prob.eta == 0.0)
        np.testing.assert_array_equal(prob.b, prob.b_t)


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# SHA-256 of (A, row_norms, b) as generate drew them before the draw was
# normalised in place.  The specs cover both ensembles, a noise level
# other than 1, row counts that do not fill the last row block, and the
# 1-by-1 edge.  The last three specs once also drew signed corruption or
# zeroed the noise on corrupted rows; A and its norms never depended on
# either, and their b hashes are those of the specs without them.
GOLDEN_GENERATE = [
    (
        GenSpec(m=1000, n=200, beta=Fraction(1, 20), corruption_scale=100.0, seed=11),
        "43f8c0a102b6ada4c55f1a847ac90b6056e56ec31088aba32a1e94670fabbf85",
        "5084b4f0857e7ffa35b175ce23311fa2eaa2b18bc8b3647c4c917ffedc423eb8",
        "a12d5ffaecc42cec1d4b58fb2fba3275711449fa4207efe30a1f104c31320ea3",
    ),
    (
        GenSpec(
            m=777, n=300, beta=Fraction(1, 111), corruption_scale=1e4,
            ensemble="uniform", seed=3,
        ),
        "fd84807a357ad6e5e675d6a0287a16625d0ce1e7b9bdc5fe446504a49492dac3",
        "0c25a05c4c0987d3c7c35bd840bcc4003dee0f4ddfb2f597054a4ac89f54b0ee",
        "af2557cbea47aa7ee56b19c5bb371281484b626a51f7f04fb9c7692d1cecb619",
    ),
    (
        GenSpec(
            m=640, n=512, beta=Fraction(1, 10), corruption_scale=50.0,
            noise_stddev=0.5, seed=7,
        ),
        "8e0fbc63aa9268dbfd210e792c32da45dd85d630de8729af6a0ebb8989501226",
        "9d0e866c10b1a378e1f90f8394a94b9f5e229cf542164f608128521f07d96954",
        "61fc0945f4aeee599512bd24eeef1a88e35433b2a135b0ea1387ea4f24f90b7b",
    ),
    (
        GenSpec(
            m=50, n=3, beta=Fraction(1, 5), corruption_scale=1e6, ensemble="uniform",
            seed=0,
        ),
        "b009e0f33b6eabf153171dff4125ba339bb6d17f336b7f3d7daa947779063e23",
        "8d9ea7c3e28412359070f4bab43b74011d0152069b3b2c4d72006bfa2231cffa",
        "e06878e2b7e1120fc6741d65b1ba784d2ba056a78268fac900695ea391e25602",
    ),
    (
        GenSpec(m=1, n=1, seed=2),
        "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
        "8dbd873f3aa31db8b55517a52d0fc30f3273dcd2fe88c158431b11a8f8688b3d",
        "3dd20f40e53ba51a330b1f5ee22e29614bc59a76317a56129683ae906468dcab",
    ),
]


@pytest.mark.parametrize(
    "spec,a_sha,norms_sha,b_sha", GOLDEN_GENERATE, ids=[f"m{s[0].m}n{s[0].n}" for s in GOLDEN_GENERATE]
)
def test_generate_matches_golden_hashes(spec, a_sha, norms_sha, b_sha):
    prob = generate(spec)
    assert prob.system.data.dtype == np.float64 and prob.system.data.flags.c_contiguous
    assert (_sha(prob.system.data), _sha(prob.row_norms), _sha(prob.b)) == (a_sha, norms_sha, b_sha)


class TestCorruptedProblemValidation:
    def test_b_sum_enforced(self):
        prob = generate(GenSpec(m=10, n=2, seed=1))
        with pytest.raises(InvalidSpecError):
            CorruptedProblem(
                system=prob.system,
                x_star=prob.x_star,
                b_t=prob.b_t,
                eta=prob.eta,
                xi=prob.xi,
                b=prob.b + 1e-9,
            )

    def test_consistency_enforced(self):
        prob = generate(GenSpec(m=10, n=2, seed=1))
        bad_bt = prob.b_t + 1.0
        with pytest.raises(InvalidSpecError):
            CorruptedProblem(
                system=prob.system,
                x_star=prob.x_star,
                b_t=bad_bt,
                eta=prob.eta,
                xi=prob.xi,
                b=bad_bt + prob.eta + prob.xi,
            )


class TestCanonicalDecomposition:
    @given(st.data())
    @settings(max_examples=150)
    def test_properties(self, data):
        m = data.draw(st.integers(1, 40))
        eps = np.array(data.draw(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=m, max_size=m)
        ))
        k = data.draw(st.integers(0, m))
        eta, xi = canonical_decomposition(eps, Fraction(k, m))
        np.testing.assert_array_equal(eta + xi, eps)
        assert np.count_nonzero(xi) <= k
        # xi's support holds the k largest magnitudes, lowest index first on ties
        want = orc.lower_set_indices([-abs(v) for v in eps], k)
        got = set(np.nonzero(xi)[0])
        assert got <= set(want)
        # eta keeps eps exactly off the support, so its largest magnitude
        # is exactly the (k+1)-th largest of eps
        if k < m:
            assert float(np.max(np.abs(eta))) == ordered_magnitude(eps, k + 1)

    def test_tie_convention(self):
        eps = np.array([2.0, -2.0, 2.0, 1.0])
        eta, xi = canonical_decomposition(eps, Fraction(2, 4))
        assert list(np.nonzero(xi)[0]) == [0, 1]

    def test_level_must_be_feasible(self):
        with pytest.raises(Exception):
            canonical_decomposition(np.ones(10), Fraction(1, 3))


class TestOrderedMagnitude:
    @given(st.data())
    @settings(max_examples=100)
    def test_matches_sort(self, data):
        m = data.draw(st.integers(1, 30))
        eps = np.array(data.draw(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=m, max_size=m)
        ))
        j = data.draw(st.integers(1, m))
        want = sorted((abs(v) for v in eps), reverse=True)[j - 1]
        assert ordered_magnitude(eps, j) == want

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ordered_magnitude(np.ones(3), 4)
        with pytest.raises(IndexError):
            ordered_magnitude(np.ones(3), 0)
