"""RecordSampler: batching, ranges, and determinism."""

import numpy as np
import pytest

from repro.core.sampler import RecordSampler


@pytest.fixture()
def sampler(trained_gan):
    return RecordSampler(
        trained_gan.generator_,
        trained_gan.codec_,
        trained_gan.matrixizer_,
        trained_gan.config.latent_dim,
    )


class TestSampling:
    def test_matrices_shape_and_range(self, sampler):
        mats = sampler.sample_matrices(10, rng=np.random.default_rng(0))
        assert mats.shape[0] == 10
        assert mats.min() >= -1.0 and mats.max() <= 1.0

    def test_batched_generation_matches_single_shot(self, sampler):
        """Batching is an implementation detail: same stream, same records."""
        a = sampler.sample_records(50, rng=np.random.default_rng(3))
        b_parts = RecordSampler(
            sampler.generator, sampler.codec, sampler.matrixizer,
            sampler.latent_dim,
        ).sample_matrices(50, rng=np.random.default_rng(3), batch_size=7)
        b = sampler.matrixizer.to_records(b_parts)
        assert np.allclose(a, b)

    def test_table_output(self, sampler, adult_bundle):
        table = sampler.sample_table(20, rng=np.random.default_rng(1))
        assert table.n_rows == 20
        assert table.schema == adult_bundle.train.schema

    def test_rejects_non_positive_n(self, sampler):
        with pytest.raises(ValueError):
            sampler.sample_matrices(0)

    def test_rejects_bad_latent_dim(self, trained_gan):
        with pytest.raises(ValueError):
            RecordSampler(
                trained_gan.generator_, trained_gan.codec_,
                trained_gan.matrixizer_, 0,
            )

    def test_constructor_batch_size_is_the_default(self, trained_gan):
        small = RecordSampler(
            trained_gan.generator_, trained_gan.codec_,
            trained_gan.matrixizer_, trained_gan.config.latent_dim,
            batch_size=4,
        )
        a = small.sample_records(10, rng=np.random.default_rng(5))
        b = small.sample_records(10, rng=np.random.default_rng(5), batch_size=256)
        assert np.allclose(a, b)
        with pytest.raises(ValueError):
            RecordSampler(
                trained_gan.generator_, trained_gan.codec_,
                trained_gan.matrixizer_, trained_gan.config.latent_dim,
                batch_size=0,
            )


class TestChunkInvariance:
    """Rows are bit-identical however the latents are cut into calls.

    Blocks of 256k + 1 rows end in a one-row chunk, which BLAS would run
    as a matrix-vector product with different float32 rounding.
    """

    @pytest.mark.parametrize("block", [1, 257, 513, 769, 1025])
    def test_latent_blocks_match_one_call(self, sampler, block):
        z = np.random.default_rng(8).uniform(-1.0, 1.0,
                                             (2048, sampler.latent_dim))
        whole = sampler.matrices_from_latents(z)
        parts = np.concatenate([sampler.matrices_from_latents(z[i:i + block])
                                for i in range(0, len(z), block)])
        np.testing.assert_array_equal(parts, whole)


class TestInferenceMode:
    """Sampling must run the generator in eval mode (BatchNorm running stats)."""

    def _batchnorms(self, generator):
        from repro.nn import BatchNorm

        return [layer for layer in generator if isinstance(layer, BatchNorm)]

    def test_sampling_does_not_perturb_running_stats(self, sampler):
        bns = self._batchnorms(sampler.generator)
        assert bns, "generator should contain BatchNorm layers"
        before = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]
        sampler.sample_matrices(32, rng=np.random.default_rng(0))
        for bn, (mean, var) in zip(bns, before):
            assert np.array_equal(bn.running_mean, mean)
            assert np.array_equal(bn.running_var, var)

    def test_sampling_reads_running_stats(self, sampler):
        """Perturbing the running statistics must change sampled output."""
        baseline = sampler.sample_matrices(8, rng=np.random.default_rng(2))
        bn = self._batchnorms(sampler.generator)[0]
        saved = bn.running_mean.copy()
        try:
            bn.running_mean = bn.running_mean + 0.5
            shifted = sampler.sample_matrices(8, rng=np.random.default_rng(2))
        finally:
            bn.running_mean = saved
        assert not np.allclose(baseline, shifted)

    def test_repeat_sampling_is_deterministic(self, sampler):
        """Eval-mode forward has no batch-statistics feedback: same seed,
        same rows, regardless of what was sampled in between."""
        first = sampler.sample_records(12, rng=np.random.default_rng(9))
        sampler.sample_records(33, rng=np.random.default_rng(1))
        again = sampler.sample_records(12, rng=np.random.default_rng(9))
        assert np.array_equal(first, again)
