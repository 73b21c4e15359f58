//! Inference utilities and the accuracy-proxy metrics.
//!
//! Without ImageNet, the effect of kernel clustering on "accuracy" is
//! measured as *agreement*: run the original and the substituted network on
//! the same inputs and compare predictions and logits. Perfect agreement
//! means clustering provably cannot change any downstream accuracy number.

use crate::engine::Engine;
use crate::graph::ModelGraph;
use crate::tensor::Tensor;
use crate::weightgen::random_floats;

/// Agreement statistics between two models on a shared input batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    /// Fraction of inputs on which the top-1 predictions match.
    pub top1: f64,
    /// Mean absolute logit difference, averaged over inputs and classes.
    pub mean_abs_dev: f64,
    /// Largest absolute logit difference observed.
    pub max_abs_dev: f64,
    /// Number of inputs compared.
    pub inputs: usize,
}

/// Salt mixed into a user-facing seed for synthetic input batches, so
/// inputs are deterministic per seed but uncorrelated with the weight
/// streams. Shared by `bnnkc run`, `bnnkc serve`, and `loadgen` so their
/// logits are comparable bit-for-bit.
pub const RUN_INPUT_SALT: u64 = 0x1A7E57;

/// FNV-1a over the raw bit patterns of the logits: a stable, bit-exact
/// digest two executions of the same model on the same input must share.
/// `bnnkc run` prints it per item and `loadgen --check` recomputes it
/// over served responses, so CI can diff served logits against the
/// offline path.
pub fn logits_digest(logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in logits {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Generate a deterministic batch of synthetic input images.
pub fn synthetic_batch(n: usize, channels: usize, size: usize, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            Tensor::from_vec(
                &[1, channels, size, size],
                random_floats(channels * size * size, 1.0, seed.wrapping_add(i as u64)),
            )
            .expect("consistent shape")
        })
        .collect()
}

/// Compare two models input-by-input.
///
/// # Panics
///
/// Panics if `inputs` is empty, a model cannot run the inputs, or the
/// models produce different logit shapes.
pub fn compare_models(a: &ModelGraph, b: &ModelGraph, inputs: &[Tensor]) -> Agreement {
    compare_models_with(a, b, inputs, &Engine::single_threaded())
}

/// [`compare_models`] with both models' forward passes batched across the
/// engine's worker threads. Results are identical to the single-threaded
/// comparison (the engine is bit-exact); only the wall-clock changes.
///
/// # Panics
///
/// Panics if `inputs` is empty, a model cannot run the inputs, or the
/// models produce different logit shapes.
fn compare_models_with(
    a: &ModelGraph,
    b: &ModelGraph,
    inputs: &[Tensor],
    engine: &Engine,
) -> Agreement {
    assert!(!inputs.is_empty(), "need at least one input");
    let outs_a = a
        .forward_batch(inputs, engine)
        .expect("model a runs the inputs");
    let outs_b = b
        .forward_batch(inputs, engine)
        .expect("model b runs the inputs");
    let mut matches = 0usize;
    let mut dev_sum = 0.0f64;
    let mut dev_max = 0.0f64;
    let mut dev_count = 0usize;
    for (ya, yb) in outs_a.iter().zip(&outs_b) {
        assert_eq!(ya.shape(), yb.shape(), "logit shape mismatch");
        if ya.argmax() == yb.argmax() {
            matches += 1;
        }
        for (&va, &vb) in ya.data().iter().zip(yb.data()) {
            let d = (va - vb).abs() as f64;
            dev_sum += d;
            dev_max = dev_max.max(d);
            dev_count += 1;
        }
    }
    Agreement {
        top1: matches as f64 / inputs.len() as f64,
        mean_abs_dev: dev_sum / dev_count as f64,
        max_abs_dev: dev_max,
        inputs: inputs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReActNetConfig;

    fn tiny(seed: u64) -> ModelGraph {
        ReActNetConfig::tiny().model(seed).unwrap()
    }

    #[test]
    fn model_agrees_with_itself() {
        let m = tiny(1);
        let inputs = synthetic_batch(3, 3, 32, 42);
        let agg = compare_models(&m, &m, &inputs);
        assert_eq!(agg.top1, 1.0);
        assert_eq!(agg.mean_abs_dev, 0.0);
        assert_eq!(agg.max_abs_dev, 0.0);
        assert_eq!(agg.inputs, 3);
    }

    #[test]
    fn parallel_comparison_matches_single_threaded() {
        let a = tiny(1);
        let b = tiny(2);
        let inputs = synthetic_batch(4, 3, 32, 17);
        let serial = compare_models(&a, &b, &inputs);
        let parallel = compare_models_with(&a, &b, &inputs, &Engine::with_threads(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn different_models_disagree_somewhere() {
        let a = tiny(1);
        let b = tiny(2);
        let inputs = synthetic_batch(3, 3, 32, 42);
        let agg = compare_models(&a, &b, &inputs);
        assert!(agg.mean_abs_dev > 0.0);
    }

    #[test]
    fn synthetic_batch_is_deterministic() {
        let a = synthetic_batch(2, 3, 8, 7);
        let b = synthetic_batch(2, 3, 8, 7);
        assert_eq!(a[0].data(), b[0].data());
        assert_eq!(a[1].data(), b[1].data());
        assert_ne!(a[0].data(), a[1].data());
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_batch_panics() {
        let m = tiny(1);
        compare_models(&m, &m, &[]);
    }
}
