//! Golden logits: the synthetic weights are frozen.
//!
//! Every other bit-exactness check in the workspace compares two
//! executions that draw their weights from the same generator (streamed
//! vs offline deploy, scalar oracle vs fused plan, one thread vs two),
//! so a generator that moved a single bit would pass them all. This test
//! pins the `logits_digest` of each built-in family at ×0.125, image 32,
//! batch 2, both seed-built (`attach_weights`) and deployed from a v3
//! container (`registry::deploy_bytes`, inline and on two threads). The
//! two-thread engine is clamped to the hardware, so on a single-core
//! host that case builds inline too; the forced-pool unit tests in
//! `graph::arch` cover the pooled build on any host. A deliberate change
//! of the synthetic weights updates these values in the same commit.

use bnnkc::prelude::*;
use bnnkc::serve::registry::deploy_bytes;

const SCALE: f64 = 0.125;
const IMAGE: usize = 32;
const SEED: u64 = 1;

/// `(arch, seed-built digests, deployed digests)`, one digest per item.
const GOLDEN: [(Arch, [u64; 2], [u64; 2]); 3] = [
    (
        Arch::ReActNet,
        [0x2320_d0e9_3ac0_978e, 0x2ce7_b36e_55ca_ebb3],
        [0xb6e8_3059_0a10_59a8, 0x0e14_4252_f84b_db4a],
    ),
    (
        Arch::VggSmall,
        [0x36ac_afce_9351_7059, 0x34f1_b1fc_da63_8c18],
        [0xeeee_9d8a_854c_279b, 0xfe43_5a45_86ee_cc35],
    ),
    (
        Arch::ResNetLite,
        [0xbcfe_1880_3241_5098, 0x0a4c_c588_bf1a_943c],
        [0xdc70_c263_a4d8_d2e9, 0xf3af_54fd_0c9d_7213],
    ),
];

fn digests(graph: &ModelGraph) -> [u64; 2] {
    let inputs = synthetic_batch(2, 3, IMAGE, SEED ^ RUN_INPUT_SALT);
    let outputs = graph
        .forward_batch(&inputs, &Engine::single_threaded())
        .unwrap();
    [0, 1].map(|i| logits_digest(outputs[i].data()))
}

#[test]
fn synthetic_weights_are_frozen() {
    let codec = KernelCodec::paper_clustered();
    for (arch, seeded, deployed) in GOLDEN {
        let spec = build_spec(arch, SCALE, IMAGE).unwrap();
        let built = attach_weights(&spec, SEED).unwrap();
        assert_eq!(digests(&built), seeded, "{arch}: seed-built model");

        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, SEED)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        let bytes = write_model_container_v3(&spec, &kernels).unwrap();
        // The inline deploy and the one whose nodes are built as jobs
        // on the worker pool.
        for engine in [Engine::single_threaded(), Engine::with_threads(2)] {
            let entry = deploy_bytes(&bytes, &engine, SEED, IMAGE, 1).unwrap();
            // The threads the deploy could build on, after the clamp.
            let threads = engine.policy().effective_threads(u64::MAX);
            assert_eq!(
                digests(&entry.graph),
                deployed,
                "{arch}: deployed model, up to {threads} threads"
            );
        }
    }
}
