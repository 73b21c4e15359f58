//! Registry deployment equivalence: `registry::deploy_bytes`, which
//! builds every compressible 3×3 slot straight from its decoded container
//! record, must produce logits bit-exact with the offline deployment
//! (`attach_weights`, then `decode_kernel`, then `set_conv3_weights`) and
//! with the model `bnnkc run` builds from its flags (`build_model`, then
//! the decoded kernels) for every built-in family and container version —
//! and must never materialize a flat weight tensor doing it, for the
//! decoded 3×3 slots and the synthetic 1×1 layers alike.

use bitnn::graph::NodeOp;
use bnnkc::prelude::*;
use bnnkc::serve::registry::{deploy, deploy_bytes};
use kc_core::KcError;

const IMAGE: usize = 32;
const WEIGHT_SEED: u64 = 9;

/// `(arch, scale, container bytes per version)` for one family.
fn containers(arch: Arch, scale: f64) -> Vec<(u16, Vec<u8>)> {
    let codec = KernelCodec::paper();
    let spec = build_spec(arch, scale, IMAGE).unwrap();
    let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 41)
        .unwrap()
        .iter()
        .map(|k| codec.compress(k).unwrap())
        .collect();
    let mut out = vec![
        (
            2,
            write_model_container_v2(&spec, &kernels).unwrap().to_vec(),
        ),
        (
            3,
            write_model_container_v3(&spec, &kernels).unwrap().to_vec(),
        ),
    ];
    if arch == Arch::ReActNet {
        out.push((1, write_model_container(&kernels).to_vec()));
    }
    out
}

/// The offline reference deployment, forwarded on a single thread.
fn offline_logits(bytes: &[u8], inputs: &[Tensor]) -> Vec<Vec<u32>> {
    let parsed = read_model_container(bytes).unwrap();
    let spec = parsed.spec_or_reactnet(IMAGE).unwrap();
    let mut graph = attach_weights(&spec, WEIGHT_SEED).unwrap();
    for (i, c) in parsed.kernels.iter().enumerate() {
        graph
            .set_conv3_weights(i, c.decode_kernel().unwrap())
            .unwrap();
    }
    logits(&graph, &Engine::single_threaded(), inputs)
}

/// The model `bnnkc run --arch A --scale S` deploys: the flag-described
/// family with the container's kernels in its 3×3 slots.
fn flag_model_logits(arch: Arch, scale: f64, bytes: &[u8], inputs: &[Tensor]) -> Vec<Vec<u32>> {
    let parsed = read_model_container(bytes).unwrap();
    let mut graph = build_model(arch, scale, IMAGE, WEIGHT_SEED).unwrap();
    for (i, c) in parsed.kernels.iter().enumerate() {
        graph
            .set_conv3_packed(i, c.decode_packed().unwrap())
            .unwrap();
    }
    logits(&graph, &Engine::single_threaded(), inputs)
}

fn logits(graph: &ModelGraph, engine: &Engine, inputs: &[Tensor]) -> Vec<Vec<u32>> {
    graph
        .forward_batch(inputs, engine)
        .unwrap()
        .iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// No binary conv holds a flat `[K, C, KH, KW]` tensor: the 3×3 slots
/// come straight from their records and the synthetic ones are drawn
/// into lane words.
fn assert_no_flat_weights(graph: &ModelGraph, what: &str) {
    for (i, node) in graph.nodes().iter().enumerate() {
        if let NodeOp::BinConv(conv) = &node.op {
            assert!(
                !conv.has_dense_weights(),
                "{what}: node {i} ({:?}) holds flat weights",
                conv.kernel_size()
            );
        }
    }
}

#[test]
fn registry_deploy_is_bit_exact_with_offline_deploy() {
    let inputs = synthetic_batch(2, 3, IMAGE, 7 ^ RUN_INPUT_SALT);
    for (arch, scale) in [
        (Arch::VggSmall, 0.0625),
        (Arch::ResNetLite, 0.0625),
        (Arch::ReActNet, 0.125),
    ] {
        for (version, bytes) in containers(arch, scale) {
            let expected = offline_logits(&bytes, &inputs);
            let what = format!("{arch} v{version}");
            assert_eq!(
                flag_model_logits(arch, scale, &bytes, &inputs),
                expected,
                "{what}: flag-built model"
            );
            let engine = Engine::with_threads(2);
            let entry = deploy_bytes(&bytes, &engine, WEIGHT_SEED, IMAGE, 1).unwrap();
            let graph = &entry.graph;
            assert_no_flat_weights(graph, &format!("{what} after deploy"));
            let (mut scratch, mut out) = (bitnn::Scratch::default(), Tensor::default());
            graph
                .forward_into(&inputs[0], &engine, &mut scratch, &mut out)
                .unwrap();
            assert_no_flat_weights(graph, &format!("{what} after a forward"));
            assert_eq!(logits(graph, &engine, &inputs), expected, "{what}");
        }
    }
}

#[test]
fn mismatched_records_are_rejected_before_decoding() {
    let (_, bytes) = containers(Arch::VggSmall, 0.0625).remove(0);
    let parsed = read_model_container(&bytes).unwrap();
    let incompatible = |c: &ModelContainer| {
        matches!(
            deploy(c, WEIGHT_SEED, IMAGE, 1),
            Err(ServeError::Container(KcError::IncompatibleModel(_)))
        )
    };

    let mut short = parsed.clone();
    short.kernels.pop();
    assert!(incompatible(&short), "missing record");

    let mut swapped = parsed.clone();
    swapped.kernels.swap(0, 1);
    assert!(incompatible(&swapped), "records out of order");

    // A record whose geometry is wrong AND whose stream is garbage must
    // still fail on geometry: nothing is decoded before the check.
    let mut garbage = parsed.clone();
    garbage.kernels[2].filters += 1;
    garbage.kernels[2].stream_bits = 0;
    assert!(incompatible(&garbage), "resized record");
}
