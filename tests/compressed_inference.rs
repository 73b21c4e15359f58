//! Compressed-container inference: the streaming decode path
//! (stream → channel-packed lane words → engine) must be bit-exact with
//! inference on the offline-decompressed weights — at the library level,
//! through the `bnnkc run` CLI, and for **every** built-in architecture,
//! with v1 containers still loading.

mod common;

use bnnkc::prelude::*;
use common::{bnnkc, tmp_file, TempFile};
use std::process::Output;

/// Mirror of the CLI's logits digest (FNV-1a over the f32 bit patterns).
fn logits_digest(logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in logits {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Mirror of the CLI's input-batch seed derivation.
const RUN_INPUT_SALT: u64 = 0x1A7E57;

fn item_lines(o: &Output) -> Vec<String> {
    String::from_utf8_lossy(&o.stdout)
        .lines()
        .filter(|l| l.starts_with("item "))
        .map(str::to_string)
        .collect()
}

/// Library-level round trip: deploy a compressed model once via the
/// streaming packed path and once via offline decompression; every logits
/// tensor must be bit-identical across both paths and all thread counts.
#[test]
fn streamed_and_offline_deployment_are_bit_exact() {
    let codec = KernelCodec::paper_clustered();
    let base = ReActNetConfig::tiny().model(31).expect("valid config");
    let compressed: Vec<CompressedKernel> = (0..base.num_conv3())
        .map(|i| codec.compress(base.conv3_weights(i)).expect("compress"))
        .collect();
    let container = read_model_container(&write_model_container(&compressed)).expect("parse");

    let mut streamed = base.clone();
    let mut offline = base.clone();
    for (i, c) in container.kernels.iter().enumerate() {
        streamed
            .set_conv3_packed(i, c.decode_packed().expect("stream decode"))
            .expect("same geometry");
        offline
            .set_conv3_weights(i, c.decode_kernel().expect("offline decode"))
            .expect("same shape");
    }

    let inputs = synthetic_batch(3, 3, 32, 77);
    for threads in [1usize, 2, 4] {
        let engine = Engine::with_threads(threads);
        let a = streamed.forward_batch(&inputs, &engine).unwrap();
        let b = offline.forward_batch(&inputs, &engine).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data(), "threads = {threads}");
        }
    }
    // And against the scalar oracle.
    for x in &inputs {
        let oracle = offline.forward_scalar(x).unwrap();
        assert_eq!(streamed.forward(x).unwrap().data(), oracle.data());
    }
}

/// The same round trip through the graph deployment API, for every
/// non-ReActNet built-in architecture: compress the graph's kernels,
/// stream-decode them back in, and pin the executor against the scalar
/// oracle.
#[test]
fn graph_deployment_is_bit_exact_across_architectures() {
    let codec = KernelCodec::paper_clustered();
    for arch in [Arch::VggSmall, Arch::ResNetLite] {
        let base = build_model(arch, 0.0625, 16, 21).expect("build model");
        let compressed: Vec<CompressedKernel> = (0..base.num_conv3())
            .map(|i| codec.compress(base.conv3_weights(i)).expect("compress"))
            .collect();
        let bytes = write_model_container_v2(base.spec(), &compressed).expect("write v2");
        let container = read_model_container(&bytes).expect("parse");
        assert_eq!(container.spec.as_ref(), Some(base.spec()));

        let mut streamed = base.clone();
        let mut offline = base.clone();
        for (i, c) in container.kernels.iter().enumerate() {
            streamed
                .set_conv3_packed(i, c.decode_packed().expect("stream decode"))
                .expect("deploy packed");
            offline
                .set_conv3_weights(i, c.decode_kernel().expect("offline decode"))
                .expect("deploy tensor");
        }
        let inputs = synthetic_batch(2, 3, 16, 78);
        for threads in [1usize, 3] {
            let engine = Engine::with_threads(threads);
            let a = streamed.forward_batch(&inputs, &engine).expect("forward");
            let b = offline.forward_batch(&inputs, &engine).expect("forward");
            for ((x, y), input) in a.iter().zip(&b).zip(&inputs) {
                assert_eq!(x.data(), y.data(), "{arch} threads = {threads}");
                let oracle = streamed.forward_scalar(input).expect("scalar");
                assert_eq!(x.data(), oracle.data(), "{arch} vs oracle");
            }
        }
    }
}

/// CLI round trip: `bnnkc run` logits (streamed) must match both the
/// `--offline` reference path and logits computed in-process with
/// graph inference on the offline-decompressed weights.
#[test]
fn cli_run_logits_pin_against_offline_inference() {
    let out = TempFile(tmp_file("run-roundtrip.bkcm"));
    let path = out.0.to_str().unwrap();
    let (seed, scale, image, batch) = (5u64, 0.125f64, 32usize, 2usize);

    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125", "--seed", "5"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let run_args = [
        "run",
        "--in",
        path,
        "--scale",
        "0.125",
        "--seed",
        "5",
        "--image",
        "32",
        "--batch",
        "2",
        "--threads",
        "2",
    ];
    let streamed = bnnkc(&run_args);
    assert!(streamed.status.success(), "run failed: {streamed:?}");
    let offline = bnnkc(
        &run_args
            .iter()
            .chain(&["--offline"])
            .copied()
            .collect::<Vec<_>>(),
    );
    assert!(
        offline.status.success(),
        "run --offline failed: {offline:?}"
    );

    let s_lines = item_lines(&streamed);
    let o_lines = item_lines(&offline);
    assert_eq!(s_lines.len(), batch);
    assert_eq!(s_lines, o_lines, "streamed and offline logits must match");

    // In-process reference: same scaled model, offline-decompressed
    // weights, same synthetic inputs — digests must line up exactly.
    let container = read_model_container(&std::fs::read(path).unwrap()).expect("parse");
    let mut cfg = ReActNetConfig::scaled(scale).expect("scaled config");
    cfg.image_size = image;
    let mut model = cfg.model(seed).expect("valid config");
    for (i, c) in container.kernels.iter().enumerate() {
        model
            .set_conv3_weights(i, c.decode_kernel().expect("decode"))
            .expect("same shape");
    }
    let inputs = synthetic_batch(batch, cfg.input_channels, image, seed ^ RUN_INPUT_SALT);
    let outputs = model
        .forward_batch(&inputs, &Engine::with_threads(2))
        .unwrap();
    for (i, out) in outputs.iter().enumerate() {
        let digest = format!("digest {:016x}", logits_digest(out.data()));
        assert!(
            s_lines[i].ends_with(&digest),
            "item {i}: CLI `{}` vs library `{digest}`",
            s_lines[i]
        );
    }
}

/// Full CLI pipeline for each non-ReActNet architecture:
/// compress → run (streamed == offline, pinned against the in-process
/// graph model) → verify → simulate, all from the v2 container.
#[test]
fn cli_pipeline_covers_non_reactnet_architectures() {
    for arch in [Arch::VggSmall, Arch::ResNetLite] {
        let out = TempFile(tmp_file(&format!("pipeline-{arch}.bkcm")));
        let path = out.0.to_str().unwrap();
        let name = arch.name();
        let (seed, scale, image, batch) = (9u64, 0.0625f64, 16usize, 2usize);

        let c = bnnkc(&[
            "compress", "--out", path, "--arch", name, "--scale", "0.0625", "--seed", "9",
        ]);
        assert!(c.status.success(), "{arch} compress failed: {c:?}");

        let run_args = [
            "run",
            "--in",
            path,
            "--arch",
            name,
            "--scale",
            "0.0625",
            "--seed",
            "9",
            "--image",
            "16",
            "--batch",
            "2",
            "--threads",
            "2",
        ];
        let streamed = bnnkc(&run_args);
        assert!(streamed.status.success(), "{arch} run failed: {streamed:?}");
        let offline = bnnkc(
            &run_args
                .iter()
                .chain(&["--offline"])
                .copied()
                .collect::<Vec<_>>(),
        );
        assert!(offline.status.success(), "{arch} --offline failed");
        let s_lines = item_lines(&streamed);
        assert_eq!(s_lines.len(), batch);
        assert_eq!(s_lines, item_lines(&offline), "{arch} streamed vs offline");

        // In-process pin: same graph model, offline-deployed kernels.
        let container = read_model_container(&std::fs::read(path).unwrap()).expect("parse");
        let mut model = build_model(arch, scale, image, seed).expect("build model");
        for (i, c) in container.kernels.iter().enumerate() {
            model
                .set_conv3_weights(i, c.decode_kernel().expect("decode"))
                .expect("deploy");
        }
        let inputs = synthetic_batch(batch, 3, image, seed ^ RUN_INPUT_SALT);
        let outputs = model
            .forward_batch(&inputs, &Engine::with_threads(2))
            .expect("forward");
        for (i, out) in outputs.iter().enumerate() {
            let digest = format!("digest {:016x}", logits_digest(out.data()));
            assert!(
                s_lines[i].ends_with(&digest),
                "{arch} item {i}: CLI `{}` vs library `{digest}`",
                s_lines[i]
            );
        }

        let v = bnnkc(&[
            "verify", "--in", path, "--arch", name, "--scale", "0.0625", "--seed", "9",
        ]);
        assert!(v.status.success(), "{arch} verify failed: {v:?}");
        assert!(String::from_utf8_lossy(&v.stdout).contains("all kernels verified"));

        let s = bnnkc(&["simulate", "--in", path, "--image", "16"]);
        assert!(s.status.success(), "{arch} simulate failed: {s:?}");
        let stdout = String::from_utf8_lossy(&s.stdout);
        assert!(stdout.contains(&format!("arch {name}")), "{stdout}");
        assert!(stdout.contains("hardware:"), "{stdout}");
    }
}

/// Geometry mismatches are reported up front with a clear message, not
/// as a shape panic mid-forward.
#[test]
fn cli_rejects_mismatched_arch_and_scale_up_front() {
    let out = TempFile(tmp_file("mismatch.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&[
        "compress", "--out", path, "--arch", "vggsmall", "--scale", "0.0625",
    ]);
    assert!(c.status.success(), "compress failed: {c:?}");

    // Wrong --arch: the container says vggsmall.
    let r = bnnkc(&[
        "run",
        "--in",
        path,
        "--arch",
        "resnetlite",
        "--scale",
        "0.0625",
        "--image",
        "16",
    ]);
    assert!(!r.status.success());
    let err = String::from_utf8_lossy(&r.stderr).to_string();
    assert!(
        err.contains("written for --arch vggsmall"),
        "unexpected error: {err}"
    );

    // Wrong --scale: topology mismatch, caught before deployment.
    let r = bnnkc(&[
        "run", "--in", path, "--arch", "vggsmall", "--scale", "0.5", "--image", "16",
    ]);
    assert!(!r.status.success());
    let err = String::from_utf8_lossy(&r.stderr).to_string();
    assert!(
        err.contains("geometry does not match") && err.contains("--scale"),
        "unexpected error: {err}"
    );

    // Same for verify.
    let v = bnnkc(&[
        "verify", "--in", path, "--arch", "vggsmall", "--scale", "0.5",
    ]);
    assert!(!v.status.success());
    let err = String::from_utf8_lossy(&v.stderr).to_string();
    assert!(err.contains("geometry does not match"), "{err}");
}

/// A v1 container (written by the pre-graph pipeline) auto-upgrades: it
/// runs through the graph executor and still matches the offline path.
#[test]
fn v1_container_runs_through_the_graph_pipeline() {
    let out = TempFile(tmp_file("v1-compat.bkcm"));
    let path = out.0.to_str().unwrap();
    let (seed, scale) = (5u64, 0.125f64);

    // Write a v1 container with the exact kernels `compress --scale 0.125
    // --seed 5` would produce.
    let spec = build_spec(Arch::ReActNet, scale, 224).expect("spec");
    let codec = KernelCodec::paper_clustered();
    let kernels = sample_conv3_kernels(&spec, seed).expect("sample");
    let compressed: Vec<CompressedKernel> =
        kernels.iter().map(|k| codec.compress(k).unwrap()).collect();
    std::fs::write(path, write_model_container(&compressed)).unwrap();

    let run_args = [
        "run", "--in", path, "--scale", "0.125", "--seed", "5", "--image", "32", "--batch", "2",
    ];
    let streamed = bnnkc(&run_args);
    assert!(streamed.status.success(), "v1 run failed: {streamed:?}");
    let offline = bnnkc(
        &run_args
            .iter()
            .chain(&["--offline"])
            .copied()
            .collect::<Vec<_>>(),
    );
    assert!(offline.status.success());
    assert_eq!(item_lines(&streamed), item_lines(&offline));

    let v = bnnkc(&["verify", "--in", path, "--scale", "0.125", "--seed", "5"]);
    assert!(v.status.success(), "v1 verify failed: {v:?}");
    let s = bnnkc(&["simulate", "--in", path, "--image", "32"]);
    assert!(s.status.success(), "v1 simulate failed: {s:?}");
}

/// A v2 container for a *custom* (non-built-in) topology: `inspect` and
/// `simulate` work from the embedded spec alone; `run` (which must build
/// a weighted model) reports the unknown arch cleanly.
#[test]
fn custom_arch_containers_simulate_but_refuse_to_run() {
    let out = TempFile(tmp_file("custom.bkcm"));
    let path = out.0.to_str().unwrap();
    // input → stem → sign → conv3x3 → bn → act → gap → fc.
    let spec = GraphSpec {
        arch: "custom-demo".into(),
        nodes: vec![
            NodeSpec {
                op: OpSpec::Input {
                    channels: 3,
                    image: 16,
                },
                inputs: vec![],
            },
            NodeSpec {
                op: OpSpec::StemConv {
                    out_ch: 8,
                    stride: 2,
                },
                inputs: vec![0],
            },
            NodeSpec {
                op: OpSpec::Sign,
                inputs: vec![1],
            },
            NodeSpec {
                op: OpSpec::BinConv {
                    out_ch: 8,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    pad: 1,
                },
                inputs: vec![2],
            },
            NodeSpec {
                op: OpSpec::BatchNorm,
                inputs: vec![3],
            },
            NodeSpec {
                op: OpSpec::Act,
                inputs: vec![4],
            },
            NodeSpec {
                op: OpSpec::GlobalAvgPool,
                inputs: vec![5],
            },
            NodeSpec {
                op: OpSpec::Classifier { classes: 10 },
                inputs: vec![6],
            },
        ],
    };
    let codec = KernelCodec::paper();
    let compressed: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 3)
        .unwrap()
        .iter()
        .map(|k| codec.compress(k).unwrap())
        .collect();
    std::fs::write(path, write_model_container_v2(&spec, &compressed).unwrap()).unwrap();

    let i = bnnkc(&["inspect", "--in", path]);
    assert!(i.status.success(), "inspect failed: {i:?}");
    assert!(String::from_utf8_lossy(&i.stdout).contains("arch custom-demo"));

    let s = bnnkc(&["simulate", "--in", path, "--image", "16"]);
    assert!(s.status.success(), "custom simulate failed: {s:?}");
    let stdout = String::from_utf8_lossy(&s.stdout);
    assert!(stdout.contains("arch custom-demo") && stdout.contains("hardware:"));
    // --arch against a custom container is a clear mismatch error.
    let s = bnnkc(&[
        "simulate", "--in", path, "--image", "16", "--arch", "reactnet",
    ]);
    assert!(!s.status.success());
    assert!(String::from_utf8_lossy(&s.stderr).contains("written for --arch custom-demo"));

    // run needs a built-in family to construct weights.
    let r = bnnkc(&["run", "--in", path, "--image", "16"]);
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("unknown arch"));
}

/// The group decoder agrees with the offline path on every block of a
/// freshly compressed model, including partial tail lanes.
#[test]
fn group_decoder_covers_all_model_blocks() {
    let codec = KernelCodec::paper();
    let model = ReActNetConfig::tiny().model(41).expect("valid config");
    for i in 0..model.num_conv3() {
        let ck = codec.compress(model.conv3_weights(i)).expect("compress");
        let container = read_container(&write_container(&ck)).expect("parse");
        let streamed = container.decode_packed().expect("stream decode");
        let offline = PackedKernel::pack(&container.decode_kernel().expect("decode")).unwrap();
        assert_eq!(streamed, offline, "block {i}");
        assert_eq!(streamed.unpack(), *model.conv3_weights(i), "block {i}");
    }
}
