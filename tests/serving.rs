//! Serving-layer integration proofs:
//!
//! * served logits are **bit-exact** with the offline decode path
//!   (the scalar-reference oracle the executor must match);
//! * a hot-swap under concurrent load drops **zero** requests, and every
//!   response is bit-exact for the version it reports being served by;
//! * backpressure rejects with the typed [`ServeError::QueueFull`]
//!   immediately and the daemon keeps serving afterwards;
//! * registry misuse (duplicate names, arch/scale-incompatible swaps,
//!   unknown models, wrong shapes) fails with typed errors, never a
//!   panic;
//! * the `bnnkc serve` CLI exits nonzero on misconfiguration, and the
//!   TCP daemon handles the full wire lifecycle (ping, infer, hot-swap
//!   from a `bnnkc patch`-built container, drain) end to end.

mod common;

use bnnkc::prelude::*;
use bnnkc::serve::MAX_BATCH;
use common::{tmp_file, TempFile};
use std::io::BufRead;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const IMAGE: usize = 32;
const SCALE: f64 = 0.0625;
const WEIGHT_SEED: u64 = 9;

/// Container bytes for the standard test model, kernels sampled from
/// `kernel_seed`.
fn container_bytes(kernel_seed: u64) -> Vec<u8> {
    let codec = KernelCodec::paper();
    let spec = build_spec(Arch::VggSmall, SCALE, IMAGE).unwrap();
    let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, kernel_seed)
        .unwrap()
        .iter()
        .map(|k| codec.compress(k).unwrap())
        .collect();
    write_model_container_v2(&spec, &kernels).unwrap().to_vec()
}

/// The independent oracle: offline decompress-and-pack deployment (the
/// bit-exact reference path `bnnkc run --offline` uses), forwarded on a
/// single-threaded engine.
fn oracle_logits(container: &[u8], inputs: &[Tensor]) -> Vec<Vec<u32>> {
    let parsed = read_model_container(container).unwrap();
    let spec = parsed.spec_or_reactnet(IMAGE).unwrap();
    let mut graph = attach_weights(&spec, WEIGHT_SEED).unwrap();
    for (i, c) in parsed.kernels.iter().enumerate() {
        graph
            .set_conv3_weights(i, c.decode_kernel().unwrap())
            .unwrap();
    }
    let engine = Engine::single_threaded();
    graph
        .forward_batch(inputs, &engine)
        .unwrap()
        .iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn test_server(cfg: ServeConfig) -> Server {
    Server::new(cfg)
}

fn default_cfg() -> ServeConfig {
    ServeConfig {
        seed: WEIGHT_SEED,
        image: IMAGE,
        ..Default::default()
    }
}

#[test]
fn served_logits_are_bit_exact_with_offline_oracle() {
    let bytes = container_bytes(41);
    let inputs = synthetic_batch(6, 3, IMAGE, 7 ^ RUN_INPUT_SALT);
    let expected = oracle_logits(&bytes, &inputs);

    let server = test_server(default_cfg());
    let shape = server.register_bytes("m", &bytes).unwrap();
    assert_eq!(
        (shape.channels, shape.image, shape.classes),
        (3, IMAGE, 10),
        "vggsmall geometry"
    );
    let mut slot = InferSlot::new();
    let mut out = Tensor::default();
    for (x, want) in inputs.iter().zip(&expected) {
        let version = server.infer_blocking("m", &mut slot, x, &mut out).unwrap();
        assert_eq!(version, 1);
        assert_eq!(&bits_of(&out), want, "served logits must be bit-exact");
    }
    let stats = server.stats_report();
    assert_eq!(stats.served, inputs.len() as u64);
    assert_eq!(stats.rejected, 0);
    assert!(!stats.batch_hist.is_empty());
}

#[test]
fn hot_swap_under_load_drops_nothing_and_stays_bit_exact() {
    let v1 = container_bytes(41);
    // The replacement container is built exactly like `bnnkc patch`
    // builds it: a delta patch from v1, applied to produce a v3 target.
    let fresh: Vec<u8> = {
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, SCALE, IMAGE).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 42)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        write_model_container_v3(&spec, &kernels).unwrap().to_vec()
    };
    let (patch, _) = diff_containers(&v1, &fresh).unwrap();
    let v2 = apply_patch(&v1, &patch).unwrap();

    let pool = synthetic_batch(4, 3, IMAGE, 7 ^ RUN_INPUT_SALT);
    let oracle_v1 = oracle_logits(&v1, &pool);
    let oracle_v2 = oracle_logits(&v2, &pool);
    assert_ne!(oracle_v1, oracle_v2, "versions must be distinguishable");

    let server = test_server(default_cfg());
    server.register_bytes("m", &v1).unwrap();

    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 60;
    let served_v1 = AtomicU64::new(0);
    let served_v2 = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, pool) = (&server, &pool);
            let (served_v1, served_v2, completed) = (&served_v1, &served_v2, &completed);
            let (oracle_v1, oracle_v2) = (&oracle_v1, &oracle_v2);
            scope.spawn(move || {
                let mut slot = InferSlot::new();
                let mut out = Tensor::default();
                for i in 0..PER_CLIENT {
                    let idx = (c as u64 + i) as usize % pool.len();
                    let version = server
                        .infer_blocking("m", &mut slot, &pool[idx], &mut out)
                        .expect("no request may be dropped during a hot-swap");
                    let got = bits_of(&out);
                    match version {
                        1 => {
                            assert_eq!(got, oracle_v1[idx], "v1 response must match v1 oracle");
                            served_v1.fetch_add(1, Ordering::Relaxed);
                        }
                        2 => {
                            assert_eq!(got, oracle_v2[idx], "v2 response must match v2 oracle");
                            served_v2.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected version {other}"),
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Swap mid-load: wait until some requests were served, then
        // atomically replace the model.
        let deadline = Instant::now() + Duration::from_secs(30);
        while completed.load(Ordering::Relaxed) < (CLIENTS as u64 * PER_CLIENT) / 4 {
            assert!(Instant::now() < deadline, "load did not progress");
            std::thread::yield_now();
        }
        assert_eq!(server.swap_bytes("m", &v2).unwrap(), 2);
    });

    let total = CLIENTS as u64 * PER_CLIENT;
    assert_eq!(
        served_v1.load(Ordering::Relaxed) + served_v2.load(Ordering::Relaxed),
        total,
        "every request must be answered (zero drops)"
    );
    assert!(
        served_v1.load(Ordering::Relaxed) > 0,
        "some requests must have been served before the swap"
    );

    // After the swap every new request is served by version 2.
    let mut slot = InferSlot::new();
    let mut out = Tensor::default();
    let version = server
        .infer_blocking("m", &mut slot, &pool[0], &mut out)
        .unwrap();
    assert_eq!(version, 2);
    assert_eq!(bits_of(&out), oracle_v2[0]);

    let stats = server.stats_report();
    assert_eq!(stats.served, total + 1);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.models[0].version, 2);
}

#[test]
fn backpressure_rejects_typed_and_daemon_recovers() {
    let bytes = container_bytes(41);
    let cfg = ServeConfig {
        policy: ExecPolicy::single_threaded(),
        queue_depth: 3,
        max_batch: 2,
        ..default_cfg()
    };
    let server = test_server(cfg);
    server.register_bytes("m", &bytes).unwrap();
    let input = synthetic_batch(1, 3, IMAGE, 7 ^ RUN_INPUT_SALT).remove(0);

    // Hold the batch worker so the queue fills deterministically.
    server.pause("m").unwrap();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (server, input) = (&server, &input);
            scope.spawn(move || {
                let mut slot = InferSlot::new();
                let mut out = Tensor::default();
                server
                    .infer_blocking("m", &mut slot, input, &mut out)
                    .expect("queued requests must be served after resume");
            });
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.queue_len("m").unwrap() < 3 {
            assert!(Instant::now() < deadline, "queue never filled");
            std::thread::yield_now();
        }
        // Queue is at depth: the next submit is rejected immediately
        // with the typed error — it must not block.
        let mut slot = InferSlot::new();
        let mut out = Tensor::default();
        let t0 = Instant::now();
        let err = server
            .infer_blocking("m", &mut slot, &input, &mut out)
            .unwrap_err();
        assert_eq!(err, ServeError::QueueFull);
        assert_eq!(err.code(), ErrorCode::QueueFull);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "backpressure rejection must be immediate"
        );
        server.resume("m").unwrap();
    });

    // The daemon stayed live: the queued requests were all served and
    // new ones still work.
    let stats = server.stats_report();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.rejected, 1);
    let mut slot = InferSlot::new();
    let mut out = Tensor::default();
    assert!(server
        .infer_blocking("m", &mut slot, &input, &mut out)
        .is_ok());
}

#[test]
fn registry_misuse_fails_typed() {
    let bytes = container_bytes(41);
    let server = test_server(default_cfg());
    server.register_bytes("m", &bytes).unwrap();

    // Duplicate name.
    assert_eq!(
        server.register_bytes("m", &bytes).unwrap_err(),
        ServeError::DuplicateModel("m".into())
    );

    // Arch/scale-incompatible hot-swap: a different scale changes the
    // topology.
    let other_scale = {
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, 0.125, IMAGE).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 41)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        write_model_container_v2(&spec, &kernels).unwrap().to_vec()
    };
    let err = server.swap_bytes("m", &other_scale).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Container(kc_core::KcError::IncompatibleModel(_))
        ),
        "incompatible swap must be typed, got {err:?}"
    );
    assert_eq!(err.code(), ErrorCode::Incompatible);

    // A rejected swap must not have bumped the version.
    assert_eq!(server.stats_report().models[0].version, 1);
    assert_eq!(server.stats_report().swaps, 0);

    // Unknown model.
    let input = synthetic_batch(1, 3, IMAGE, 7).remove(0);
    let mut slot = InferSlot::new();
    let mut out = Tensor::default();
    assert_eq!(
        server
            .infer_blocking("nope", &mut slot, &input, &mut out)
            .unwrap_err(),
        ServeError::UnknownModel("nope".into())
    );

    // Wrong input shape.
    let bad = synthetic_batch(1, 3, 16, 7).remove(0);
    let err = server
        .infer_blocking("m", &mut slot, &bad, &mut out)
        .unwrap_err();
    assert!(matches!(err, ServeError::ShapeMismatch { .. }));
    assert_eq!(err.code(), ErrorCode::BadInput);

    // Tampered container bytes.
    let mut tampered = container_bytes(41);
    let n = tampered.len();
    tampered[n / 2] ^= 0x40;
    assert!(matches!(
        server.register_bytes("t", &tampered).unwrap_err(),
        ServeError::Container(_)
    ));

    // After a drain, submits are rejected with the typed shutdown error.
    server.begin_drain();
    assert_eq!(
        server
            .infer_blocking("m", &mut slot, &input, &mut out)
            .unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn preferred_batch_is_clamped_and_positive() {
    let bytes = container_bytes(41);
    let server = test_server(ServeConfig {
        max_batch: 1000, // explicit caps clamp to MAX_BATCH
        ..default_cfg()
    });
    server.register_bytes("m", &bytes).unwrap();
    let m = &server.stats_report().models[0];
    assert!(m.max_batch >= 1 && m.max_batch <= MAX_BATCH as u32);
}

#[test]
fn cli_serve_rejects_bad_configs_nonzero() {
    // No model source at all.
    let out = common::bnnkc(&["serve", "--addr", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--in"));

    // Unknown flag.
    let out = common::bnnkc(&["serve", "--addr", "127.0.0.1:0", "--bogus", "x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // Malformed --model spec.
    let out = common::bnnkc(&["serve", "--addr", "127.0.0.1:0", "--model", "no-equals"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("<name>=<file>"));

    // Duplicate model names.
    let file = TempFile(tmp_file("serve-dup.bkcm"));
    std::fs::write(&file.0, container_bytes(41)).unwrap();
    let path = file.0.to_str().unwrap();
    let spec_a = format!("a={path}");
    let out = common::bnnkc(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--model",
        &spec_a,
        "--model",
        &spec_a,
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("already registered"));

    // Missing container file.
    let out = common::bnnkc(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--in",
        "/nonexistent.bkcm",
    ]);
    assert!(!out.status.success());
}

/// Full TCP lifecycle against the real `bnnkc serve` process: ping,
/// bit-exact inference, hot-swap from a `bnnkc patch`-built container
/// file, stats, graceful shutdown.
#[test]
fn daemon_wire_lifecycle_end_to_end() {
    let v1 = container_bytes(41);
    let fresh = {
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, SCALE, IMAGE).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 42)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        write_model_container_v3(&spec, &kernels).unwrap().to_vec()
    };
    let (patch, _) = diff_containers(&v1, &fresh).unwrap();
    let v2 = apply_patch(&v1, &patch).unwrap();

    let model_file = TempFile(tmp_file("serve-e2e.bkcm"));
    std::fs::write(&model_file.0, &v1).unwrap();
    let swap_file = TempFile(tmp_file("serve-e2e-v2.bkcm"));
    std::fs::write(&swap_file.0, &v2).unwrap();

    let inputs = synthetic_batch(2, 3, IMAGE, WEIGHT_SEED ^ RUN_INPUT_SALT);
    let oracle_v1 = oracle_logits(&v1, &inputs);
    let oracle_v2 = oracle_logits(&v2, &inputs);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bnnkc"))
        .args([
            "serve",
            "--in",
            model_file.0.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--seed",
            &WEIGHT_SEED.to_string(),
            "--image",
            &IMAGE.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("resolved address on the first line")
        .to_string();

    let run = || -> Result<(), String> {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let call = |client: &mut Client, req: &Request| -> Result<Response, String> {
            client.call(req).map_err(|e| e.to_string())
        };
        // Liveness.
        match call(&mut client, &Request::Ping)? {
            Response::Pong => {}
            other => return Err(format!("want Pong, got {other:?}")),
        }
        // Bit-exact inference on v1.
        let infer = |client: &mut Client, i: usize| -> Result<(u32, Vec<u32>), String> {
            let req = Request::Infer(kc_core::wire::InferRequest {
                model: "default".into(),
                seq: i as u64,
                shape: [3, IMAGE as u32, IMAGE as u32],
                data: inputs[i].data().to_vec(),
            });
            match call(client, &req)? {
                Response::Logits { seq, version, data } if seq == i as u64 => {
                    Ok((version, data.iter().map(|v| v.to_bits()).collect()))
                }
                other => Err(format!("want Logits(seq={i}), got {other:?}")),
            }
        };
        let (version, bits) = infer(&mut client, 0)?;
        if version != 1 || bits != oracle_v1[0] {
            return Err("v1 inference mismatch".into());
        }
        // Hot-swap from the patched container file.
        let swap = Request::Swap {
            model: "default".into(),
            path: swap_file.0.to_str().unwrap().into(),
        };
        match call(&mut client, &swap)? {
            Response::Swapped { version: 2 } => {}
            other => return Err(format!("want Swapped(2), got {other:?}")),
        }
        let (version, bits) = infer(&mut client, 1)?;
        if version != 2 || bits != oracle_v2[1] {
            return Err("v2 inference mismatch".into());
        }
        // Stats reflect the swap.
        match call(&mut client, &Request::Stats)? {
            Response::Stats(s) => {
                if s.swaps != 1 || s.models[0].version != 2 {
                    return Err(format!("stats disagree: {s:?}"));
                }
            }
            other => return Err(format!("want Stats, got {other:?}")),
        }
        // Graceful shutdown.
        match call(&mut client, &Request::Shutdown)? {
            Response::Closing => Ok(()),
            other => Err(format!("want Closing, got {other:?}")),
        }
    };
    let result = run();
    if result.is_err() {
        let _ = child.kill();
    }
    result.unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon must exit cleanly after drain");
}
