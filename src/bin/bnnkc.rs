//! `bnnkc` — command-line front end for the kernel-compression pipeline.
//!
//! ```text
//! bnnkc compress   --out model.bkcm [--arch reactnet] [--seed 1]
//!                  [--scale 0.25] [--image 224] [--no-cluster] [--v3]
//! bnnkc inspect    --in model.bkcm|patch.bkcp
//! bnnkc verify     --in model.bkcm [--integrity] [--arch A] [--seed 1]
//!                  [--scale S] [--no-cluster]
//! bnnkc run        --in model.bkcm [--arch A] [--seed 1] [--scale S]
//!                  [--image 224] [--batch 1] [--threads N|auto] [--offline]
//!                  [--backend cpu|scalar]
//! bnnkc diff       base.bkcm new.bkcm -o patch.bkcp
//! bnnkc patch      base.bkcm patch.bkcp -o new.bkcm
//! bnnkc simulate   [--arch A] [--scale 1.0] [--image 224]
//!                  [--ratio 1.33 | --in model.bkcm]
//! bnnkc serve      [--in model.bkcm] [--model name=model.bkcm]...
//!                  [--addr 127.0.0.1:0] [--threads N|auto]
//!                  [--queue-depth 256] [--max-batch auto] [--flush-us 200]
//!                  [--seed 1] [--image 32]
//! bnnkc features   [--json]
//! ```
//!
//! Every command speaks the model-graph IR (`bitnn::graph`), so the whole
//! pipeline is architecture-generic: `--arch` selects a built-in family
//! (`reactnet`, `vggsmall`, `resnetlite`).
//!
//! `compress` builds the family's graph spec, samples its calibrated
//! binary 3×3 kernels, compresses each, and writes one **v2** model
//! container carrying the graph topology next to the kernel streams.
//! `inspect` prints the topology and per-kernel statistics from the
//! container alone. `verify` takes the container's stored topology (an
//! explicit `--scale` is cross-checked against it), regenerates the
//! kernels, and confirms the streams decode to them (bit-exactly without
//! clustering; within Hamming distance 1 per channel with it). `run`
//! executes the full forward pass *from the compressed container* through
//! the graph executor: the model is the container's stored topology (an explicit
//! `--scale` is cross-checked against it up front), then each kernel is
//! stream-decoded straight into
//! channel-packed lane words (`--offline` switches to the
//! decompress-then-pack reference path, which produces bit-identical
//! logits). `simulate` runs the timing model — with `--in` the per-layer
//! stream sizes, sequence counts, and decoder configurations come from
//! the actual container (any architecture), not a synthetic ratio.
//! `serve` runs the batch-coalescing inference daemon: a model registry
//! with per-entry batching queues, backpressure, and wire-protocol
//! hot-swap (see `crates/serve`). `features` reports what this host
//! offers the executor: detected CPU features, the selected SIMD level,
//! the binary GEMM and conv kernels, the int8 kernel and hardware
//! parallelism — `--json` emits the same facts machine-readably.
//!
//! `run --backend` picks what computes the logits: `cpu` (the default)
//! runs the fused plan on the engine, `scalar` runs the naive reference
//! oracle item by item. Both produce bit-identical logits.
//!
//! `diff` emits a `.bkcp` delta patch between two containers (unchanged
//! kernels by digest reference, near-identical ones as sparse channel
//! edits, the rest as full records); `patch` applies it, writing the
//! target **v3** container atomically (temp + fsync + rename — an
//! interrupted write never leaves a torn file). `compress --v3` writes
//! the integrity-checked v3 format directly; `verify --integrity` checks
//! only the stored digests, and `inspect` prints per-record sizes and
//! digests for containers and patches alike, exiting nonzero when any
//! record fails to decode.
//!
//! v1 containers (13 anonymous ReActNet kernels) still load everywhere:
//! their ReActNet schedule is reconstructed from the kernel dimensions.
//!
//! Unrecognized flags are rejected: a typo like `--seeed 7` is an error,
//! not a silently applied default.

use bitnn::layers::BinConv2d;
use bnnkc::prelude::*;
use simcpu::energy::EnergyModel;
use simcpu::exec::ExecStats;
use simcpu::mem::MemStats;
use simcpu::trace::STREAM_BASE;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// `println!` that hands a failed write back to the caller as an error
/// instead of panicking, so `main` can end quietly when stdout is a
/// closed pipe (`bnnkc run … | head -1`).
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

/// `println!` for the long-running `serve`: a failed stdout write is
/// dropped, so a reader that takes the address line and goes away
/// (`bnnkc serve … | head -1`) leaves the server serving.
macro_rules! noteln {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

/// The reader of stdout went away: there is no one left to report to.
#[derive(Debug)]
struct StdoutClosed;

impl std::fmt::Display for StdoutClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("stdout closed")
    }
}

impl std::error::Error for StdoutClosed {}

/// A failed stdout write as a command error: [`StdoutClosed`] for a
/// broken pipe, the I/O error itself otherwise.
fn stdout_error(e: std::io::Error) -> Box<dyn std::error::Error> {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        Box::new(StdoutClosed)
    } else {
        e.into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: bnnkc <compress|inspect|verify|run|diff|patch|simulate|serve|features> [flags]"
        );
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "compress" => cmd_compress(&args),
        "inspect" => cmd_inspect(&args),
        "verify" => cmd_verify(&args),
        "run" => cmd_run(&args),
        "diff" => cmd_diff(&args),
        "patch" => cmd_patch(&args),
        "simulate" => cmd_simulate(&args),
        "serve" => cmd_serve(&args),
        "features" => cmd_features(&args),
        other => {
            eprintln!("unknown command `{other}`");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<StdoutClosed>() => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Validate that every argument after the command is a known flag:
/// `value_flags` consume the following argument, `bool_flags` stand
/// alone. Unknown flags and value flags missing their value are errors —
/// never silently ignored.
fn check_flags(cmd: &str, args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> CliResult {
    let mut i = 1; // args[0] is the command itself
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("flag {a} requires a value").into()),
            }
        } else if bool_flags.contains(&a) {
            i += 1;
        } else {
            let known: Vec<&str> = value_flags.iter().chain(bool_flags).copied().collect();
            let detail = if known.is_empty() {
                format!("`{cmd}` takes no flags")
            } else {
                format!("known flags: {}", known.join(", "))
            };
            return Err(format!("unknown flag `{a}` for `{cmd}` ({detail})").into());
        }
    }
    Ok(())
}

/// Like [`check_flags`] but for commands that also take positional
/// arguments (`diff`/`patch`): returns the positionals in order, with
/// the same strictness about unknown flags and missing values.
fn positional_args<'a>(
    cmd: &str,
    args: &'a [String],
    value_flags: &[&str],
) -> Result<Vec<&'a str>, Box<dyn std::error::Error>> {
    let mut positionals = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("flag {a} requires a value").into()),
            }
        } else if a.starts_with('-') {
            return Err(format!(
                "unknown flag `{a}` for `{cmd}` (known flags: {})",
                value_flags.join(", ")
            )
            .into());
        } else {
            positionals.push(a);
            i += 1;
        }
    }
    Ok(positionals)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every occurrence of a repeatable value flag, in order.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Parse `flag`'s value, or use `default` when the flag is absent.
/// A present-but-unparseable value is an error, not a silent default.
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, Box<dyn std::error::Error>> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for {flag}").into()),
    }
}

fn codec_from(args: &[String]) -> KernelCodec {
    if args.iter().any(|a| a == "--no-cluster") {
        KernelCodec::paper()
    } else {
        KernelCodec::paper_clustered()
    }
}

/// The `--arch` flag, when present.
fn arch_flag(args: &[String]) -> Result<Option<Arch>, Box<dyn std::error::Error>> {
    match flag_value(args, "--arch") {
        None => Ok(None),
        Some(v) => Ok(Some(v.parse::<Arch>()?)),
    }
}

fn parse_scale(args: &[String], default: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let scale: f64 = parse_flag(args, "--scale", default)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    Ok(scale)
}

/// Parse `--threads` through the engine's shared grammar: a positive
/// integer or `auto` (also the default), rejecting `0` with a pointer at
/// `auto` instead of silently running single-threaded.
fn parse_threads(args: &[String]) -> Result<usize, Box<dyn std::error::Error>> {
    bnnkc::bitnn::exec::parse_thread_count(flag_value(args, "--threads")).map_err(Into::into)
}

/// Parse `run --backend`: `cpu` (the default, the fused plan on the
/// engine) or `scalar` (the reference oracle). Returns whether the
/// oracle runs.
fn parse_scalar_backend(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    match flag_value(args, "--backend") {
        None | Some("cpu") => Ok(false),
        Some("scalar") => Ok(true),
        Some(other) => Err(format!("unknown backend '{other}' (expected cpu or scalar)").into()),
    }
}

/// The architecture a container belongs to: its stored arch tag (v2), or
/// ReActNet for v1 containers.
fn container_arch(container: &ModelContainer) -> Result<Arch, Box<dyn std::error::Error>> {
    match &container.spec {
        Some(spec) => spec
            .arch
            .parse::<Arch>()
            .map_err(|_| format!("container was written for unknown arch `{}`", spec.arch).into()),
        None => Ok(Arch::ReActNet),
    }
}

/// Resolve the effective architecture for a read-path command and reject
/// an `--arch` flag that contradicts the container.
fn resolve_arch(
    args: &[String],
    container: &ModelContainer,
) -> Result<Arch, Box<dyn std::error::Error>> {
    let stored = container_arch(container)?;
    match arch_flag(args)? {
        Some(requested) if requested != stored => Err(format!(
            "container was written for --arch {stored}, but --arch {requested} was requested"
        )
        .into()),
        _ => Ok(stored),
    }
}

/// Replace a spec's advisory input image size (the executor and simulator
/// follow `--image`, not the size the container was compressed at).
fn spec_with_image(mut spec: GraphSpec, image: usize) -> GraphSpec {
    if let Some(node) = spec.nodes.first_mut() {
        if let OpSpec::Input { channels, .. } = node.op {
            node.op = OpSpec::Input { channels, image };
        }
    }
    spec
}

/// Up-front geometry check for `run`/`verify`: the container's topology
/// must match the spec of the model the flags describe.
fn check_container_geometry(
    container_spec: &GraphSpec,
    model_spec: &GraphSpec,
    arch: Arch,
    scale: f64,
) -> CliResult {
    if let Err(e) = model_spec.same_topology_ignoring_image(container_spec) {
        return Err(format!(
            "container geometry does not match --arch {arch} --scale {scale}: {e} \
             (wrong --scale or --arch?)"
        )
        .into());
    }
    Ok(())
}

fn cmd_compress(args: &[String]) -> CliResult {
    check_flags(
        "compress",
        args,
        &["--out", "--seed", "--scale", "--arch", "--image"],
        &["--no-cluster", "--v3"],
    )?;
    let out = flag_value(args, "--out").ok_or("--out <file> is required")?;
    let arch = arch_flag(args)?.unwrap_or(Arch::ReActNet);
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let scale = parse_scale(args, 0.25)?;
    let image: usize = parse_flag(args, "--image", 224)?;
    let codec = codec_from(args);
    let spec = build_spec(arch, scale, image)?;
    let kernels = sample_conv3_kernels(&spec, seed)?;
    let mut compressed = Vec::new();
    let (mut orig_bits, mut stream_bits) = (0usize, 0usize);
    for (i, k) in kernels.iter().enumerate() {
        let ck = codec.compress(k)?;
        orig_bits += ck.original_bits();
        stream_bits += ck.stream_bits();
        outln!(
            "conv {:>2}: {:>7} -> {:>7} bits ({:.3}x)",
            i + 1,
            ck.original_bits(),
            ck.stream_bits(),
            ck.ratio()
        );
        compressed.push(ck);
    }
    let v3 = args.iter().any(|a| a == "--v3");
    let bytes = if v3 {
        write_model_container_v3(&spec, &compressed)?
    } else {
        write_model_container_v2(&spec, &compressed)?
    };
    write_atomic(std::path::Path::new(out), &bytes)?;
    outln!(
        "\nwrote {out}: arch {arch}, v{} container, {} bytes, aggregate kernel ratio {:.3}x",
        if v3 { 3 } else { 2 },
        bytes.len(),
        orig_bits as f64 / stream_bits as f64
    );
    Ok(())
}

fn cmd_inspect(args: &[String]) -> CliResult {
    check_flags("inspect", args, &["--in"], &["--stats"])?;
    let input = flag_value(args, "--in").ok_or("--in <file> is required")?;
    let stats = args.iter().any(|a| a == "--stats");
    let bytes = std::fs::read(input)?;
    if bytes.len() >= 4 && &bytes[..4] == bnnkc::kc_core::delta::PATCH_MAGIC {
        return inspect_patch_file(input, &bytes);
    }
    let container = read_model_container(&bytes)?;
    let arch = match &container.spec {
        Some(spec) => format!("arch {} ({} graph nodes)", spec.arch, spec.nodes.len()),
        None => "no topology; ReActNet assumed".to_string(),
    };
    outln!(
        "{input}: v{} container, {} compressed kernels, {} bytes total, {arch}",
        container.version,
        container.kernels.len(),
        bytes.len()
    );
    outln!(
        "file digest {} ({})\n",
        Digest::of(&bytes),
        if container.version == MODEL_VERSION_V3 {
            "stored record digests verified on load"
        } else {
            "no stored digests in this version"
        }
    );
    // Every record must actually decode; a stream that parses but does
    // not decode is a warning and the command exits nonzero.
    let mut warnings = Vec::new();
    for (i, c) in container.kernels.iter().enumerate() {
        let seqs = c.filters * c.channels;
        let record = c.to_bytes();
        outln!(
            "kernel {:>2}: {}x{}x3x3, record {:>6} B, stream {:>7} bits ({:.3}x), \
             code lengths {:?}, tables {:?}, digest {}",
            i + 1,
            c.filters,
            c.channels,
            record.len(),
            c.stream_bits,
            (seqs * 9) as f64 / c.stream_bits as f64,
            c.tree.length_table(),
            (0..c.tree.config().nodes())
                .map(|n| c.tree.table(n).len())
                .collect::<Vec<_>>(),
            Digest::of(&record),
        );
        // One streaming pass both checks the record decodes and, for
        // --stats, yields its sequence-skew statistics (paper Fig. 2: a
        // handful of 9-bit values dominate each kernel).
        match c.decode_histogram() {
            Ok(hist) if stats => {
                let top: Vec<String> = hist
                    .top_k(5)
                    .into_iter()
                    .map(|(seq, count)| {
                        format!(
                            "{:#05x}x{count} ({:.1}%)",
                            seq.value(),
                            100.0 * count as f64 / hist.freq().total() as f64
                        )
                    })
                    .collect();
                outln!(
                    "           {} unique of {} seqs (dedup {:.2}x), \
                     {} H1-cluster roots, top-5 [{}]",
                    hist.freq().distinct(),
                    hist.freq().total(),
                    hist.dedup_ratio(),
                    hist.h1_roots(),
                    top.join(", "),
                );
            }
            Ok(_) => {}
            Err(e) => warnings.push(format!("kernel {}: stream does not decode: {e}", i + 1)),
        }
    }
    if container.spec.is_none() {
        if let Err(e) = container.spec_or_reactnet(224) {
            warnings.push(format!("v1 kernel list is not a ReActNet schedule: {e}"));
        }
    }
    if !warnings.is_empty() {
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        return Err(format!("{} parse warning(s)", warnings.len()).into());
    }
    Ok(())
}

/// `inspect` on a `.bkcp` patch: verifies the whole-file checksum, then
/// prints the base/target digests and the per-entry encoding.
fn inspect_patch_file(input: &str, bytes: &[u8]) -> CliResult {
    let info = inspect_patch(bytes)?;
    outln!(
        "{input}: bkcp patch, {} bytes, {} entries ({} same, {} edits, {} full)",
        bytes.len(),
        info.entries.len(),
        info.stats.same,
        info.stats.edits,
        info.stats.full
    );
    outln!("base container digest:   {}", info.base_digest);
    outln!("target container digest: {}\n", info.target_digest);
    for (node, kind, payload) in &info.entries {
        outln!("node {node:>3}: {kind:<5} ({payload} payload bytes)");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> CliResult {
    check_flags(
        "verify",
        args,
        &["--in", "--seed", "--scale", "--arch"],
        &["--no-cluster", "--integrity"],
    )?;
    let input = flag_value(args, "--in").ok_or("--in <file> is required")?;
    let clustered = !args.iter().any(|a| a == "--no-cluster");
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    // Optional: without it the container's stored topology is the model.
    let scale = match flag_value(args, "--scale") {
        Some(_) => Some(parse_scale(args, 0.25)?),
        None => None,
    };
    let bytes = std::fs::read(input)?;
    if args.iter().any(|a| a == "--integrity") {
        return verify_integrity(input, &bytes);
    }
    let container = read_model_container(&bytes)?;
    let arch = resolve_arch(args, &container)?;
    // Geometry first: an explicit --scale must describe the container's
    // topology, reported clearly before any decoding happens.
    let container_spec = container.spec_or_reactnet(224)?;
    if let Some(scale) = scale {
        check_container_geometry(&container_spec, &build_spec(arch, scale, 224)?, arch, scale)?;
    }
    let kernels = sample_conv3_kernels(&container_spec, seed)?;
    for (i, (c, original)) in container.kernels.iter().zip(&kernels).enumerate() {
        let decoded = c.decode_kernel()?;
        // The streaming group decoder must agree with the offline path on
        // every verified container — the packed words the engine would
        // consume are cross-checked here for free.
        let streamed = c.decode_packed()?;
        if streamed != PackedKernel::pack(&decoded)? {
            return Err(format!("kernel {}: stream decode diverges", i + 1).into());
        }
        if clustered {
            let channels = original.shape()[1];
            let moved = bitnn::weightgen::read_sequences(original)
                .into_iter()
                .zip(bitnn::weightgen::read_sequences(&decoded))
                .map(|(a, b)| (a ^ b).count_ones())
                .enumerate()
                .find(|&(_, bits)| bits > 1);
            if let Some((flat, bits)) = moved {
                let (f, ch) = (flat / channels, flat % channels);
                return Err(
                    format!("kernel {} channel ({f},{ch}) moved {bits} bits", i + 1).into(),
                );
            }
        } else if &decoded != original {
            return Err(format!("kernel {} did not round-trip bit-exactly", i + 1).into());
        }
        outln!("kernel {:>2}: OK", i + 1);
    }
    outln!("\nall kernels verified ({arch})");
    Ok(())
}

/// `verify --integrity`: check the stored digests only — no kernel
/// regeneration, no model comparison. For a v3 container the verifying
/// reader proves every record, the graph section, and the container
/// trailer; for v1/v2 there is nothing stored to verify, so the digests
/// are computed and printed for pinning elsewhere.
fn verify_integrity(input: &str, bytes: &[u8]) -> CliResult {
    let container = read_model_container(bytes)?;
    for (i, d) in container.record_digests().iter().enumerate() {
        outln!("kernel {:>2}: digest {d}", i + 1);
    }
    outln!("file digest: {}", Digest::of(bytes));
    if container.version == MODEL_VERSION_V3 {
        outln!(
            "\n{input}: v3 integrity verified ({} record digests, graph digest, \
             container digest all match)",
            container.kernels.len()
        );
    } else {
        outln!(
            "\n{input}: v{} container carries no stored digests; computed digests \
             printed above (re-compress with --v3 for mandatory integrity)",
            container.version
        );
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> CliResult {
    let pos = positional_args("diff", args, &["-o", "--out"])?;
    let [base_path, new_path] = pos.as_slice() else {
        return Err("usage: bnnkc diff <base.bkcm> <new.bkcm> -o <patch.bkcp>".into());
    };
    let out = flag_value(args, "-o")
        .or_else(|| flag_value(args, "--out"))
        .ok_or("-o <patch.bkcp> is required")?;
    let base = std::fs::read(base_path)?;
    let new = std::fs::read(new_path)?;
    let (patch, stats) = diff_containers(&base, &new)?;
    write_atomic(std::path::Path::new(out), &patch)?;
    outln!(
        "wrote {out}: {} bytes ({:.1}% of {new_path}); {} kernels unchanged, \
         {} as sparse edits, {} full",
        patch.len(),
        100.0 * patch.len() as f64 / new.len() as f64,
        stats.same,
        stats.edits,
        stats.full
    );
    Ok(())
}

fn cmd_patch(args: &[String]) -> CliResult {
    let pos = positional_args("patch", args, &["-o", "--out"])?;
    let [base_path, patch_path] = pos.as_slice() else {
        return Err("usage: bnnkc patch <base.bkcm> <patch.bkcp> -o <new.bkcm>".into());
    };
    let out = flag_value(args, "-o")
        .or_else(|| flag_value(args, "--out"))
        .ok_or("-o <new.bkcm> is required")?;
    let base = std::fs::read(base_path)?;
    let patch = std::fs::read(patch_path)?;
    let target = apply_patch(&base, &patch)?;
    write_atomic(std::path::Path::new(out), &target)?;
    outln!(
        "wrote {out}: v3 container, {} bytes, digest {} (verified against the patch)",
        target.len(),
        Digest::of(&target)
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    check_flags(
        "run",
        args,
        &[
            "--in",
            "--seed",
            "--scale",
            "--image",
            "--batch",
            "--threads",
            "--arch",
            "--backend",
        ],
        &["--offline"],
    )?;
    let input = flag_value(args, "--in").ok_or("--in <file> is required")?;
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    // Optional: without it the container's stored topology is the model.
    let scale = match flag_value(args, "--scale") {
        Some(_) => Some(parse_scale(args, 0.25)?),
        None => None,
    };
    let image: usize = parse_flag(args, "--image", 224)?;
    let batch: usize = parse_flag(args, "--batch", 1)?;
    let threads = parse_threads(args)?;
    let scalar = parse_scalar_backend(args)?;
    let offline = args.iter().any(|a| a == "--offline");
    if image == 0 {
        return Err("--image must be at least 1".into());
    }
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }

    let bytes = std::fs::read(input)?;
    let container = read_model_container(&bytes)?;
    let arch = resolve_arch(args, &container)?;
    // The model is the container's own topology at `--image`. An explicit
    // --scale is cross-checked against it *before* decoding anything, so
    // a wrong --scale/--arch is reported as a geometry mismatch here, not
    // as a shape panic mid-forward.
    let spec = spec_with_image(container.spec_or_reactnet(image)?, image);
    if let Some(scale) = scale {
        check_container_geometry(&spec, &build_spec(arch, scale, image)?, arch, scale)?;
    }

    // Deploy the way `serve` does: every layer gets the seed's synthetic
    // weights except the 3×3 slots, each built straight from its record.
    // Streamed path: Huffman stream → channel-packed lane words → engine
    // weight forms, no intermediate [K, C, 3, 3] tensor. Offline path:
    // decompress to a flat tensor, then pack — the bit-exact reference.
    let engine = Engine::with_threads(threads);
    // Every node is built as its own job on the engine's threads, so the
    // 3×3 decode time is summed over the records (across threads) and is
    // not a share of the deploy's wall time; the threads counted are the
    // ones that decoded a record.
    let t0 = Instant::now();
    let decode_ns = AtomicU64::new(0);
    let decoders = Mutex::new(Vec::new());
    let model = attach_weights_with(&spec, seed, &engine, |slot| {
        let t = Instant::now();
        let me = std::thread::current().id();
        {
            let mut seen = decoders.lock().unwrap_or_else(PoisonError::into_inner);
            if !seen.contains(&me) {
                seen.push(me);
            }
        }
        let c = &container.kernels[slot.index];
        let conv = if offline {
            BinConv2d::new(c.decode_kernel()?, slot.params)
        } else {
            BinConv2d::from_packed(c.decode_packed()?, slot.params)
        };
        decode_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok::<_, Box<dyn std::error::Error + Send + Sync>>(conv)
    })
    .map_err(|e| e as Box<dyn std::error::Error>)?;
    let deploy_ms = t0.elapsed().as_secs_f64() * 1e3;
    let decode_ms = decode_ns.into_inner() as f64 / 1e6;
    let decode_threads = decoders
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .len();

    let input_channels = match spec.nodes.first().map(|n| n.op) {
        Some(OpSpec::Input { channels, .. }) => channels,
        _ => 3,
    };
    let inputs = synthetic_batch(batch, input_channels, image, seed ^ RUN_INPUT_SALT);
    let t1 = Instant::now();
    // The oracle runs item by item on this thread; the fused plan takes
    // the batch-parallel entry point. Report the threads actually used.
    let (backend, used_threads, outputs) = if scalar {
        let outs = inputs
            .iter()
            .map(|x| model.forward_scalar(x))
            .collect::<Result<Vec<_>, _>>()?;
        ("scalar", 1, outs)
    } else {
        let used = engine.policy().effective_threads(u64::MAX);
        ("cpu", used, model.forward_batch(&inputs, &engine)?)
    };
    let forward_ms = t1.elapsed().as_secs_f64() * 1e3;

    let n = container.kernels.len();
    outln!(
        "{input}: arch {arch}, {n} kernels deployed via {}: deploy {deploy_ms:.1} ms, \
         3x3 decode {decode_ms:.1} ms summed over {n} records on {decode_threads} threads",
        if offline {
            "offline decompress+pack"
        } else {
            "streaming decode (stream -> lane words -> engine)"
        }
    );
    outln!(
        "forward: backend {backend}, batch {batch}, image {image}x{image}, {used_threads} threads, \
         {forward_ms:.1} ms"
    );
    for (i, out) in outputs.iter().enumerate() {
        let logits = out.data();
        let argmax = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap_or(0);
        let head: Vec<String> = logits
            .iter()
            .take(4)
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        outln!(
            "item {i}: argmax {argmax}, logits[0..{}] = [{}], digest {:016x}",
            head.len(),
            head.join(" "),
            logits_digest(logits)
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> CliResult {
    check_flags(
        "simulate",
        args,
        &["--image", "--ratio", "--in", "--arch", "--scale"],
        &[],
    )?;
    let image: usize = parse_flag(args, "--image", 224)?;
    if image == 0 {
        return Err("--image must be at least 1".into());
    }
    if let Some(input) = flag_value(args, "--in") {
        if flag_value(args, "--ratio").is_some() {
            return Err("--ratio conflicts with --in: ratios come from the container".into());
        }
        if flag_value(args, "--scale").is_some() {
            return Err("--scale conflicts with --in: geometry comes from the container".into());
        }
        return simulate_container(args, input, image);
    }
    let ratio: f64 = parse_flag(args, "--ratio", 1.33)?;
    if !ratio.is_finite() || ratio <= 0.0 {
        return Err("--ratio must be positive".into());
    }
    let arch = arch_flag(args)?.unwrap_or(Arch::ReActNet);
    let scale = parse_scale(args, 1.0)?;
    let spec = build_spec(arch, scale, image)?;
    let wls = spec.workloads();
    let cpu = CpuConfig::default();
    let base = run_model(&cpu, &wls, Mode::Baseline, &[1.0]);
    let sw = run_model(&cpu, &wls, Mode::SoftwareDecode, &[ratio]);
    let hw = run_model(&cpu, &wls, Mode::HardwareDecode, &[ratio]);
    outln!("arch {arch}, image {image}x{image}, compression ratio {ratio}:");
    print_mode_cycles(&base, &sw, &hw)?;
    Ok(())
}

/// `simulate --in`: every 3×3 layer's stream length, sequence count, and
/// decoder configuration (paper Table III) come from the actual `.bkcm`
/// records, and the layer geometry comes from the container's graph
/// topology — so the speedup and energy reported here describe a real
/// compressed model of any architecture, not a synthetic ratio.
fn simulate_container(args: &[String], input: &str, image: usize) -> CliResult {
    let bytes = std::fs::read(input)?;
    let container = read_model_container(&bytes)?;
    // The simulator needs only the embedded spec, so custom (non-built-in)
    // architectures simulate too; --arch is accepted purely as a
    // cross-check against the stored tag.
    let arch = match &container.spec {
        Some(spec) => spec.arch.clone(),
        None => Arch::ReActNet.name().to_string(),
    };
    if let Some(requested) = arch_flag(args)? {
        if requested.name() != arch {
            return Err(format!(
                "container was written for --arch {arch}, but --arch {requested} was requested"
            )
            .into());
        }
    }
    let spec = spec_with_image(container.spec_or_reactnet(image)?, image);
    let wls = spec.workloads();

    // Each record's histogram gives the unique-sequence count the
    // decode unit's uncompressed table exploits: `streams` models a unit
    // with no dedup information, `dedup_streams` the skew-aware unit.
    let hists = container
        .kernels
        .iter()
        .map(|c| c.decode_histogram())
        .collect::<Result<Vec<_>, _>>()?;
    let streams: Vec<KernelStream> = container
        .kernels
        .iter()
        .map(|c| {
            let num_seqs = (c.filters * c.channels) as u64;
            KernelStream {
                stream_bytes: c.stream.len() as u64,
                num_seqs,
                unique_seqs: num_seqs,
            }
        })
        .collect();
    let dedup_streams: Vec<KernelStream> = streams
        .iter()
        .zip(&hists)
        .map(|(s, hist)| KernelStream {
            unique_seqs: hist.freq().distinct() as u64,
            ..*s
        })
        .collect();

    outln!("{input}: arch {arch}, per-kernel decoder configurations (Table III):");
    let (mut orig_bits, mut comp_bits) = (0u64, 0u64);
    for (i, c) in container.kernels.iter().enumerate() {
        let dc = c.decoder_config(STREAM_BASE);
        orig_bits += dc.num_sequences * 9;
        comp_bits += c.stream_bits as u64;
        outln!(
            "kernel {:>2}: {:>4}x{:<4} {:>6} seqs ({:>3} unique, dedup {:.2}x), \
             stream {:>7} B, ratio {:.3}x, code lengths {:?}",
            i + 1,
            c.filters,
            c.channels,
            dc.num_sequences,
            hists[i].freq().distinct(),
            hists[i].dedup_ratio(),
            dc.stream_len_bytes,
            streams[i].ratio(),
            dc.node_code_lengths,
        );
    }
    outln!(
        "aggregate kernel ratio {:.3}x\n",
        orig_bits as f64 / comp_bits as f64
    );

    let cpu = CpuConfig::default();
    let base = run_model(&cpu, &wls, Mode::Baseline, &[1.0]);
    let sw = run_spec_streams(&cpu, &spec, Mode::SoftwareDecode, &streams)?;
    let hw = run_spec_streams(&cpu, &spec, Mode::HardwareDecode, &streams)?;
    let hw_dedup = run_spec_streams(&cpu, &spec, Mode::HardwareDecode, &dedup_streams)?;
    outln!("image {image}x{image}, streams from {input}:");
    print_mode_cycles(&base, &sw, &hw)?;
    outln!(
        "  hw+dedup: {:>12} cycles ({:.3}x faster; {} table hits, \
         consumer stalls {} -> {})",
        hw_dedup.total_cycles,
        base.total_cycles as f64 / hw_dedup.total_cycles as f64,
        hw_dedup.unit.table_hits,
        hw.unit.consumer_stall_cycles,
        hw_dedup.unit.consumer_stall_cycles,
    );

    // First-order energy (decoding-unit sequences: each 3×3 layer
    // re-streams its kernel once per pixel tile).
    let em = EnergyModel::default();
    let line = cpu.l1.line_bytes as u64;
    let decoded_seqs: u64 = wls
        .iter()
        .filter(|w| w.category == OpCategory::Conv3x3)
        .zip(&streams)
        .map(|(w, s)| ((w.oh * w.ow) as u64).div_ceil(cpu.pixel_tile as u64) * s.num_seqs)
        .sum();
    let energy = |run: &simcpu::run::ModelRun, seqs: u64| {
        let mem = run.layers.iter().fold(MemStats::default(), |mut acc, l| {
            acc.dram_bytes += l.mem.dram_bytes;
            acc.l1_hits += l.mem.l1_hits;
            acc.l2_hits += l.mem.l2_hits;
            acc.dram_accesses += l.mem.dram_accesses;
            acc
        });
        let exec = ExecStats {
            cycles: run.total_cycles,
            ops: run.layers.iter().map(|l| l.exec.ops).sum(),
            ..ExecStats::default()
        };
        em.estimate(&exec, &mem, seqs, line).total_uj()
    };
    let (e_base, e_sw, e_hw) = (energy(&base, 0), energy(&sw, 0), energy(&hw, decoded_seqs));
    outln!("energy (first-order):");
    outln!("  baseline: {e_base:>10.1} uJ");
    outln!("  software: {e_sw:>10.1} uJ ({:.3}x)", e_sw / e_base);
    outln!("  hardware: {e_hw:>10.1} uJ ({:.3}x)", e_hw / e_base);
    Ok(())
}

/// `bnnkc serve`: run the batch-coalescing inference daemon on a TCP
/// socket until a client sends a shutdown request. Models come from
/// `--in <file>` (registered as `default`) and any number of
/// `--model <name>=<file>` flags; each gets its own batching queue and
/// worker. `--addr 127.0.0.1:0` binds an ephemeral port — the resolved
/// address is printed on the first line so scripts can parse it.
fn cmd_serve(args: &[String]) -> CliResult {
    check_flags(
        "serve",
        args,
        &[
            "--in",
            "--model",
            "--addr",
            "--threads",
            "--queue-depth",
            "--max-batch",
            "--flush-us",
            "--seed",
            "--image",
        ],
        &[],
    )?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let threads = parse_threads(args)?;
    let queue_depth: usize = parse_flag(args, "--queue-depth", 256)?;
    let max_batch: usize = parse_flag(args, "--max-batch", 0)?;
    let flush_us: u64 = parse_flag(args, "--flush-us", 200)?;
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let image: usize = parse_flag(args, "--image", 32)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    if image == 0 {
        return Err("--image must be at least 1".into());
    }

    let mut models: Vec<(String, &str)> = Vec::new();
    if let Some(path) = flag_value(args, "--in") {
        models.push(("default".to_string(), path));
    }
    for spec in flag_values(args, "--model") {
        let Some((name, path)) = spec.split_once('=') else {
            return Err(format!("--model takes <name>=<file>, got `{spec}`").into());
        };
        if name.is_empty() || path.is_empty() {
            return Err(format!("--model takes <name>=<file>, got `{spec}`").into());
        }
        models.push((name.to_string(), path));
    }
    if models.is_empty() {
        return Err("at least one of --in <file> or --model <name>=<file> is required".into());
    }

    let cfg = ServeConfig {
        policy: ExecPolicy::with_threads(threads),
        queue_depth,
        max_batch,
        flush: std::time::Duration::from_micros(flush_us),
        seed,
        image,
    };
    let server = Server::new(cfg);
    let listener = std::net::TcpListener::bind(addr)?;
    // First line, machine-parseable: the resolved address.
    noteln!("bnnkc serve: listening on {}", listener.local_addr()?);
    for (name, path) in &models {
        let shape = server.register_path(name, std::path::Path::new(path))?;
        noteln!(
            "registered `{name}` from {path}: input {}x{}x{}, {} classes, \
             max batch {}, queue depth {queue_depth}",
            shape.channels,
            shape.image,
            shape.image,
            shape.classes,
            server
                .stats_report()
                .models
                .iter()
                .find(|m| &m.name == name)
                .map_or(0, |m| m.max_batch),
        );
    }
    noteln!("serving with {threads} threads (shutdown via the wire protocol)");
    serve_listener(&server, &listener)?;
    let s = server.stats_report();
    noteln!(
        "drained: {} served in {} batches, {} rejected, {} swaps",
        s.served,
        s.batches,
        s.rejected,
        s.swaps
    );
    Ok(())
}

/// Minimal JSON string escaping for `features --json` (keys and values
/// here are ASCII identifiers, but stay safe on principle).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `bnnkc features`: what this host offers the executor — detected CPU
/// features, the SIMD level the kernels dispatch at (after any
/// `BITNN_SIMD` cap), the binary GEMM body and the binary conv kernel
/// built on it, the int8 kernel body the 8-bit stem and classifier run,
/// and hardware parallelism.
fn cmd_features(args: &[String]) -> CliResult {
    check_flags("features", args, &[], &["--json"])?;
    use bnnkc::bitnn::{exec, ops::gemm, ops::int8, simd};

    let f = simd::detect();
    let cap = std::env::var("BITNN_SIMD").ok();

    if args.iter().any(|a| a == "--json") {
        // Hand-written JSON (this workspace builds offline, without a
        // serde implementation) — same convention as the perfsuite
        // emitter.
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"cpu_features\": {{\"popcnt\": {}, \"avx2\": {}, \"avx512_vpopcntdq\": {}, \
             \"avx512_vnni\": {}}},\n",
            f.popcnt, f.avx2, f.avx512, f.avx512_vnni
        ));
        out.push_str(&format!(
            "  \"simd_level\": \"{}\",\n",
            json_escape(simd::level().name())
        ));
        out.push_str(&format!(
            "  \"binary_gemm\": \"{}\",\n",
            json_escape(gemm::kernel().name())
        ));
        out.push_str(&format!(
            "  \"binary_conv\": \"{}\",\n",
            json_escape(&gemm::conv_kernel_name())
        ));
        out.push_str(&format!(
            "  \"int8_kernel\": \"{}\",\n",
            json_escape(int8::kernel().name())
        ));
        out.push_str(&format!(
            "  \"simd_env\": {},\n",
            cap.as_deref()
                .map_or("null".to_string(), |v| format!("\"{}\"", json_escape(v)))
        ));
        out.push_str(&format!(
            "  \"hardware_threads\": {},\n",
            exec::hardware_threads()
        ));
        out.push_str(&format!(
            "  \"pool_workers\": {}\n}}",
            exec::hardware_threads().saturating_sub(1)
        ));
        outln!("{out}");
        return Ok(());
    }

    let yn = |b: bool| if b { "yes" } else { "no" };
    outln!("cpu features:");
    outln!("  popcnt:            {}", yn(f.popcnt));
    outln!("  avx2:              {}", yn(f.avx2));
    outln!("  avx512-vpopcntdq:  {}", yn(f.avx512));
    outln!("  avx512-vnni:       {}", yn(f.avx512_vnni));
    outln!(
        "simd level: {} (BITNN_SIMD {})",
        simd::level().name(),
        cap.as_deref()
            .map_or("unset".to_string(), |v| format!("= {v}")),
    );
    outln!("binary gemm: {}", gemm::kernel().name());
    outln!("binary conv: {}", gemm::conv_kernel_name());
    outln!("int8 kernel: {}", int8::kernel().name());
    outln!("hardware threads: {}", exec::hardware_threads());
    Ok(())
}

fn print_mode_cycles(
    base: &simcpu::run::ModelRun,
    sw: &simcpu::run::ModelRun,
    hw: &simcpu::run::ModelRun,
) -> CliResult {
    outln!("  baseline: {:>12} cycles", base.total_cycles);
    outln!(
        "  software: {:>12} cycles ({:.3}x slower)",
        sw.total_cycles,
        sw.total_cycles as f64 / base.total_cycles as f64
    );
    outln!(
        "  hardware: {:>12} cycles ({:.3}x faster)",
        hw.total_cycles,
        base.total_cycles as f64 / hw.total_cycles as f64
    );
    Ok(())
}
