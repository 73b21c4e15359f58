//! Smoke test for the `bnnkc` CLI: every subcommand must work end-to-end
//! from a fresh checkout, and `compress → verify` must round-trip both
//! with clustering (Hamming-1 tolerance) and without (bit-exact).

mod common;

use common::{bnnkc, tmp_file, TempFile};

#[test]
fn compress_verify_inspect_roundtrip_clustered() {
    let out = TempFile(tmp_file("clustered.bkcm"));
    let path = out.0.to_str().unwrap();

    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");
    let stdout = String::from_utf8_lossy(&c.stdout);
    assert!(
        stdout.contains("conv 13"),
        "missing per-conv report: {stdout}"
    );
    assert!(
        stdout.contains("arch reactnet"),
        "missing arch tag: {stdout}"
    );
    assert!(
        stdout.contains("aggregate kernel ratio"),
        "missing summary: {stdout}"
    );

    let v = bnnkc(&["verify", "--in", path, "--scale", "0.125"]);
    assert!(v.status.success(), "verify failed: {v:?}");
    assert!(String::from_utf8_lossy(&v.stdout).contains("all kernels verified"));

    let i = bnnkc(&["inspect", "--in", path]);
    assert!(i.status.success(), "inspect failed: {i:?}");
    let stdout = String::from_utf8_lossy(&i.stdout);
    assert!(
        stdout.contains("13 compressed kernels"),
        "bad inspect header: {stdout}"
    );
    assert!(
        stdout.contains("arch reactnet"),
        "inspect must print the container's arch: {stdout}"
    );
    assert!(
        stdout.contains("code lengths"),
        "missing code lengths: {stdout}"
    );
}

#[test]
fn compress_verify_roundtrip_bit_exact_without_clustering() {
    let out = TempFile(tmp_file("exact.bkcm"));
    let path = out.0.to_str().unwrap();

    let c = bnnkc(&[
        "compress",
        "--out",
        path,
        "--scale",
        "0.125",
        "--no-cluster",
    ]);
    assert!(c.status.success(), "compress failed: {c:?}");
    let v = bnnkc(&["verify", "--in", path, "--scale", "0.125", "--no-cluster"]);
    assert!(v.status.success(), "verify failed: {v:?}");
    assert!(String::from_utf8_lossy(&v.stdout).contains("all kernels verified"));
}

#[test]
fn verify_rejects_wrong_seed() {
    let out = TempFile(tmp_file("seeded.bkcm"));
    let path = out.0.to_str().unwrap();

    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125", "--seed", "1"]);
    assert!(c.status.success(), "compress failed: {c:?}");
    // Clustered containers decode to Hamming-1 neighbours of the seed-1
    // kernels; kernels from a different seed are statistically far away.
    let v = bnnkc(&["verify", "--in", path, "--scale", "0.125", "--seed", "2"]);
    assert!(
        !v.status.success(),
        "verify must fail for a mismatched seed"
    );
}

#[test]
fn simulate_runs_on_defaults_and_small_images() {
    // Small image keeps the smoke test fast; defaults are covered by the
    // run_model path being identical modulo the loop trip counts.
    let s = bnnkc(&["simulate", "--image", "32"]);
    assert!(s.status.success(), "simulate failed: {s:?}");
    let stdout = String::from_utf8_lossy(&s.stdout);
    assert!(
        stdout.contains("baseline"),
        "missing baseline line: {stdout}"
    );
    assert!(
        stdout.contains("software"),
        "missing software line: {stdout}"
    );
    assert!(
        stdout.contains("hardware"),
        "missing hardware line: {stdout}"
    );
}

#[test]
fn run_and_container_simulate_work_end_to_end() {
    let out = TempFile(tmp_file("run.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let r = bnnkc(&[
        "run", "--in", path, "--scale", "0.125", "--image", "32", "--batch", "2",
    ]);
    assert!(r.status.success(), "run failed: {r:?}");
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        stdout.contains("streaming decode"),
        "run must use the streaming path by default: {stdout}"
    );
    assert!(
        stdout.contains("item 1: argmax"),
        "missing logits: {stdout}"
    );

    let s = bnnkc(&["simulate", "--in", path, "--image", "32"]);
    assert!(s.status.success(), "simulate --in failed: {s:?}");
    let stdout = String::from_utf8_lossy(&s.stdout);
    assert!(
        stdout.contains("decoder configurations"),
        "missing per-kernel table: {stdout}"
    );
    assert!(
        stdout.contains("hardware") && stdout.contains("energy"),
        "missing mode/energy report: {stdout}"
    );
    // A container-driven simulate rejects a ratio override.
    assert!(!bnnkc(&["simulate", "--in", path, "--ratio", "2.0"])
        .status
        .success());
}

/// `run` takes its model from the container: with `--scale` omitted it
/// deploys the stored topology (no silent 0.25 default), and an explicit
/// `--scale` is only a cross-check that still fails on a mismatch.
#[test]
fn run_without_scale_uses_the_container_topology() {
    let out = TempFile(tmp_file("run-noscale.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let items = |extra: &[&str]| -> Vec<String> {
        let mut args = vec!["run", "--in", path, "--image", "32", "--batch", "2"];
        args.extend_from_slice(extra);
        let r = bnnkc(&args);
        assert!(r.status.success(), "run {extra:?} failed: {r:?}");
        String::from_utf8_lossy(&r.stdout)
            .lines()
            .filter(|l| l.starts_with("item "))
            .map(str::to_string)
            .collect()
    };
    let implicit = items(&[]);
    assert_eq!(implicit.len(), 2);
    assert_eq!(implicit, items(&["--scale", "0.125"]));

    let r = bnnkc(&["run", "--in", path, "--image", "32", "--scale", "0.25"]);
    assert!(!r.status.success());
    let err = String::from_utf8_lossy(&r.stderr);
    assert!(
        err.contains("geometry does not match --arch reactnet --scale 0.25"),
        "unexpected error: {err}"
    );
}

#[test]
fn verify_without_scale_uses_the_container_topology() {
    let out = TempFile(tmp_file("verify-noscale.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125", "--v3"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let v = bnnkc(&["verify", "--in", path]);
    assert!(v.status.success(), "verify without --scale failed: {v:?}");
    assert!(String::from_utf8_lossy(&v.stdout).contains("all kernels verified"));

    // An explicit --scale is still cross-checked against the container.
    let v = bnnkc(&["verify", "--in", path, "--scale", "0.25"]);
    assert!(!v.status.success(), "wrong --scale must fail verify");
    let err = String::from_utf8_lossy(&v.stderr);
    assert!(
        err.contains("geometry does not match --arch reactnet --scale 0.25"),
        "unexpected error: {err}"
    );
    // The execution-backend flag is gone from verify (it ran no forward).
    assert!(!bnnkc(&["verify", "--in", path, "--backend", "cpu"])
        .status
        .success());
}

#[test]
fn every_arch_compresses_and_inspects() {
    for arch in ["vggsmall", "resnetlite"] {
        let out = TempFile(tmp_file(&format!("smoke-{arch}.bkcm")));
        let path = out.0.to_str().unwrap();
        let c = bnnkc(&[
            "compress", "--out", path, "--arch", arch, "--scale", "0.0625",
        ]);
        assert!(c.status.success(), "{arch} compress failed: {c:?}");
        let i = bnnkc(&["inspect", "--in", path]);
        assert!(i.status.success(), "{arch} inspect failed: {i:?}");
        let stdout = String::from_utf8_lossy(&i.stdout);
        assert!(
            stdout.contains(&format!("arch {arch}")),
            "inspect must print {arch}: {stdout}"
        );
        // simulate in ratio mode also accepts --arch directly.
        let s = bnnkc(&[
            "simulate", "--arch", arch, "--scale", "0.0625", "--image", "16",
        ]);
        assert!(s.status.success(), "{arch} simulate failed: {s:?}");
    }
    // Unknown arch values are rejected.
    assert!(
        !bnnkc(&["compress", "--out", "/tmp/never.bkcm", "--arch", "lenet"])
            .status
            .success()
    );
}

#[test]
fn bad_usage_fails_cleanly() {
    assert!(!bnnkc(&[]).status.success());
    assert!(!bnnkc(&["frobnicate"]).status.success());
    assert!(!bnnkc(&["compress"]).status.success(), "--out is required");
    assert!(!bnnkc(&["verify", "--in", "/nonexistent/path.bkcm"])
        .status
        .success());
    assert!(!bnnkc(&["run", "--in", "/nonexistent/path.bkcm"])
        .status
        .success());
}

#[test]
fn unknown_and_malformed_flags_are_rejected() {
    // A typo must not run with the default silently applied.
    let r = bnnkc(&[
        "compress",
        "--seeed",
        "7",
        "--out",
        "/tmp/never-written.bkcm",
    ]);
    assert!(!r.status.success(), "typoed flag must be rejected");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(
        stderr.contains("--seeed"),
        "error must name the flag: {stderr}"
    );
    assert!(
        !std::path::Path::new("/tmp/never-written.bkcm").exists(),
        "rejected invocation must not write output"
    );

    for bad in [
        vec!["inspect", "--in", "x.bkcm", "--verbose"],
        vec!["verify", "--in", "x.bkcm", "--cluster"],
        vec!["simulate", "--imagee", "64"],
        vec!["run", "--in", "x.bkcm", "--batchsize", "2"],
        vec!["simulate", "--image"], // value flag missing its value
    ] {
        assert!(!bnnkc(&bad).status.success(), "{bad:?} must fail");
    }

    // Nonsense numeric values are errors, not silent defaults.
    assert!(!bnnkc(&["simulate", "--ratio", "-1"]).status.success());
    assert!(!bnnkc(&["simulate", "--ratio", "0"]).status.success());
    assert!(!bnnkc(&["simulate", "--image", "0"]).status.success());
    assert!(
        !bnnkc(&["compress", "--out", "/tmp/x.bkcm", "--scale", "-0.5"])
            .status
            .success()
    );
}

#[test]
fn features_reports_host_capabilities() {
    let f = bnnkc(&["features"]);
    assert!(f.status.success(), "features failed: {f:?}");
    let stdout = String::from_utf8_lossy(&f.stdout);
    assert!(stdout.contains("cpu features"), "missing header: {stdout}");
    assert!(
        stdout.contains("popcnt") && stdout.contains("avx2") && stdout.contains("avx512"),
        "missing feature lines: {stdout}"
    );
    assert!(stdout.contains("simd level:"), "missing level: {stdout}");
    // The 8-bit stem and classifier's int8 kernel tier, capped like
    // every other kernel by BITNN_SIMD.
    assert!(
        ["avx512-vnni", "avx2", "portable"]
            .iter()
            .any(|k| stdout.contains(&format!("int8 kernel: {k}\n"))),
        "missing int8 kernel line: {stdout}"
    );
    // The binary GEMM's panel body, one per SIMD level.
    assert!(
        ["avx512", "avx2", "portable"]
            .iter()
            .any(|k| stdout.contains(&format!("binary gemm: {k}\n"))),
        "missing binary gemm line: {stdout}"
    );
    // The one binary conv kernel, built on that panel body.
    assert!(
        ["avx512", "avx2", "portable"]
            .iter()
            .any(|k| stdout.contains(&format!("binary conv: {k}/tap-panel8\n"))),
        "missing binary conv line: {stdout}"
    );
    let portable = std::process::Command::new(env!("CARGO_BIN_EXE_bnnkc"))
        .arg("features")
        .env("BITNN_SIMD", "portable")
        .output()
        .expect("failed to spawn bnnkc");
    assert!(portable.status.success(), "features failed: {portable:?}");
    let portable = String::from_utf8_lossy(&portable.stdout);
    assert!(
        portable.contains("int8 kernel: portable\n"),
        "int8 kernel not capped by BITNN_SIMD=portable: {portable}"
    );
    assert!(
        portable.contains("binary gemm: portable\n"),
        "binary gemm not capped by BITNN_SIMD=portable: {portable}"
    );
    assert!(
        portable.contains("binary conv: portable/tap-panel8\n"),
        "binary conv not capped by BITNN_SIMD=portable: {portable}"
    );
    assert!(
        stdout.contains("hardware threads:"),
        "missing parallelism: {stdout}"
    );
    // There is one executor: no backend line and no backend env var.
    assert!(
        !stdout.to_lowercase().contains("backend"),
        "stale backend report: {stdout}"
    );
    // The GEMM has one kernel: besides its body line, no GEMM autotuner
    // report.
    let rest: String = stdout
        .lines()
        .filter(|l| !l.starts_with("binary gemm: "))
        .collect();
    for stale in ["gemm", "variant", "narrow", "medium", "wide"] {
        assert!(
            !rest.to_lowercase().contains(stale),
            "stale gemm choice report ({stale}): {stdout}"
        );
    }
    // Every conv runs one kernel: no lowering table and no conv knob.
    for stale in [
        "conv lowering",
        "BITNN_CONV",
        "stream",
        "im2col",
        "autotuned",
    ] {
        assert!(
            !stdout.contains(stale),
            "stale conv report ({stale}): {stdout}"
        );
    }
    // The JSON form carries the same facts.
    let j = bnnkc(&["features", "--json"]);
    assert!(j.status.success(), "features --json failed: {j:?}");
    let json = String::from_utf8_lossy(&j.stdout);
    for key in [
        "\"binary_conv\"",
        "\"int8_kernel\"",
        "\"binary_gemm\"",
        "\"avx512_vnni\"",
    ] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
    let rest: String = json
        .lines()
        .filter(|l| !l.contains("\"binary_gemm\""))
        .collect();
    for stale in ["gemm", "variant", "narrow", "medium", "wide"] {
        assert!(!rest.contains(stale), "stale gemm field ({stale}): {json}");
    }
    for stale in ["conv_autotuner", "conv_env", "lowering"] {
        assert!(!json.contains(stale), "stale conv field ({stale}): {json}");
    }
    assert!(!json.contains("backend"), "stale backend field: {json}");
    // features takes no flags.
    assert!(!bnnkc(&["features", "--verbose"]).status.success());
}

#[test]
fn run_backend_selection_is_bit_exact_and_validated() {
    let out = TempFile(tmp_file("backend.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let base = ["run", "--in", path, "--scale", "0.125", "--image", "16"];
    let digest_of = |out: &std::process::Output| -> String {
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let line = stdout
            .lines()
            .find(|l| l.contains("digest"))
            .unwrap_or_else(|| panic!("no digest line: {stdout}"))
            .to_string();
        line.rsplit(' ').next().unwrap().to_string()
    };

    // Scalar and CPU backends must agree bit-for-bit on the logits, and
    // the `forward:` line reports the threads each one actually used:
    // the oracle runs on one, the engine clamps `--threads 8` to the
    // hardware parallelism.
    let cpu = bnnkc(&[&base[..], &["--backend", "cpu", "--threads", "8"]].concat());
    assert!(cpu.status.success(), "run --backend cpu failed: {cpu:?}");
    let cpu_out = String::from_utf8_lossy(&cpu.stdout);
    assert!(cpu_out.contains("backend cpu"), "{cpu_out}");
    let used = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(8);
    assert!(
        cpu_out.contains(&format!(", {used} threads,")),
        "cpu must report {used} effective threads: {cpu_out}"
    );
    let scalar = bnnkc(&[&base[..], &["--backend", "scalar", "--threads", "8"]].concat());
    assert!(
        scalar.status.success(),
        "run --backend scalar failed: {scalar:?}"
    );
    let scalar_out = String::from_utf8_lossy(&scalar.stdout);
    assert!(scalar_out.contains("backend scalar"), "{scalar_out}");
    assert!(
        scalar_out.contains(", 1 threads,"),
        "scalar must report one thread: {scalar_out}"
    );
    assert_eq!(digest_of(&cpu), digest_of(&scalar));

    // Unknown backends (`auto` included) are rejected with the valid set
    // named.
    for bad in ["gpu", "auto"] {
        let out = bnnkc(&[&base[..], &["--backend", bad]].concat());
        assert!(!out.status.success(), "--backend {bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cpu") && stderr.contains("scalar"),
            "error must list valid backends: {stderr}"
        );
    }
}

#[test]
fn run_threads_auto_resolves_and_zero_is_rejected() {
    let out = TempFile(tmp_file("threads.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    // `auto` resolves via available_parallelism and runs normally.
    let base = ["run", "--in", path, "--scale", "0.125", "--image", "16"];
    let auto = bnnkc(&[&base[..], &["--threads", "auto"]].concat());
    assert!(auto.status.success(), "run --threads auto failed: {auto:?}");
    assert!(String::from_utf8_lossy(&auto.stdout).contains("threads"));

    // Zero is a clear error pointing at `auto`, not a silent 1-thread run.
    let zero = bnnkc(&[&base[..], &["--threads", "0"]].concat());
    assert!(!zero.status.success(), "--threads 0 must be rejected");
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert!(
        stderr.contains("--threads") && stderr.contains("auto"),
        "unhelpful --threads 0 error: {stderr}"
    );

    // Garbage thread counts are rejected too.
    let bad = bnnkc(&[&base[..], &["--threads", "lots"]].concat());
    assert!(!bad.status.success(), "--threads lots must be rejected");
}

/// `bnnkc run … | head -1`: the reader closes the pipe after one line,
/// and `run` ends quietly — exit 0, no panic text on stderr. The batch's
/// item lines (~200 KB) outgrow any pipe buffer, so some write always
/// lands after the close.
#[test]
fn run_ends_quietly_when_stdout_closes() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let out = TempFile(tmp_file("pipe.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_bnnkc"))
        .args([
            "run",
            "--in",
            path,
            "--image",
            "8",
            "--batch",
            "2000",
            "--threads",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn bnnkc");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The single-threaded deploy sums the 3×3 decodes over the records
    // and names the one thread that decoded them.
    assert!(
        first.contains("summed over 13 records on 1 threads"),
        "bad deploy line: {first}"
    );
    let done = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(
        done.status.success(),
        "run failed on a closed pipe: {stderr}"
    );
    assert!(stderr.is_empty(), "run must end quietly: {stderr}");
}

/// `bnnkc serve … | head -1`: the reader takes the address line and
/// closes the pipe. The server keeps serving (its later stdout lines are
/// dropped), answers on the wire, and exits 0 with nothing on stderr
/// after a shutdown request.
#[test]
fn serve_keeps_serving_when_stdout_closes() {
    use bnnkc::prelude::{Client, Request, Response};
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    let out = TempFile(tmp_file("serve-pipe.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_bnnkc"))
        .args([
            "serve",
            "--in",
            path,
            "--addr",
            "127.0.0.1:0",
            "--image",
            "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn bnnkc");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader is gone from here on.
    let addr = first
        .trim()
        .strip_prefix("bnnkc serve: listening on ")
        .unwrap_or_else(|| panic!("bad first line: {first}"))
        .to_string();
    let talk = || -> Result<(), String> {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        for req in [Request::Ping, Request::Shutdown] {
            match (&req, client.call(&req).map_err(|e| e.to_string())?) {
                (Request::Ping, Response::Pong) | (Request::Shutdown, Response::Closing) => {}
                (_, other) => return Err(format!("{req:?} got {other:?}")),
            }
        }
        Ok(())
    };
    let talked = talk();
    if talked.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    talked.unwrap_or_else(|e| panic!("server stopped serving: {e}; stderr: {stderr}"));
    assert!(status.success(), "serve failed on a closed pipe: {stderr}");
    assert!(stderr.is_empty(), "serve must stay quiet: {stderr}");
}

/// The integrity lifecycle end-to-end: `compress --v3` → `verify
/// --integrity`, tamper detection with a nonzero exit, `diff` → `patch`
/// byte-identity, patched output runs, and `inspect` understands both
/// container versions and patches.
#[test]
fn integrity_lifecycle_diff_patch_verify() {
    let base = TempFile(tmp_file("lifecycle-base.bkcm"));
    let new = TempFile(tmp_file("lifecycle-new.bkcm"));
    let patch = TempFile(tmp_file("lifecycle.bkcp"));
    let rebuilt = TempFile(tmp_file("lifecycle-rebuilt.bkcm"));
    let (base_p, new_p) = (base.0.to_str().unwrap(), new.0.to_str().unwrap());
    let (patch_p, rebuilt_p) = (patch.0.to_str().unwrap(), rebuilt.0.to_str().unwrap());
    let flags = ["--arch", "vggsmall", "--scale", "0.0625", "--image", "32"];

    let c = bnnkc(&[&["compress", "--out", base_p][..], &flags].concat());
    assert!(c.status.success(), "compress base failed: {c:?}");
    let c = bnnkc(
        &[
            &["compress", "--out", new_p, "--seed", "2", "--v3"][..],
            &flags,
        ]
        .concat(),
    );
    assert!(c.status.success(), "compress --v3 failed: {c:?}");
    assert!(
        String::from_utf8_lossy(&c.stdout).contains("v3 container"),
        "--v3 must be reported: {c:?}"
    );

    // verify --integrity: v3 verifies stored digests, v2 reports none.
    let v = bnnkc(&["verify", "--in", new_p, "--integrity"]);
    assert!(v.status.success(), "verify --integrity failed: {v:?}");
    assert!(String::from_utf8_lossy(&v.stdout).contains("v3 integrity verified"));
    let v = bnnkc(&["verify", "--in", base_p, "--integrity"]);
    assert!(v.status.success(), "v2 verify --integrity failed: {v:?}");
    assert!(String::from_utf8_lossy(&v.stdout).contains("no stored digests"));

    // A flipped payload byte must fail with a typed integrity message
    // and a nonzero exit.
    let mut tampered = std::fs::read(&new.0).unwrap();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x40;
    let bad = TempFile(tmp_file("lifecycle-tampered.bkcm"));
    std::fs::write(&bad.0, &tampered).unwrap();
    let v = bnnkc(&["verify", "--in", bad.0.to_str().unwrap(), "--integrity"]);
    assert!(!v.status.success(), "tampered v3 must fail verify");
    assert!(
        String::from_utf8_lossy(&v.stderr).contains("integrity violation"),
        "expected a typed integrity error: {v:?}"
    );

    // diff → patch reproduces the v3 target byte-for-byte.
    let d = bnnkc(&["diff", base_p, new_p, "-o", patch_p]);
    assert!(d.status.success(), "diff failed: {d:?}");
    let p = bnnkc(&["patch", base_p, patch_p, "-o", rebuilt_p]);
    assert!(p.status.success(), "patch failed: {p:?}");
    assert_eq!(
        std::fs::read(&new.0).unwrap(),
        std::fs::read(&rebuilt.0).unwrap(),
        "patched container must be byte-identical to the fresh v3 write"
    );

    // The patched container is a fully working model file.
    let r = bnnkc(&[
        "run", "--in", rebuilt_p, "--arch", "vggsmall", "--scale", "0.0625", "--image", "16",
    ]);
    assert!(r.status.success(), "run on patched container failed: {r:?}");

    // inspect prints version, sizes, digests — and reads patches too.
    let i = bnnkc(&["inspect", "--in", rebuilt_p]);
    assert!(i.status.success(), "inspect failed: {i:?}");
    let stdout = String::from_utf8_lossy(&i.stdout);
    assert!(stdout.contains("v3 container"), "missing version: {stdout}");
    assert!(stdout.contains("digest"), "missing digests: {stdout}");
    assert!(stdout.contains("record"), "missing record sizes: {stdout}");
    let i = bnnkc(&["inspect", "--in", patch_p]);
    assert!(i.status.success(), "inspect patch failed: {i:?}");
    let stdout = String::from_utf8_lossy(&i.stdout);
    assert!(stdout.contains("bkcp patch"), "bad patch header: {stdout}");
    assert!(
        stdout.contains("target container digest"),
        "missing target digest: {stdout}"
    );

    // Applying the patch to the wrong base is a typed error.
    let p = bnnkc(&["patch", new_p, patch_p, "-o", rebuilt_p]);
    assert!(!p.status.success(), "wrong base must be rejected");
    assert!(
        String::from_utf8_lossy(&p.stderr).contains("base container"),
        "unhelpful wrong-base error: {p:?}"
    );

    // Positional/flag misuse fails cleanly.
    let d = bnnkc(&["diff", base_p, "-o", patch_p]);
    assert!(!d.status.success(), "diff with one positional must fail");
    let d = bnnkc(&["diff", base_p, new_p]);
    assert!(!d.status.success(), "diff without -o must fail");
    let d = bnnkc(&["diff", base_p, new_p, "--wat", "-o", patch_p]);
    assert!(!d.status.success(), "unknown diff flag must fail");
}

/// `inspect` exits nonzero when the container parses but a record does
/// not describe a loadable model (v1 kernel list that is no ReActNet
/// schedule) — printing the warning instead of succeeding silently.
#[test]
fn inspect_exits_nonzero_on_parse_warnings() {
    use bnnkc::prelude::*;
    let spec = build_spec(Arch::ReActNet, 0.125, 32).unwrap();
    let codec = KernelCodec::paper();
    let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 5)
        .unwrap()
        .iter()
        .take(3) // three kernels can never be the 13-block schedule
        .map(|k| codec.compress(k).unwrap())
        .collect();
    let file = TempFile(tmp_file("warnings.bkcm"));
    std::fs::write(&file.0, write_model_container(&kernels)).unwrap();
    let i = bnnkc(&["inspect", "--in", file.0.to_str().unwrap()]);
    assert!(!i.status.success(), "inspect must exit nonzero on warnings");
    let stderr = String::from_utf8_lossy(&i.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("ReActNet"),
        "missing warning report: {stderr}"
    );
    // --stats keeps the nonzero exit: statistics never mask warnings.
    let i = bnnkc(&["inspect", "--in", file.0.to_str().unwrap(), "--stats"]);
    assert!(
        !i.status.success(),
        "inspect --stats must exit nonzero on warnings too"
    );

    // A v2 container whose last record's stream no longer decodes: one
    // pass checks the record and gathers its statistics, so the damage
    // is reported exactly once, with or without --stats.
    let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 5)
        .unwrap()
        .iter()
        .map(|k| codec.compress(k).unwrap())
        .collect();
    let good = write_model_container_v2(&spec, &kernels).unwrap().to_vec();
    // v2 ends with the last record, whose stream is its tail: flip the
    // first stream byte (from the middle on) that breaks decoding.
    let stream_len = kernels.last().unwrap().stream().len();
    let bad = (good.len() - stream_len / 2..good.len() - 1)
        .map(|at| {
            let mut b = good.clone();
            b[at] ^= 0xFF;
            b
        })
        .find(|b| {
            read_model_container(b)
                .is_ok_and(|c| c.kernels.last().unwrap().decode_kernel().is_err())
        })
        .expect("some flipped stream byte breaks decoding");
    let file = TempFile(tmp_file("corrupt-stream.bkcm"));
    std::fs::write(&file.0, bad).unwrap();
    for extra in [None, Some("--stats")] {
        let mut args = vec!["inspect", "--in", file.0.to_str().unwrap()];
        args.extend(extra);
        let i = bnnkc(&args);
        assert!(!i.status.success(), "{args:?} must exit nonzero");
        let stderr = String::from_utf8_lossy(&i.stderr);
        let warnings: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("warning"))
            .collect();
        assert_eq!(warnings.len(), 1, "{args:?}: {stderr}");
        assert!(
            warnings[0].contains("kernel 13: stream does not decode"),
            "{args:?}: {stderr}"
        );
    }
}

/// `inspect --stats` reports per-record sequence-skew statistics: unique
/// counts, dedup ratio, Hamming-1 roots, and a top-k frequency histogram.
#[test]
fn inspect_stats_reports_sequence_skew() {
    let out = TempFile(tmp_file("stats.bkcm"));
    let path = out.0.to_str().unwrap();
    let c = bnnkc(&["compress", "--out", path, "--scale", "0.125"]);
    assert!(c.status.success(), "compress failed: {c:?}");

    let i = bnnkc(&["inspect", "--in", path, "--stats"]);
    assert!(i.status.success(), "inspect --stats failed: {i:?}");
    let stdout = String::from_utf8_lossy(&i.stdout);
    assert!(
        stdout.contains("unique of") && stdout.contains("dedup"),
        "missing dedup statistics: {stdout}"
    );
    assert!(
        stdout.contains("H1-cluster roots") && stdout.contains("top-5"),
        "missing histogram line: {stdout}"
    );
    // Skewed paper-like kernels always repeat sequences, so at least one
    // record must report a dedup ratio above 1.
    assert!(
        stdout.lines().filter(|l| l.contains("unique of")).count() == 13,
        "one stats line per kernel: {stdout}"
    );

    // Without --stats the lines are absent (the default output is the
    // stable machine-parsed surface).
    let i = bnnkc(&["inspect", "--in", path]);
    assert!(i.status.success());
    assert!(!String::from_utf8_lossy(&i.stdout).contains("unique of"));
}
