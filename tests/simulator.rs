//! Simulator sanity invariants: the timing model must respond to its
//! parameters in physically sensible directions, and deterministically.

use bitnn::graph::arch::reactnet_spec;
use bitnn::model::{LayerWorkload, OpCategory, ReActNetConfig};
use simcpu::config::CpuConfig;
use simcpu::run::{run_model, run_workload, Mode};

fn conv_layer(in_ch: usize, oh: usize) -> LayerWorkload {
    LayerWorkload {
        name: "inv.conv3x3".into(),
        category: OpCategory::Conv3x3,
        in_ch,
        out_ch: in_ch,
        kh: 3,
        kw: 3,
        oh,
        ow: oh,
        precision_bits: 1,
    }
}

#[test]
fn deterministic_across_runs() {
    let cfg = CpuConfig::default();
    let wl = conv_layer(128, 6);
    for mode in [Mode::Baseline, Mode::SoftwareDecode, Mode::HardwareDecode] {
        let a = run_workload(&cfg, &wl, mode, 1.3);
        let b = run_workload(&cfg, &wl, mode, 1.3);
        assert_eq!(a.cycles, b.cycles, "{mode:?} must be deterministic");
        assert_eq!(a.mem, b.mem);
    }
}

#[test]
fn slower_dram_never_speeds_things_up() {
    let wl = conv_layer(256, 6);
    let mut prev = 0u64;
    for latency in [60u64, 120, 240] {
        let mut cfg = CpuConfig::default();
        cfg.dram.latency = latency;
        let st = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        assert!(
            st.cycles >= prev,
            "latency {latency}: {} < previous {prev}",
            st.cycles
        );
        prev = st.cycles;
    }
}

#[test]
fn less_bandwidth_never_speeds_things_up() {
    let wl = conv_layer(256, 6);
    let mut prev = u64::MAX;
    for bw in [1.0f64, 4.0, 16.0] {
        let mut cfg = CpuConfig::default();
        cfg.dram.bytes_per_cycle = bw;
        let st = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        assert!(
            st.cycles <= prev,
            "bw {bw}: {} > previous {prev}",
            st.cycles
        );
        prev = st.cycles;
    }
}

#[test]
fn better_compression_never_hurts_hardware_mode() {
    let wl = conv_layer(512, 4);
    let cfg = CpuConfig::default();
    let mut prev = u64::MAX;
    for ratio in [1.0f64, 1.2, 1.4, 1.8] {
        let st = run_workload(&cfg, &wl, Mode::HardwareDecode, ratio);
        assert!(
            st.cycles <= prev,
            "ratio {ratio}: {} > previous {prev}",
            st.cycles
        );
        prev = st.cycles;
    }
}

#[test]
fn faster_decoder_never_hurts() {
    let wl = conv_layer(512, 4);
    let mut prev = u64::MAX;
    for rate in [0.5f64, 1.0, 2.0, 4.0] {
        let mut cfg = CpuConfig::default();
        cfg.decode_unit.decode_per_cycle = rate;
        let st = run_workload(&cfg, &wl, Mode::HardwareDecode, 1.33);
        assert!(st.cycles <= prev, "rate {rate}: {} > {prev}", st.cycles);
        prev = st.cycles;
    }
}

#[test]
fn higher_sw_decode_cost_is_monotone() {
    let wl = conv_layer(128, 6);
    let mut prev = 0u64;
    for cost in [5u64, 45, 200] {
        let mut cfg = CpuConfig::default();
        cfg.cost.sw_decode_cycles_per_seq = cost;
        let st = run_workload(&cfg, &wl, Mode::SoftwareDecode, 1.33);
        assert!(st.cycles >= prev, "cost {cost}: {} < {prev}", st.cycles);
        prev = st.cycles;
    }
}

#[test]
fn category_cycles_partition_total() {
    let cfg = CpuConfig::default();
    let wls = reactnet_spec(&ReActNetConfig::tiny()).unwrap().workloads();
    let run = run_model(&cfg, &wls, Mode::Baseline, &[1.0]);
    let sum: u64 = OpCategory::ALL
        .iter()
        .map(|&c| run.category_cycles(c))
        .sum();
    assert_eq!(sum, run.total_cycles);
}

#[test]
fn wider_issue_never_hurts() {
    let wl = conv_layer(128, 6);
    let mut prev = u64::MAX;
    for width in [1u64, 2, 4] {
        let mut cfg = CpuConfig::default();
        cfg.cost.issue_width = width;
        let st = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        assert!(st.cycles <= prev, "width {width}: {} > {prev}", st.cycles);
        prev = st.cycles;
    }
}

#[test]
fn bigger_layers_take_longer() {
    let cfg = CpuConfig::default();
    let small = run_workload(&cfg, &conv_layer(64, 4), Mode::Baseline, 1.0);
    let big = run_workload(&cfg, &conv_layer(128, 8), Mode::Baseline, 1.0);
    assert!(
        big.cycles > small.cycles * 4,
        "{} vs {}",
        big.cycles,
        small.cycles
    );
}

#[test]
fn all_modes_agree_on_compute_volume() {
    // The three modes execute the same math; only weight delivery
    // differs. Hardware mode replaces each weight load with exactly one
    // `ldps` and adds one `lddu` per pixel tile — so its op count is the
    // baseline's plus the tile count, no more.
    let cfg = CpuConfig::default();
    let wl = conv_layer(128, 6);
    let base = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
    let hw = run_workload(&cfg, &wl, Mode::HardwareDecode, 1.33);
    let tiles = (wl.oh as u64 * wl.ow as u64).div_ceil(cfg.pixel_tile as u64);
    assert_eq!(hw.exec.ops, base.exec.ops + tiles);
}
