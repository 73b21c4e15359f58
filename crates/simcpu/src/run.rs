//! Layer and model runners: the numbers behind Table I's execution-time
//! column and the paper's speedup claims.

use crate::config::CpuConfig;
use crate::exec::{ExecStats, Machine};
use crate::mem::MemStats;
use crate::trace::{self, KernelStream};
use bitnn::model::{ConvMode, LayerWorkload, OpCategory};

/// Which kernel representation the 3×3 convolutions use. Re-exported
/// alias of [`bitnn::model::ConvMode`] for callers of this crate.
pub type Mode = ConvMode;

/// Result of simulating one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    /// Layer name from the workload.
    pub name: String,
    /// Table I category.
    pub category: OpCategory,
    /// Simulated cycles.
    pub cycles: u64,
    /// Pipeline statistics.
    pub exec: ExecStats,
    /// Memory statistics.
    pub mem: MemStats,
}

/// Simulate a single layer on a cold machine.
///
/// `compression_ratio` is the payload compression of this layer's kernel
/// (ignored for `Baseline` weight fetch sizing of non-3×3 layers).
pub fn run_workload(
    cfg: &CpuConfig,
    wl: &LayerWorkload,
    mode: Mode,
    compression_ratio: f64,
) -> LayerStats {
    let mut machine = Machine::new(*cfg);
    run_workload_on(&mut machine, wl, mode, compression_ratio)
}

/// Simulate a single layer on an existing machine (keeps caches warm
/// across layers when called in sequence).
fn run_workload_on(
    machine: &mut Machine,
    wl: &LayerWorkload,
    mode: Mode,
    compression_ratio: f64,
) -> LayerStats {
    run_workload_salted(machine, wl, mode, compression_ratio, 0)
}

/// [`run_workload_on`] with an explicit address salt so consecutive
/// layers occupy distinct memory regions.
fn run_workload_salted(
    machine: &mut Machine,
    wl: &LayerWorkload,
    mode: Mode,
    compression_ratio: f64,
    salt: u64,
) -> LayerStats {
    let stream = KernelStream::from_ratio(wl.num_sequences(), compression_ratio);
    run_workload_stream_salted(machine, wl, mode, stream, salt)
}

/// [`run_workload_salted`] against an explicit compressed stream (real
/// byte length and sequence count from a `.bkcm` record) instead of an
/// analytic compression ratio. Non-3×3 workloads ignore the stream.
fn run_workload_stream_salted(
    machine: &mut Machine,
    wl: &LayerWorkload,
    mode: Mode,
    stream: KernelStream,
    salt: u64,
) -> LayerStats {
    let cfg = *machine.config();
    let start_cycles = machine.cycle();
    let start_mem = machine.mem_stats();
    {
        let mut emit = |op| machine.exec(op);
        match wl.category {
            OpCategory::Conv3x3 => {
                trace::conv3x3_ops_stream(wl, mode, stream, &cfg, salt, &mut emit)
            }
            OpCategory::Conv1x1 => trace::conv1x1_ops(wl, &cfg, salt, &mut emit),
            OpCategory::InputLayer => trace::quant_conv_ops(wl, &cfg, salt, &mut emit),
            OpCategory::OutputLayer => trace::quant_fc_ops(wl, salt, &mut emit),
            OpCategory::Others => {
                trace::elementwise_ops((wl.out_ch * wl.oh * wl.ow) as u64, salt, &mut emit)
            }
        }
    }
    let exec = machine.stats();
    let mem = machine.mem_stats();
    LayerStats {
        name: wl.name.clone(),
        category: wl.category,
        cycles: machine.cycle() - start_cycles,
        exec,
        mem: MemStats {
            l1_hits: mem.l1_hits - start_mem.l1_hits,
            l2_hits: mem.l2_hits - start_mem.l2_hits,
            dram_accesses: mem.dram_accesses - start_mem.dram_accesses,
            dram_bytes: mem.dram_bytes - start_mem.dram_bytes,
            prefetch_covered: mem.prefetch_covered - start_mem.prefetch_covered,
        },
    }
}

/// Result of simulating a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRun {
    /// Per-layer results (including synthesized "Others" passes).
    pub layers: Vec<LayerStats>,
    /// Total cycles.
    pub total_cycles: u64,
    /// Decoding-unit statistics accumulated over the whole run (all
    /// zeros outside `HardwareDecode` mode).
    pub unit: crate::decode_unit::UnitStats,
}

impl ModelRun {
    /// Cycles attributed to one Table I category.
    pub fn category_cycles(&self, cat: OpCategory) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.category == cat)
            .map(|l| l.cycles)
            .sum()
    }

    /// Percentage of total time in one category (Table I's execution-time
    /// column).
    pub fn category_pct(&self, cat: OpCategory) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.category_cycles(cat) as f64 / self.total_cycles as f64 * 100.0
        }
    }

    /// Render the execution-time column of Table I.
    pub fn to_table(&self) -> String {
        let mut s = String::from("Operation     Execution time (%)\n");
        for c in OpCategory::ALL {
            s.push_str(&format!(
                "{:<13} {:>17.1}\n",
                c.label(),
                self.category_pct(c)
            ));
        }
        s
    }
}

/// Simulate all layers of a model.
///
/// `mode` applies to the 3×3 convolutions only (the paper compresses
/// nothing else); `ratios` supplies the per-3×3-layer compression ratio
/// (cycled if shorter than the number of 3×3 layers; pass `&[1.0]` for
/// baseline runs). For every convolution an "Others" element-wise pass
/// (batch-norm + RPReLU + sign) over its output is synthesized, matching
/// the ReActNet block structure.
pub fn run_model(
    cfg: &CpuConfig,
    workloads: &[LayerWorkload],
    mode: Mode,
    ratios: &[f64],
) -> ModelRun {
    assert!(!ratios.is_empty(), "need at least one compression ratio");
    let streams: Vec<KernelStream> = workloads
        .iter()
        .filter(|wl| wl.category == OpCategory::Conv3x3)
        .enumerate()
        .map(|(i, wl)| KernelStream::from_ratio(wl.num_sequences(), ratios[i % ratios.len()]))
        .collect();
    run_model_streams(cfg, workloads, mode, &streams)
}

/// Simulate all layers of a model against *real* compressed streams: one
/// [`KernelStream`] per 3×3 convolution, in layer order, carrying the
/// actual byte length and sequence count of the corresponding `.bkcm`
/// record. This is what `bnnkc simulate --in model.bkcm` runs, so the
/// reported speedup and energy correspond to a concrete compressed model
/// rather than a synthetic ratio.
///
/// # Panics
///
/// Panics if `streams.len()` differs from the number of 3×3 workloads.
pub fn run_model_streams(
    cfg: &CpuConfig,
    workloads: &[LayerWorkload],
    mode: Mode,
    streams: &[KernelStream],
) -> ModelRun {
    let conv3_count = workloads
        .iter()
        .filter(|wl| wl.category == OpCategory::Conv3x3)
        .count();
    assert_eq!(
        streams.len(),
        conv3_count,
        "need one stream per 3x3 layer ({conv3_count}), got {}",
        streams.len()
    );
    let mut machine = Machine::new(*cfg);
    let mut layers = Vec::new();
    let mut conv3_idx = 0usize;
    for (salt, wl) in workloads.iter().enumerate() {
        let stream = if wl.category == OpCategory::Conv3x3 {
            let s = streams[conv3_idx];
            conv3_idx += 1;
            s
        } else {
            KernelStream::from_ratio(wl.num_sequences(), 1.0)
        };
        layers.push(run_workload_stream_salted(
            &mut machine,
            wl,
            mode,
            stream,
            salt as u64,
        ));
        // Post-conv element-wise work (BN + bias + RPReLU + next sign).
        if matches!(wl.category, OpCategory::Conv3x3 | OpCategory::Conv1x1) {
            let others = LayerWorkload {
                name: format!("{}.others", wl.name),
                category: OpCategory::Others,
                in_ch: wl.out_ch,
                out_ch: wl.out_ch,
                kh: 1,
                kw: 1,
                oh: wl.oh,
                ow: wl.ow,
                precision_bits: 32,
            };
            layers.push(run_workload_salted(
                &mut machine,
                &others,
                mode,
                1.0,
                salt as u64,
            ));
        }
    }
    let total_cycles = layers.iter().map(|l| l.cycles).sum();
    ModelRun {
        layers,
        total_cycles,
        unit: machine.unit_stats(),
    }
}

/// Simulate every layer of a model-graph IR spec against real compressed
/// streams: the workloads are derived from the graph's shape inference
/// ([`bitnn::graph::GraphSpec::workloads`]), one [`KernelStream`] per
/// binary 3×3 convolution in topological order. This is what
/// `bnnkc simulate --in model.bkcm` runs for v2 containers, so any
/// architecture the IR expresses — not just ReActNet — simulates without
/// code changes.
///
/// # Errors
///
/// Returns a description if the spec does not validate.
///
/// # Panics
///
/// Panics if `streams.len()` differs from the spec's 3×3 conv count.
pub fn run_spec_streams(
    cfg: &CpuConfig,
    spec: &bitnn::graph::GraphSpec,
    mode: Mode,
    streams: &[KernelStream],
) -> std::result::Result<ModelRun, String> {
    spec.validate().map_err(|e| e.to_string())?;
    Ok(run_model_streams(cfg, &spec.workloads(), mode, streams))
}

/// A baseline-vs-scheme comparison (the paper's headline numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// Scheme cycles.
    pub scheme_cycles: u64,
}

impl Speedup {
    /// `baseline / scheme`: > 1 means the scheme is faster.
    pub fn factor(&self) -> f64 {
        self.baseline_cycles as f64 / self.scheme_cycles as f64
    }
}

/// Run the model in `Baseline` and `mode`, returning the speedup.
pub fn compare_modes(
    cfg: &CpuConfig,
    workloads: &[LayerWorkload],
    mode: Mode,
    ratios: &[f64],
) -> Speedup {
    let base = run_model(cfg, workloads, Mode::Baseline, &[1.0]);
    let scheme = run_model(cfg, workloads, mode, ratios);
    Speedup {
        baseline_cycles: base.total_cycles,
        scheme_cycles: scheme.total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::graph::arch::reactnet_spec;
    use bitnn::model::ReActNetConfig;

    /// The tiny ReActNet's simulator geometry.
    fn tiny_workloads() -> Vec<LayerWorkload> {
        reactnet_spec(&ReActNetConfig::tiny()).unwrap().workloads()
    }

    fn small_conv3() -> LayerWorkload {
        LayerWorkload {
            name: "t.conv3x3".into(),
            category: OpCategory::Conv3x3,
            in_ch: 128,
            out_ch: 128,
            kh: 3,
            kw: 3,
            oh: 8,
            ow: 8,
            precision_bits: 1,
        }
    }

    /// A layer whose kernel (512*512*9 bits = 295 KB) exceeds the 256 KB
    /// L2, so baseline weight fetches stream from DRAM on every tile —
    /// the regime the paper's scheme targets.
    fn weight_bound_conv3() -> LayerWorkload {
        LayerWorkload {
            name: "big.conv3x3".into(),
            category: OpCategory::Conv3x3,
            in_ch: 512,
            out_ch: 512,
            kh: 3,
            kw: 3,
            oh: 4,
            ow: 4,
            precision_bits: 1,
        }
    }

    #[test]
    fn hardware_beats_baseline_on_weight_bound_layers() {
        let cfg = CpuConfig::default();
        let wl = weight_bound_conv3();
        let base = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        let hw = run_workload(&cfg, &wl, Mode::HardwareDecode, 1.33);
        assert!(
            hw.cycles < base.cycles,
            "hw {} vs base {}",
            hw.cycles,
            base.cycles
        );
    }

    #[test]
    fn hardware_gains_little_on_cache_resident_kernels() {
        // Crossover: a 128-channel kernel (18 KB) lives in L1/L2, so the
        // baseline pays almost nothing for weights and the decode unit's
        // pace bounds the hardware mode.
        let cfg = CpuConfig::default();
        let wl = small_conv3();
        let base = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        let hw = run_workload(&cfg, &wl, Mode::HardwareDecode, 1.33);
        let factor = base.cycles as f64 / hw.cycles as f64;
        assert!(
            (0.5..1.2).contains(&factor),
            "cache-resident speedup should be ~neutral, got {factor}"
        );
    }

    #[test]
    fn software_decode_is_slower_than_baseline() {
        let cfg = CpuConfig::default();
        let wl = small_conv3();
        let base = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        let sw = run_workload(&cfg, &wl, Mode::SoftwareDecode, 1.33);
        assert!(
            sw.cycles > base.cycles,
            "sw {} vs base {}",
            sw.cycles,
            base.cycles
        );
    }

    #[test]
    fn hw_moves_fewer_dram_bytes() {
        let cfg = CpuConfig::default();
        let wl = small_conv3();
        let base = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        let hw = run_workload(&cfg, &wl, Mode::HardwareDecode, 1.33);
        assert!(
            hw.mem.dram_bytes < base.mem.dram_bytes,
            "hw {} vs base {}",
            hw.mem.dram_bytes,
            base.mem.dram_bytes
        );
    }

    #[test]
    fn model_run_covers_all_categories() {
        let cfg = CpuConfig::default();
        let run = run_model(&cfg, &tiny_workloads(), Mode::Baseline, &[1.0]);
        for c in OpCategory::ALL {
            assert!(run.category_cycles(c) > 0, "category {c} has no cycles");
        }
        let pct_sum: f64 = OpCategory::ALL.iter().map(|&c| run.category_pct(c)).sum();
        assert!((pct_sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn conv3x3_dominates_execution_time() {
        // Table I: 3x3 convolutions are ~2/3 of the time. The tiny model
        // is not the paper's geometry, so just require dominance.
        let cfg = CpuConfig::default();
        let run = run_model(&cfg, &tiny_workloads(), Mode::Baseline, &[1.0]);
        let conv3 = run.category_pct(OpCategory::Conv3x3);
        for c in [OpCategory::Conv1x1, OpCategory::Others] {
            assert!(conv3 > run.category_pct(c), "conv3x3 must dominate {c}");
        }
    }

    #[test]
    fn table_renders_every_row() {
        let cfg = CpuConfig::default();
        let run = run_model(&cfg, &tiny_workloads(), Mode::Baseline, &[1.0]);
        let t = run.to_table();
        for c in OpCategory::ALL {
            assert!(t.contains(c.label()));
        }
    }

    #[test]
    fn compare_modes_reports_speedup() {
        let cfg = CpuConfig::default();
        let wls = tiny_workloads();
        let s = compare_modes(&cfg, &wls, Mode::HardwareDecode, &[1.33]);
        assert!(s.baseline_cycles > 0 && s.scheme_cycles > 0);
        assert!(
            s.factor() > 0.5 && s.factor() < 3.0,
            "factor {}",
            s.factor()
        );
    }

    #[test]
    #[should_panic(expected = "at least one compression ratio")]
    fn empty_ratios_panics() {
        let cfg = CpuConfig::default();
        run_model(&cfg, &tiny_workloads(), Mode::Baseline, &[]);
    }

    #[test]
    fn stream_run_matches_ratio_run_for_analytic_streams() {
        // run_model is now a thin wrapper over run_model_streams; feeding
        // the analytic streams back in must reproduce it exactly.
        let cfg = CpuConfig::default();
        let wls = tiny_workloads();
        let streams: Vec<KernelStream> = wls
            .iter()
            .filter(|w| w.category == OpCategory::Conv3x3)
            .map(|w| KernelStream::from_ratio(w.num_sequences(), 1.33))
            .collect();
        for mode in [Mode::Baseline, Mode::SoftwareDecode, Mode::HardwareDecode] {
            let via_ratio = run_model(&cfg, &wls, mode, &[1.33]);
            let via_stream = run_model_streams(&cfg, &wls, mode, &streams);
            assert_eq!(via_ratio.total_cycles, via_stream.total_cycles, "{mode:?}");
        }
    }

    #[test]
    fn real_stream_sizes_shift_hardware_cycles() {
        // A measurably smaller real stream must cost fewer hardware-mode
        // cycles than a bloated one on a weight-bound layer.
        let cfg = CpuConfig::default();
        let wl = weight_bound_conv3();
        let seqs = wl.num_sequences();
        let small = KernelStream {
            stream_bytes: seqs * 9 / 8 / 2,
            num_seqs: seqs,
            unique_seqs: seqs,
        };
        let large = KernelStream {
            stream_bytes: seqs * 9 / 8,
            num_seqs: seqs,
            unique_seqs: seqs,
        };
        let run_with = |s: KernelStream| {
            let mut machine = crate::exec::Machine::new(cfg);
            run_workload_stream_salted(&mut machine, &wl, Mode::HardwareDecode, s, 0).cycles
        };
        assert!(run_with(small) < run_with(large));
        assert!((small.ratio() - 2.0).abs() < 0.1, "ratio {}", small.ratio());
    }

    #[test]
    fn dedup_stream_runs_no_slower_in_hardware_mode() {
        // A stream with real sequence reuse (unique < total) drains the
        // decode unit faster; end-to-end cycles must not regress, and on a
        // weight-bound layer they must strictly improve.
        let cfg = CpuConfig::default();
        let wl = weight_bound_conv3();
        let seqs = wl.num_sequences();
        let cold = KernelStream::from_ratio(seqs, 1.33);
        let dedup = KernelStream {
            unique_seqs: seqs / 8,
            ..cold
        };
        let run_with = |s: KernelStream| {
            let mut machine = crate::exec::Machine::new(cfg);
            run_workload_stream_salted(&mut machine, &wl, Mode::HardwareDecode, s, 0).cycles
        };
        assert!(
            run_with(dedup) < run_with(cold),
            "dedup {} vs cold {}",
            run_with(dedup),
            run_with(cold)
        );
    }

    #[test]
    fn spec_streams_match_workload_streams_across_archs() {
        use bitnn::graph::arch::{build_spec, Arch};
        let cfg = CpuConfig::default();
        for arch in Arch::ALL {
            let spec = build_spec(arch, 0.0625, 32).unwrap();
            let streams: Vec<KernelStream> = spec
                .workloads()
                .iter()
                .filter(|w| w.category == OpCategory::Conv3x3)
                .map(|w| KernelStream::from_ratio(w.num_sequences(), 1.33))
                .collect();
            let via_spec = run_spec_streams(&cfg, &spec, Mode::HardwareDecode, &streams).unwrap();
            let via_wls =
                run_model_streams(&cfg, &spec.workloads(), Mode::HardwareDecode, &streams);
            assert_eq!(via_spec.total_cycles, via_wls.total_cycles, "{arch}");
            assert!(via_spec.total_cycles > 0);
        }
    }

    #[test]
    #[should_panic(expected = "one stream per 3x3 layer")]
    fn stream_count_mismatch_panics() {
        let cfg = CpuConfig::default();
        let wls = tiny_workloads();
        run_model_streams(&cfg, &wls, Mode::HardwareDecode, &[]);
    }

    #[test]
    fn warm_machine_accumulates_but_layer_stats_are_differential() {
        let cfg = CpuConfig::default();
        let mut machine = crate::exec::Machine::new(cfg);
        let wl = small_conv3();
        let first = run_workload_salted(&mut machine, &wl, Mode::Baseline, 1.0, 0);
        let second = run_workload_salted(&mut machine, &wl, Mode::Baseline, 1.0, 0);
        // Same region re-run: the second pass hits warm caches.
        assert!(second.cycles <= first.cycles);
        assert!(second.mem.dram_bytes <= first.mem.dram_bytes);
        // Machine cycle is cumulative.
        assert_eq!(machine.cycle(), first.cycles + second.cycles);
    }

    #[test]
    fn salted_layers_do_not_share_cache_lines() {
        let cfg = CpuConfig::default();
        let mut machine = crate::exec::Machine::new(cfg);
        let wl = small_conv3();
        let first = run_workload_salted(&mut machine, &wl, Mode::Baseline, 1.0, 0);
        // A different salt means cold weights again: DRAM traffic returns.
        let other = run_workload_salted(&mut machine, &wl, Mode::Baseline, 1.0, 1);
        assert!(
            other.mem.dram_bytes * 2 > first.mem.dram_bytes,
            "salted layer should be mostly cold: {} vs {}",
            other.mem.dram_bytes,
            first.mem.dram_bytes
        );
    }

    #[test]
    fn others_category_workload_runs() {
        let cfg = CpuConfig::default();
        let wl = LayerWorkload {
            name: "bn".into(),
            category: OpCategory::Others,
            in_ch: 8,
            out_ch: 8,
            kh: 1,
            kw: 1,
            oh: 8,
            ow: 8,
            precision_bits: 32,
        };
        let st = run_workload(&cfg, &wl, Mode::Baseline, 1.0);
        assert!(st.cycles > 0);
        assert_eq!(st.category, OpCategory::Others);
    }
}
