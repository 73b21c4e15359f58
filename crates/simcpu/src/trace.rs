//! Trace generation: walking a layer's loop nest.
//!
//! The generators emit [`TraceOp`]s through a callback (traces for full
//! layers run to tens of millions of ops, so they are never materialized).
//! The binary 3×3 convolution follows the daBNN-style blocking the paper's
//! premise rests on: a tile of output pixels is held in vector registers
//! while the *whole kernel* streams past it, so weight traffic is
//! `tiles × kernel_bytes` and weight loads sit on the critical path
//! (paper Sec. I: "the loads to fetch the weights are in the critical
//! path"). The three modes differ only in how those weights arrive:
//!
//! * [`ConvMode::Baseline`] — channel-packed words loaded through the
//!   caches;
//! * [`ConvMode::SoftwareDecode`] — the compressed stream is decoded by
//!   scalar code into a scratch buffer once per layer, then the baseline
//!   loop runs against the scratch (paper Sec. IV-B: 1.47x slower);
//! * [`ConvMode::HardwareDecode`] — `lddu` arms the decoding unit per
//!   tile and the loop pops packed words with `ldps`.

use crate::config::CpuConfig;
use bitnn::model::{ConvMode, LayerWorkload};

/// Base address of the weight region.
pub const WEIGHT_BASE: u64 = 0x1000_0000;
/// Base address of the activation region.
pub const ACT_BASE: u64 = 0x2000_0000;
/// Base address of the output region.
pub const OUT_BASE: u64 = 0x3000_0000;
/// Base address of the compressed stream.
pub const STREAM_BASE: u64 = 0x4000_0000;
/// Base address of the software decoder's scratch buffer.
pub const SCRATCH_BASE: u64 = 0x5000_0000;

/// One event of the execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Demand load through the cache hierarchy.
    Load {
        /// Byte address.
        addr: u64,
        /// Size in bytes.
        bytes: u32,
    },
    /// Store (write-allocate, fire-and-forget).
    Store {
        /// Byte address.
        addr: u64,
        /// Size in bytes.
        bytes: u32,
    },
    /// `count` vector ops (each one xnor+popcount+accumulate, or the
    /// 8-bit MAC equivalent).
    Vop {
        /// Number of vector instructions.
        count: u32,
    },
    /// Scalar busy-work of a fixed cycle cost (software decoding).
    Scalar {
        /// Cycles consumed.
        cycles: u32,
    },
    /// Configure and arm the decoding unit.
    Lddu {
        /// Stream base address.
        stream_addr: u64,
        /// Compressed stream length in bytes.
        stream_bytes: u64,
        /// Number of bit sequences in the stream.
        num_seqs: u64,
        /// Distinct sequence values in the stream. Repeats hit the unit's
        /// uncompressed table and bypass the Huffman decoder.
        unique_seqs: u64,
        /// Packed channel groups the stream yields (9 words each).
        num_groups: u64,
    },
    /// Pop one packed word from the decoding unit.
    Ldps,
}

/// 64-bit lanes covering `c` channels.
fn lanes64(c: usize) -> u64 {
    c.div_ceil(64) as u64
}

/// Per-layer region bases: `(weights, acts, outputs, stream, scratch)`.
/// Each layer gets a distinct 8 MB window inside each region so layers
/// sharing a machine do not alias in the caches.
fn region_bases(salt: u64) -> (u64, u64, u64, u64, u64) {
    let off = (salt % 32) * 0x80_0000;
    (
        WEIGHT_BASE + off,
        ACT_BASE + off,
        OUT_BASE + off,
        STREAM_BASE + off,
        SCRATCH_BASE + off,
    )
}

/// Compressed stream size for a kernel of `num_seqs` sequences at a given
/// payload compression ratio.
pub fn stream_bytes(num_seqs: u64, compression_ratio: f64) -> u64 {
    ((num_seqs * 9) as f64 / compression_ratio / 8.0).ceil() as u64
}

/// The compressed stream backing one 3×3 layer's kernel: either measured
/// from a real `.bkcm` container (the `simulate --in` path) or synthesized
/// analytically from a compression ratio ([`KernelStream::from_ratio`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStream {
    /// Encoded stream length in bytes.
    pub stream_bytes: u64,
    /// Codewords in the stream (one per kernel channel).
    pub num_seqs: u64,
    /// Distinct sequence values among the codewords. Synthetic streams
    /// assume the worst case (`unique_seqs == num_seqs`); streams measured
    /// from a real container carry the record's distinct-sequence count.
    pub unique_seqs: u64,
}

impl KernelStream {
    /// Synthesize a stream for `num_seqs` sequences at a payload ratio.
    /// Assumes no repeated sequences (`unique_seqs == num_seqs`).
    pub fn from_ratio(num_seqs: u64, compression_ratio: f64) -> Self {
        KernelStream {
            stream_bytes: stream_bytes(num_seqs, compression_ratio),
            num_seqs,
            unique_seqs: num_seqs,
        }
    }

    /// Effective payload compression ratio of this stream.
    pub fn ratio(&self) -> f64 {
        (self.num_seqs * 9) as f64 / (self.stream_bytes * 8) as f64
    }
}

/// Generate the binary 3×3 convolution trace from an analytic
/// compression ratio (see [`conv3x3_ops_stream`] for real streams).
///
/// `salt` offsets every region's base address so that consecutive layers
/// sharing one machine do not alias in the caches.
///
/// # Panics
///
/// Panics if the workload is not a 3×3 layer.
#[cfg(test)]
fn conv3x3_ops(
    wl: &LayerWorkload,
    mode: ConvMode,
    compression_ratio: f64,
    cfg: &CpuConfig,
    salt: u64,
    emit: &mut dyn FnMut(TraceOp),
) {
    let stream = KernelStream::from_ratio(wl.num_sequences(), compression_ratio);
    conv3x3_ops_stream(wl, mode, stream, cfg, salt, emit);
}

/// Generate the binary 3×3 convolution trace against an explicit
/// compressed stream — the entry point for container-driven simulation,
/// where `stream` carries the *actual* byte length and sequence count of
/// a `.bkcm` record rather than an analytic estimate.
///
/// # Panics
///
/// Panics if the workload is not a 3×3 layer.
pub fn conv3x3_ops_stream(
    wl: &LayerWorkload,
    mode: ConvMode,
    stream: KernelStream,
    cfg: &CpuConfig,
    salt: u64,
    emit: &mut dyn FnMut(TraceOp),
) {
    assert_eq!((wl.kh, wl.kw), (3, 3), "conv3x3_ops needs a 3x3 layer");
    let lanes = lanes64(wl.in_ch);
    let pixels = (wl.oh * wl.ow) as u64;
    let tile = cfg.pixel_tile as u64;
    let k_filters = wl.out_ch as u64;
    let num_seqs = stream.num_seqs;
    let unique_seqs = stream.unique_seqs.min(num_seqs);
    let num_groups = k_filters * lanes;
    let sbytes = stream.stream_bytes;
    let in_w = (wl.ow * 2 + 2) as u64; // generous input row pitch
    let (w_base, a_base, o_base, s_base, scratch) = region_bases(salt);

    // Software decode: decompress the whole stream into scratch once.
    if mode == ConvMode::SoftwareDecode {
        let groups = num_seqs.div_ceil(64);
        let bytes_per_group = sbytes.div_ceil(groups).max(1) as u32;
        for g in 0..groups {
            emit(TraceOp::Load {
                addr: s_base + g * bytes_per_group as u64,
                bytes: bytes_per_group,
            });
            emit(TraceOp::Scalar {
                cycles: (64 * cfg.cost.sw_decode_cycles_per_seq) as u32,
            });
            for w in 0..9 {
                emit(TraceOp::Store {
                    addr: scratch + (g * 9 + w) * 8,
                    bytes: 8,
                });
            }
        }
    }

    let weight_base = if mode == ConvMode::SoftwareDecode {
        scratch
    } else {
        w_base
    };

    let mut tile_start = 0u64;
    while tile_start < pixels {
        let tile_px = tile.min(pixels - tile_start);
        if mode == ConvMode::HardwareDecode {
            emit(TraceOp::Lddu {
                stream_addr: s_base,
                stream_bytes: sbytes,
                num_seqs,
                unique_seqs,
                num_groups,
            });
        }
        for k in 0..k_filters {
            for cg in 0..lanes {
                // Fetch this (filter, channel-group)'s nine packed words.
                match mode {
                    ConvMode::Baseline | ConvMode::SoftwareDecode => {
                        let base = weight_base + (k * lanes + cg) * 9 * 8;
                        for pos in 0..9u64 {
                            emit(TraceOp::Load {
                                addr: base + pos * 8,
                                bytes: 8,
                            });
                        }
                    }
                    ConvMode::HardwareDecode => {
                        for _ in 0..9 {
                            emit(TraceOp::Ldps);
                        }
                    }
                }
                // Apply them to every pixel of the tile.
                for px in 0..tile_px {
                    let p = tile_start + px;
                    let (oy, ox) = (p / wl.ow as u64, p % wl.ow as u64);
                    for pos in 0..9u64 {
                        let (ky, kx) = (pos / 3, pos % 3);
                        let iy = oy * 2 + ky; // stride folded into pitch
                        let ix = ox * 2 + kx;
                        emit(TraceOp::Load {
                            addr: a_base + ((iy * in_w + ix) * lanes + cg) * 8,
                            bytes: 8,
                        });
                    }
                    emit(TraceOp::Vop { count: 9 });
                }
            }
            // Write the tile's outputs for this filter.
            for px in 0..tile_px {
                emit(TraceOp::Store {
                    addr: o_base + ((tile_start + px) * k_filters + k) * 4,
                    bytes: 4,
                });
            }
        }
        tile_start += tile_px;
    }
}

/// Generate the binary 1×1 convolution trace (never compressed — the
/// paper only compresses 3×3 kernels).
pub fn conv1x1_ops(wl: &LayerWorkload, cfg: &CpuConfig, salt: u64, emit: &mut dyn FnMut(TraceOp)) {
    let lanes = lanes64(wl.in_ch);
    let pixels = (wl.oh * wl.ow) as u64;
    let tile = cfg.pixel_tile as u64;
    let k_filters = wl.out_ch as u64;
    let (w_base, a_base, o_base, _, _) = region_bases(salt);
    let mut tile_start = 0u64;
    while tile_start < pixels {
        let tile_px = tile.min(pixels - tile_start);
        for k in 0..k_filters {
            for cg in 0..lanes {
                emit(TraceOp::Load {
                    addr: w_base + (k * lanes + cg) * 8,
                    bytes: 8,
                });
                for px in 0..tile_px {
                    let p = tile_start + px;
                    emit(TraceOp::Load {
                        addr: a_base + (p * lanes + cg) * 8,
                        bytes: 8,
                    });
                    emit(TraceOp::Vop { count: 1 });
                }
            }
            for px in 0..tile_px {
                emit(TraceOp::Store {
                    addr: o_base + ((tile_start + px) * k_filters + k) * 4,
                    bytes: 4,
                });
            }
        }
        tile_start += tile_px;
    }
}

/// Generate the 8-bit quantized convolution trace (the input layer).
pub fn quant_conv_ops(
    wl: &LayerWorkload,
    cfg: &CpuConfig,
    salt: u64,
    emit: &mut dyn FnMut(TraceOp),
) {
    let pixels = (wl.oh * wl.ow) as u64;
    let tile = cfg.pixel_tile as u64;
    let k_filters = wl.out_ch as u64;
    let wrow = (wl.in_ch * wl.kh * wl.kw) as u64; // bytes (i8 weights)
    let macs_per_vop = 16u64; // 128-bit vector of 8-bit MACs
    let (w_base, a_base, o_base, _, _) = region_bases(salt);
    let mut tile_start = 0u64;
    while tile_start < pixels {
        let tile_px = tile.min(pixels - tile_start);
        for k in 0..k_filters {
            emit(TraceOp::Load {
                addr: w_base + k * wrow,
                bytes: wrow as u32,
            });
            for px in 0..tile_px {
                let p = tile_start + px;
                emit(TraceOp::Load {
                    addr: a_base + p * wrow,
                    bytes: wrow as u32,
                });
                emit(TraceOp::Vop {
                    count: wrow.div_ceil(macs_per_vop) as u32,
                });
            }
            for px in 0..tile_px {
                emit(TraceOp::Store {
                    addr: o_base + ((tile_start + px) * k_filters + k) * 4,
                    bytes: 4,
                });
            }
        }
        tile_start += tile_px;
    }
}

/// Generate the 8-bit fully-connected trace (the output layer): one
/// weight-row stream per output neuron.
pub fn quant_fc_ops(wl: &LayerWorkload, salt: u64, emit: &mut dyn FnMut(TraceOp)) {
    let in_bytes = wl.in_ch as u64; // i8 weights
    let (w_base, a_base, o_base, _, _) = region_bases(salt);
    for o in 0..wl.out_ch as u64 {
        emit(TraceOp::Load {
            addr: w_base + o * in_bytes,
            bytes: in_bytes as u32,
        });
        emit(TraceOp::Load {
            addr: a_base,
            bytes: in_bytes as u32,
        });
        emit(TraceOp::Vop {
            count: in_bytes.div_ceil(16) as u32,
        });
        emit(TraceOp::Store {
            addr: o_base + o * 4,
            bytes: 4,
        });
    }
}

/// Generate an element-wise full-precision pass (batch-norm, RPReLU,
/// sign): load, transform, store, 16 f32 elements per 64-byte line.
pub fn elementwise_ops(elems: u64, salt: u64, emit: &mut dyn FnMut(TraceOp)) {
    let (_, a_base, o_base, _, _) = region_bases(salt);
    let lines = elems.div_ceil(16);
    for l in 0..lines {
        emit(TraceOp::Load {
            addr: a_base + l * 64,
            bytes: 64,
        });
        emit(TraceOp::Vop { count: 4 });
        emit(TraceOp::Store {
            addr: o_base + l * 64,
            bytes: 64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::model::OpCategory;

    fn wl3() -> LayerWorkload {
        LayerWorkload {
            name: "t.conv3x3".into(),
            category: OpCategory::Conv3x3,
            in_ch: 64,
            out_ch: 64,
            kh: 3,
            kw: 3,
            oh: 4,
            ow: 4,
            precision_bits: 1,
        }
    }

    fn collect(mode: ConvMode) -> Vec<TraceOp> {
        let cfg = CpuConfig::default();
        let mut v = Vec::new();
        conv3x3_ops(&wl3(), mode, 1.33, &cfg, 0, &mut |op| v.push(op));
        v
    }

    #[test]
    fn baseline_weight_traffic_is_tiles_times_kernel() {
        let ops = collect(ConvMode::Baseline);
        let wloads = ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Load { addr, .. } if *addr >= WEIGHT_BASE && *addr < ACT_BASE))
            .count() as u64;
        let wl = wl3();
        let tiles = (wl.oh * wl.ow).div_ceil(CpuConfig::default().pixel_tile) as u64;
        assert_eq!(wloads, (tiles * wl.out_ch as u64) * 9);
    }

    #[test]
    fn hw_mode_replaces_weight_loads_with_ldps() {
        let ops = collect(ConvMode::HardwareDecode);
        let wloads = ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Load { addr, .. } if *addr >= WEIGHT_BASE && *addr < ACT_BASE))
            .count();
        assert_eq!(wloads, 0, "hardware mode loads no weights through caches");
        let ldps = ops.iter().filter(|op| matches!(op, TraceOp::Ldps)).count() as u64;
        let lddu = ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Lddu { .. }))
            .count() as u64;
        let wl = wl3();
        let tiles = (wl.oh * wl.ow).div_ceil(CpuConfig::default().pixel_tile) as u64;
        assert_eq!(lddu, tiles);
        assert_eq!(ldps, tiles * wl.out_ch as u64 * 9);
        // ldps count per lddu matches the packed words a stream yields.
        let groups = wl.num_sequences().div_ceil(64);
        assert_eq!(ldps / lddu, groups * 9);
    }

    #[test]
    fn sw_mode_prepends_decode_phase() {
        let ops = collect(ConvMode::SoftwareDecode);
        let scalar: u64 = ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Scalar { cycles } => Some(*cycles as u64),
                _ => None,
            })
            .sum();
        let wl = wl3();
        let expect = wl.num_sequences().div_ceil(64)
            * 64
            * CpuConfig::default().cost.sw_decode_cycles_per_seq;
        assert_eq!(scalar, expect);
        // The conv phase then reads from scratch, not the weight region.
        assert!(ops
            .iter()
            .any(|op| matches!(op, TraceOp::Load { addr, .. } if *addr >= SCRATCH_BASE)));
    }

    #[test]
    fn vop_count_equals_macs_over_64() {
        let ops = collect(ConvMode::Baseline);
        let vops: u64 = ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Vop { count } => Some(*count as u64),
                _ => None,
            })
            .sum();
        let wl = wl3();
        assert_eq!(vops, wl.macs() / 64);
    }

    #[test]
    fn all_modes_compute_the_same_work() {
        let base: u64 = collect(ConvMode::Baseline)
            .iter()
            .filter_map(|op| match op {
                TraceOp::Vop { count } => Some(*count as u64),
                _ => None,
            })
            .sum();
        for mode in [ConvMode::SoftwareDecode, ConvMode::HardwareDecode] {
            let v: u64 = collect(mode)
                .iter()
                .filter_map(|op| match op {
                    TraceOp::Vop { count } => Some(*count as u64),
                    _ => None,
                })
                .sum();
            assert_eq!(v, base, "{mode:?} must do the same math");
        }
    }

    #[test]
    fn stream_bytes_shrink_with_ratio() {
        assert_eq!(stream_bytes(4096, 1.0), 4608);
        assert!(stream_bytes(4096, 1.33) < 3600);
        assert!(stream_bytes(4096, 1.33) > 3000);
    }

    #[test]
    fn conv1x1_has_no_position_loop() {
        let cfg = CpuConfig::default();
        let wl = LayerWorkload {
            name: "t.conv1x1".into(),
            category: OpCategory::Conv1x1,
            in_ch: 64,
            out_ch: 32,
            kh: 1,
            kw: 1,
            oh: 4,
            ow: 4,
            precision_bits: 1,
        };
        let mut v = Vec::new();
        conv1x1_ops(&wl, &cfg, 0, &mut |op| v.push(op));
        let vops: u64 = v
            .iter()
            .filter_map(|op| match op {
                TraceOp::Vop { count } => Some(*count as u64),
                _ => None,
            })
            .sum();
        assert_eq!(vops, wl.macs() / 64);
    }

    #[test]
    fn elementwise_scales_with_elems() {
        let mut small = Vec::new();
        elementwise_ops(64, 0, &mut |op| small.push(op));
        let mut big = Vec::new();
        elementwise_ops(640, 0, &mut |op| big.push(op));
        assert_eq!(big.len(), small.len() * 10);
    }
}
