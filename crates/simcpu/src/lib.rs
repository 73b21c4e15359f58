//! # simcpu — cycle-approximate CPU + decoding-unit model
//!
//! The hardware substrate of the kernel-compression study: the paper
//! extends an ARM A53's load–store unit with a *decoding unit* that
//! streams, decompresses, and channel-packs encoded bit sequences, driven
//! by two new instructions (`lddu`, `ldps`), and evaluates it in gem5.
//! This crate replaces that toolchain with a trace-driven,
//! cycle-approximate model:
//!
//! * [`mem`] — set-associative L1/L2 caches (LRU, write-back), a
//!   bandwidth/latency DRAM model with a streaming prefetcher;
//! * [`exec`] — an in-order, dual-issue execution model with a small
//!   miss-queue (MSHR) budget and load-to-use stalls;
//! * [`decode_unit`] — the paper's streaming + packing unit (Fig. 6):
//!   background fetch of the compressed stream, table-driven decode at a
//!   configurable rate, a bounded register file, and `lddu`/`ldps`
//!   semantics;
//! * [`trace`] — generators that walk a convolution's loop nest in the
//!   three modes the paper compares: channel-packed baseline, software
//!   decoding (1.47x slower), and hardware decoding (1.35x faster);
//! * [`run`] — per-layer and whole-model runners that produce the numbers
//!   behind Table I's execution-time column and the speedup claims.
//!
//! Everything is parameterized by [`config::CpuConfig`], whose defaults
//! mirror paper Table IV.
//!
//! # Quick example
//!
//! ```
//! use simcpu::config::CpuConfig;
//! use simcpu::run::{run_workload, Mode};
//! use bitnn::graph::arch::reactnet_spec;
//! use bitnn::model::ReActNetConfig;
//!
//! // Geometry only: the simulator needs the graph spec, not weights.
//! let workloads = reactnet_spec(&ReActNetConfig::tiny())?.workloads();
//! let cfg = CpuConfig::default();
//! let base = run_workload(&cfg, &workloads[1], Mode::Baseline, 1.0);
//! assert!(base.cycles > 0);
//! # Ok::<(), bitnn::BitnnError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod decode_unit;
pub mod energy;
pub mod exec;
pub mod mem;
pub mod run;
pub mod trace;

pub use config::{CacheConfig, CpuConfig, DecodeUnitConfig, DramConfig};
pub use run::{run_workload, LayerStats, Mode};
