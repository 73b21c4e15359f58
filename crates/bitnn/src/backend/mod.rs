//! How plan steps are computed: the CPU step kernels the executor runs,
//! and the scalar oracle every forward is checked against.
//!
//! The graph side ([`crate::graph`]) owns *what* runs — the step
//! vocabulary, the fused step list, the liveness pass that assigns arena
//! slots, and the dispatch loop (`run_plan`). This module owns *how*:
//!
//! * `cpu` — one function per step of the fused plan, lowered onto the
//!   tiled/parallel [`Engine`](crate::engine::Engine) kernels with SIMD
//!   dispatch (see [`crate::simd`]), channel-packed activations staged
//!   in a reused [`CpuScratch`](crate::engine::CpuScratch), zero
//!   steady-state allocation. `run_plan` calls it directly.
//! * [`ScalarBackend`] — the frozen reference: a node-by-node walk with
//!   naive per-layer forwards, fresh allocations and no fusion. Slow,
//!   obvious, and the bit-exactness oracle behind
//!   [`ModelGraph::forward_scalar`](crate::graph::ModelGraph::forward_scalar).
//!   It keeps every node's value, so a step's output can be compared
//!   with the node it produces.
//!
//! The two are bit-exact by construction: the binary convolutions are
//! integer, and the float stages apply the same per-element operations
//! in the same order. The conformance suite
//! (`tests/backend_conformance.rs`) enforces this across random graphs,
//! shapes, conv lowerings and thread counts.

pub(crate) mod cpu;
pub(crate) mod scalar;
mod stages;

pub use scalar::ScalarBackend;
pub use stages::fused_epilogue_into;

/// Fetch the layer behind a node, panicking on a kind mismatch — the plan
/// is derived from the same node list, so a mismatch is a planner bug.
macro_rules! layer {
    ($nodes:expr, $idx:expr, $variant:path) => {
        match $nodes[$idx].op {
            $variant(ref l) => l,
            ref other => unreachable!("planner wired {} into a {:?}", $idx, other.tag()),
        }
    };
}
pub(crate) use layer;
