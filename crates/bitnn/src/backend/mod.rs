//! Execution backends: pluggable "how do steps run" strategies behind
//! the backend-neutral graph executor.
//!
//! The graph side ([`crate::graph`]) owns *what* runs — step vocabulary,
//! step-list builders, the liveness pass that assigns arena slots, and
//! the dispatch loop. A [`Backend`] owns *how*: it compiles a node list
//! into the step list it wants to execute ([`Backend::compile`]), carries
//! its own opaque scratch state ([`Backend::new_scratch`]), and computes
//! one step at a time into a caller-provided tensor
//! ([`Backend::execute_step`]).
//!
//! Two backends ship:
//!
//! * [`CpuBackend`] — the production path: fused steps, the
//!   tiled/parallel [`Engine`] kernels with SIMD dispatch (see
//!   [`crate::simd`]), channel-packed activations staged in reused
//!   buffers, zero steady-state allocation.
//! * [`ScalarBackend`] — the frozen reference: unfused steps, naive
//!   per-node forwards, fresh allocations. Slow, obvious, and the
//!   bit-exactness oracle every other backend is tested against.
//!
//! All backends are bit-exact with each other by construction: the binary
//! convolutions are integer, and the float stages apply the same
//! per-element operations in the same order. The conformance suite
//! (`tests/backend_conformance.rs`) enforces this across random graphs,
//! shapes, and thread counts.
//!
//! Selection is explicit — `--backend` on the CLI, [`BackendKind`] in
//! code — with an `auto` mode that honors the `BITNN_BACKEND`
//! environment variable and otherwise picks the CPU backend.

mod cpu;
pub(crate) mod scalar;
mod stages;

pub use cpu::CpuBackend;
pub use scalar::ScalarBackend;

use std::any::Any;
use std::fmt;
use std::str::FromStr;

use crate::engine::Engine;
use crate::error::Result;
use crate::exec::ExecPolicy;
use crate::graph::{CompiledPlan, GraphNode, Step};
use crate::tensor::Tensor;

/// Everything a backend sees when executing one step: the graph's node
/// list (layer weights live there), the step itself, and the operand
/// tensors the dispatch loop resolved from the arena.
pub struct StepCtx<'a> {
    /// The graph's nodes, in topological order.
    pub nodes: &'a [GraphNode],
    /// The step to execute.
    pub step: &'a Step,
    /// First operand value (every non-input step reads at least one).
    pub a: &'a Tensor,
    /// Second operand value (present only for [`Step::Add`]).
    pub b: Option<&'a Tensor>,
}

/// A pluggable execution strategy for compiled model graphs.
///
/// The contract with the dispatch loop
/// (`crate::graph` / [`crate::graph::ModelGraph::forward_on`]):
///
/// * `compile` chooses the step list (fused or unfused) and funnels it
///   through [`CompiledPlan::from_steps`], so the arena aliasing
///   guarantees hold for every backend.
/// * `execute_step` is handed operands resolved by the loop and must
///   write the step's full result into `dst` (whose previous contents
///   are unspecified — it is a recycled arena buffer).
/// * `scratch` is whatever `new_scratch` returned; the backend downcasts
///   it back. Backends must not stash results there across steps — all
///   dataflow goes through the arena.
/// * Every backend must be bit-exact with [`ScalarBackend`] on every
///   graph: same float results, same integer conv outputs.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Short stable name (`"cpu"`, `"scalar"`) for reports and logs.
    fn name(&self) -> &'static str;

    /// Compile a validated node list into the plan this backend executes.
    fn compile(&self, nodes: &[GraphNode]) -> CompiledPlan;

    /// Fresh backend-private scratch state for one forward stream.
    fn new_scratch(&self) -> Box<dyn Any + Send>;

    /// Execute one step into `dst` using the backend's scratch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BitnnError`] for unsupported runtime geometry
    /// (e.g. a fused shortcut stride other than 1 or 2).
    fn execute_step(
        &self,
        ctx: StepCtx<'_>,
        scratch: &mut (dyn Any + Send),
        dst: &mut Tensor,
    ) -> Result<()>;

    /// The execution policy this backend runs under (thread count,
    /// lowering, inline threshold).
    fn policy(&self) -> ExecPolicy;
}

/// Which backend to run — the CLI's `--backend` flag and the programmatic
/// selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Pick automatically: the `BITNN_BACKEND` environment variable when
    /// it names a concrete backend, otherwise the CPU backend.
    #[default]
    Auto,
    /// The fused, tiled, SIMD-dispatched engine path.
    Cpu,
    /// The naive scalar reference path.
    Scalar,
}

impl BackendKind {
    /// All concrete kinds, for sweeps and help text.
    pub const ALL: [BackendKind; 2] = [BackendKind::Cpu, BackendKind::Scalar];

    /// Resolve `Auto` to a concrete kind: `BITNN_BACKEND` when it parses
    /// to one, otherwise [`BackendKind::Cpu`]. Concrete kinds pass
    /// through unchanged.
    pub fn resolve(self) -> BackendKind {
        let kind = match self {
            BackendKind::Auto => std::env::var("BITNN_BACKEND")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(BackendKind::Auto),
            k => k,
        };
        match kind {
            // `BITNN_BACKEND=auto` (or unset) falls through to the
            // production backend.
            BackendKind::Auto => BackendKind::Cpu,
            k => k,
        }
    }

    /// Instantiate the backend. Engine-backed kinds run on `engine`; the
    /// scalar backend ignores it (it is single-threaded by design).
    pub fn create(self, engine: Engine) -> Box<dyn Backend> {
        match self.resolve() {
            BackendKind::Auto | BackendKind::Cpu => Box::new(CpuBackend::new(engine)),
            BackendKind::Scalar => Box::new(ScalarBackend),
        }
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "auto" => Ok(BackendKind::Auto),
            "cpu" => Ok(BackendKind::Cpu),
            "scalar" => Ok(BackendKind::Scalar),
            other => Err(format!(
                "unknown backend '{other}' (expected auto, cpu, or scalar)"
            )),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Auto => "auto",
            BackendKind::Cpu => "cpu",
            BackendKind::Scalar => "scalar",
        })
    }
}

/// Every registered backend, for conformance sweeps: the scalar oracle
/// first, then the CPU backend at the given thread count.
pub fn all_backends(threads: usize) -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(ScalarBackend),
        Box::new(CpuBackend::new(Engine::with_threads(threads))),
    ]
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_and_display_roundtrip() {
        for kind in [BackendKind::Auto, BackendKind::Cpu, BackendKind::Scalar] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert!("gpu".parse::<BackendKind>().is_err());
    }

    #[test]
    fn auto_resolves_to_a_concrete_kind() {
        // Whatever the environment says, Auto must never survive
        // resolution, and concrete kinds pass through.
        assert_ne!(BackendKind::Auto.resolve(), BackendKind::Auto);
        assert_eq!(BackendKind::Scalar.resolve(), BackendKind::Scalar);
        assert_eq!(BackendKind::Cpu.resolve(), BackendKind::Cpu);
    }

    #[test]
    fn registry_lists_scalar_first() {
        let backends = all_backends(1);
        assert_eq!(backends[0].name(), "scalar");
        assert!(backends.iter().any(|b| b.name() == "cpu"));
    }
}
