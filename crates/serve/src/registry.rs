//! Container → executable model deployment for the registry.
//!
//! A registry entry is a [`ModelEntry`]: a weighted [`ModelGraph`] built
//! from an integrity-verified `.bkcm` container (v1–v3), tagged with a
//! monotonic version that every hot-swap bumps. The graph topology comes
//! from the container's embedded spec (reconstructed from kernel
//! dimensions for v1) and the non-compressed layers' weights are
//! regenerated from the serve-wide seed. Each compressible 3×3 slot is
//! built in one pass from its record: the Huffman stream is decoded
//! straight into channel-packed lane words. No 3×3 kernel is ever
//! sampled, and the record geometry is checked against the topology
//! before any stream is decoded.

use crate::error::{Result, ServeError};
use bitnn::graph::arch::attach_weights_with;
use bitnn::graph::ShapeInfo;
use bitnn::layers::BinConv2d;
use bitnn::{Engine, ModelGraph};
use kc_core::container::{read_model_container, ModelContainer};
use kc_core::KcError;

/// One deployed model version. Batches in flight hold an `Arc` of this,
/// so a hot-swap never invalidates a forward that already started.
#[derive(Debug)]
pub struct ModelEntry {
    /// The executable graph with deployed kernels.
    pub graph: ModelGraph,
    /// Monotonic registry version (1 for the initial registration).
    pub version: u32,
}

/// Input/output geometry of a deployed entry: what submit-time shape
/// validation and response sizing key on. Fixed across hot-swaps — a
/// swap that would change it is rejected as incompatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelShape {
    /// Input channels.
    pub channels: usize,
    /// Input image side.
    pub image: usize,
    /// Logit count.
    pub classes: usize,
}

impl ModelShape {
    /// The `[1, c, h, w]` tensor shape requests must carry.
    pub fn input_shape(&self) -> [usize; 4] {
        [1, self.channels, self.image, self.image]
    }
}

/// Read the entry geometry off a graph.
pub(crate) fn shape_of(graph: &ModelGraph) -> Result<ModelShape> {
    let shapes = graph.spec().shapes()?;
    let (channels, image) = match shapes.first() {
        Some(ShapeInfo::Map { ch, h, w }) if h == w => (*ch, *h),
        _ => {
            return Err(ServeError::Container(KcError::IncompatibleModel(
                "container spec has no square image input".into(),
            )))
        }
    };
    let classes = match shapes.last() {
        Some(ShapeInfo::Flat { features }) => *features,
        _ => {
            return Err(ServeError::Container(KcError::IncompatibleModel(
                "container spec does not end in a flat logit vector".into(),
            )))
        }
    };
    Ok(ModelShape {
        channels,
        image,
        classes,
    })
}

/// Deploy a parsed container: rebuild the weighted graph from its spec
/// (fallback `image` is only used for spec-less v1 containers), with each
/// compressible 3×3 slot built straight from its decoded record.
///
/// Every node is built as its own job, on as many threads as `engine`
/// allows ([`attach_weights_with`]): each record decodes on its own, and
/// the weights are the same at any thread count.
///
/// The record geometry is checked against the spec before anything is
/// decoded, so a mismatched container costs no decode work and returns
/// [`KcError::IncompatibleModel`].
pub fn deploy(
    container: &ModelContainer,
    engine: &Engine,
    seed: u64,
    image: usize,
    version: u32,
) -> Result<ModelEntry> {
    let spec = container.spec_or_reactnet(image)?;
    spec.validate()?;
    let slots = spec.conv3_geometries();
    if slots.len() != container.kernels.len() {
        return Err(incompatible(format!(
            "container has {} kernels, the topology needs {}",
            container.kernels.len(),
            slots.len()
        )));
    }
    for (i, (g, c)) in slots.iter().zip(&container.kernels).enumerate() {
        if (g.filters, g.channels) != (c.filters, c.channels) {
            return Err(incompatible(format!(
                "kernel {i} is {}x{}, the topology needs {}x{}",
                c.filters, c.channels, g.filters, g.channels
            )));
        }
    }
    let graph = attach_weights_with(&spec, seed, engine, |slot| {
        let packed = container.kernels[slot.index].decode_packed()?;
        Ok::<_, ServeError>(BinConv2d::from_packed(packed, slot.params))
    })?;
    Ok(ModelEntry { graph, version })
}

fn incompatible(msg: String) -> ServeError {
    ServeError::Container(KcError::IncompatibleModel(msg))
}

/// Parse + deploy container bytes (integrity-verified for v3): [`deploy`]
/// on `engine`'s threads.
pub fn deploy_bytes(
    bytes: &[u8],
    engine: &Engine,
    seed: u64,
    image: usize,
    version: u32,
) -> Result<ModelEntry> {
    let container = read_model_container(bytes)?;
    deploy(&container, engine, seed, image, version)
}

/// Validate that `candidate` can hot-swap `current`: identical topology
/// (arch/scale) and identical input image, so queued request tensors
/// and the response geometry stay valid across the swap.
pub(crate) fn check_swap_compatible(current: &ModelGraph, candidate: &ModelGraph) -> Result<()> {
    if let Err(e) = current
        .spec()
        .same_topology_ignoring_image(candidate.spec())
    {
        return Err(ServeError::Container(KcError::IncompatibleModel(format!(
            "hot-swap rejected (arch/scale mismatch): {e}"
        ))));
    }
    let (cur, new) = (shape_of(current)?, shape_of(candidate)?);
    if cur != new {
        return Err(ServeError::Container(KcError::IncompatibleModel(format!(
            "hot-swap rejected: serving geometry {cur:?} would become {new:?}"
        ))));
    }
    Ok(())
}
