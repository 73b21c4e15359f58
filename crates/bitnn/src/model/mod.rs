//! The ReActNet model (paper Fig. 1 and Table I).

pub mod reactnet;
pub mod storage;
pub mod workload;

pub use reactnet::{BlockSpec, ReActNetConfig};
pub use storage::{OpCategory, StorageBreakdown};
pub use workload::{ConvMode, LayerWorkload};
