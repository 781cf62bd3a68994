//! End-to-end benchmark of the energy-aware consolidation runtime.
//!
//! Three workloads drive the runtime through its public API from one
//! client thread (plus the backend daemon): an open-loop storm through
//! admission control, an open loop under the DVFS race-to-idle policy,
//! and the paper's own closed-loop sessions. The untraced run reports
//! end-to-end metrics; the traced run times every call the benchmark
//! makes into a layer, replays the run's groups through the layers
//! below the backend, and reports per-layer metrics. See `README.md`.

pub mod bench;
pub mod openloop;
pub mod replay;
pub mod sessions;
pub mod trace;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ewc_core::{CoreError, Frontend};
use ewc_gpu::{DeviceAlloc, DevicePtr, GpuError};

use crate::trace::{Layer, Tracer};

/// A frontend seen through the workloads' allocation interface, with a
/// span and an RPC count around each call `build_args` makes.
pub struct TracedAlloc<'a> {
    /// The frontend the calls go to.
    pub fe: &'a mut Frontend,
    /// Span recorder.
    pub tr: &'a mut Tracer,
    /// Blocking RPC counter.
    pub rpcs: &'a mut u64,
}

/// The frontend's own mapping of framework errors onto device errors.
fn to_gpu(e: CoreError) -> GpuError {
    match e {
        CoreError::Gpu(g) => g,
        other => GpuError::BadConfig(other.to_string()),
    }
}

impl DeviceAlloc for TracedAlloc<'_> {
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        *self.rpcs += 1;
        let fe = &*self.fe;
        self.tr
            .time(Layer::Core, "malloc", || fe.malloc(len))
            .map_err(to_gpu)
    }

    fn upload(&mut self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), GpuError> {
        *self.rpcs += 1;
        let fe = &*self.fe;
        self.tr
            .time(Layer::Core, "memcpy_h2d", || {
                fe.memcpy_h2d(dst, offset, data)
            })
            .map_err(to_gpu)
    }
}

/// Digest of one read-back or host reference.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}
