//! Frontend↔backend wire protocol.
//!
//! Each intercepted API call becomes one [`Call`] to the backend core,
//! mirroring the paper's interception of `cudaMalloc`, `cudaMemcpy`,
//! `cudaConfigureCall`, `cudaSetupArgument` and `cudaLaunch`, and the
//! core answers each with one [`Reply`]. A call carries no transport:
//! the driver that delivers it (in-process, or the daemon thread's
//! channel) decides whether anyone waits for the answer. Fire-and-forget
//! calls (configure/setup-argument) rely on per-frontend call order,
//! exactly like the real shim relies on API call order.

use std::fmt;
use std::sync::Arc;

use ewc_gpu::counters::ActivityInterval;
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{DevicePtr, GpuError};
use ewc_workloads::Workload;

use crate::admission::{Priority, ShedCause};
use crate::stats::BackendStats;

/// Errors surfaced to frontends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Device-side failure.
    Gpu(GpuError),
    /// `launch` was called for a kernel name the backend has no
    /// precompiled template/registration for.
    UnknownKernel(String),
    /// `launch` without a preceding `configure_call`.
    NotConfigured,
    /// The execution configuration does not match the registered kernel.
    BadConfiguration(String),
    /// The backend is gone (channel disconnected).
    Disconnected,
    /// A previously enqueued kernel launch could not be completed by any
    /// rung of the degradation ladder (retry, serial re-dispatch, CPU
    /// fallback). Reported at the next `sync` of the submitting context;
    /// `seq` is the ticket the original `launch` returned.
    KernelFailed {
        /// Ticket (sequence number) of the failed launch.
        seq: u64,
        /// The underlying device error.
        gpu: GpuError,
    },
    /// Backpressure: the admission controller refused this launch
    /// attempt. The frontend should retry after (roughly) the hinted
    /// delay with seeded jitter; the backend sheds permanently after
    /// `busy_retry_limit` attempts. Times are integer microseconds on
    /// the virtual clock (this enum is `Eq`).
    Busy {
        /// Suggested retry delay, microseconds.
        retry_after_us: u64,
        /// Why this attempt was refused.
        cause: ShedCause,
    },
    /// The request was shed permanently by the admission controller:
    /// either a launch exhausted its `Busy` retries, or a queued launch
    /// (`seq = Some`) aged past its deadline and was dropped
    /// CoDel-style before dispatch (reported at the next `sync`).
    Shed {
        /// Ticket of the shed launch, when it had already been queued.
        seq: Option<u64>,
        /// Why it was shed.
        cause: ShedCause,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Gpu(e) => write!(f, "device error: {e}"),
            CoreError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            CoreError::NotConfigured => write!(f, "launch without configure_call"),
            CoreError::BadConfiguration(why) => write!(f, "bad execution configuration: {why}"),
            CoreError::Disconnected => write!(f, "backend disconnected"),
            CoreError::KernelFailed { seq, gpu } => {
                write!(f, "kernel launch (ticket {seq}) failed: {gpu}")
            }
            CoreError::Busy {
                retry_after_us,
                cause,
            } => {
                write!(
                    f,
                    "backend busy ({}); retry after {retry_after_us} us",
                    cause.label()
                )
            }
            CoreError::Shed { seq, cause } => match seq {
                Some(seq) => write!(f, "request (ticket {seq}) shed: {}", cause.label()),
                None => write!(f, "request shed at admission: {}", cause.label()),
            },
        }
    }
}

impl CoreError {
    /// `true` for the backpressure answer a client should retry.
    pub fn is_busy(&self) -> bool {
        matches!(self, CoreError::Busy { .. })
    }

    /// The suggested retry delay in seconds, for `Busy` answers.
    pub fn retry_after_s(&self) -> Option<f64> {
        match self {
            CoreError::Busy { retry_after_us, .. } => Some(*retry_after_us as f64 * 1e-6),
            _ => None,
        }
    }
}

impl std::error::Error for CoreError {}

impl From<GpuError> for CoreError {
    fn from(e: GpuError) -> Self {
        CoreError::Gpu(e)
    }
}

/// Execution configuration captured by `configure_call`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Grid size in blocks.
    pub grid_blocks: u32,
    /// Block size in threads.
    pub threads_per_block: u32,
}

/// A kernel launch waiting in the backend's pending queue.
pub struct KernelRequest {
    /// Submitting context (process) id.
    pub ctx: u64,
    /// Monotonic sequence number (arrival order).
    pub seq: u64,
    /// Registered kernel/workload name (shared, not cloned, along
    /// the submit path).
    pub name: Arc<str>,
    /// Launch arguments (valid in the backend's context — all memory is
    /// backend-allocated).
    pub args: Vec<KernelArg>,
    /// The registered workload implementation.
    pub workload: Arc<dyn Workload>,
    /// Device-clock time at which the launch was enqueued (for latency
    /// accounting and staleness-triggered flushes).
    pub submitted_at_s: f64,
    /// Priority class (admission control sheds low classes first).
    pub priority: Priority,
}

impl fmt::Debug for KernelRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelRequest")
            .field("ctx", &self.ctx)
            .field("seq", &self.seq)
            .field("name", &self.name)
            .field("args", &self.args.len())
            .finish()
    }
}

/// Calls from frontends (and the runtime) to the backend core.
pub enum Call {
    /// `cudaMalloc`.
    Malloc {
        /// Context id.
        ctx: u64,
        /// Bytes requested.
        len: u64,
    },
    /// `cudaFree`.
    Free {
        /// Context id.
        ctx: u64,
        /// Pointer to release.
        ptr: DevicePtr,
    },
    /// `cudaMemcpy` host→device: the data crosses process boundaries via
    /// the backend's staging buffer.
    MemcpyH2D {
        /// Context id.
        ctx: u64,
        /// Destination device pointer.
        dst: DevicePtr,
        /// Byte offset within the allocation.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// `cudaMemcpy` device→host.
    MemcpyD2H {
        /// Context id.
        ctx: u64,
        /// Source device pointer.
        src: DevicePtr,
        /// Byte offset within the allocation.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// `cudaConfigureCall` (fire-and-forget; FIFO-ordered).
    ConfigureCall {
        /// Context id.
        ctx: u64,
        /// Captured configuration.
        config: ExecConfig,
    },
    /// `cudaSetupArgument` (fire-and-forget; used when argument batching
    /// is off).
    SetupArgument {
        /// Context id.
        ctx: u64,
        /// The argument value.
        arg: KernelArg,
    },
    /// `cudaLaunch`: enqueue a kernel. With argument batching on, the
    /// accumulated arguments ride along.
    Launch {
        /// Context id.
        ctx: u64,
        /// Registered kernel name.
        name: Arc<str>,
        /// Batched arguments (None when shipped via `SetupArgument`).
        batched_args: Option<Vec<KernelArg>>,
        /// Priority class for admission control.
        priority: Priority,
        /// How many times this launch has already been answered `Busy`
        /// (the admission controller sheds permanently at the limit).
        attempt: u32,
    },
    /// Load-once constant data (the backend API of Section IV's
    /// application-specific optimisation).
    RegisterConstant {
        /// Context id.
        ctx: u64,
        /// Cache key (e.g. `"aes_ttables"`).
        key: String,
        /// Constant bytes.
        data: Vec<u8>,
    },
    /// Advance the simulated clock to (at least) `to_s` — used by
    /// trace-driven harnesses to model request arrival times. Not an
    /// intercepted API call, so it carries no channel cost.
    AdvanceClock {
        /// Target time in seconds (no-op if already past).
        to_s: f64,
    },
    /// Advance the simulated clock by `by_s` from its current value —
    /// how a closed-loop client waits out a `Busy` backoff interval
    /// without knowing the backend's absolute time. Like
    /// `AdvanceClock`, a harness construct with no channel cost.
    AdvanceClockBy {
        /// Seconds to advance by (clamped at zero).
        by_s: f64,
    },
    /// The frontend is gone (process died or handle dropped). The
    /// backend drains the context's pending launches — a dead process
    /// cannot consume results, and its group peers must not wait for it.
    /// Sent best-effort by [`crate::Frontend`]'s `Drop`; carries no
    /// channel cost (a dying process pays nothing).
    Disconnect {
        /// Context id of the departed frontend.
        ctx: u64,
    },
    /// Block until every pending kernel has executed.
    Sync {
        /// Context id.
        ctx: u64,
    },
    /// Drain every device and end the session: answered with
    /// [`Answer::Shutdown`]. A core that has shut down is gone; later
    /// calls answer [`CoreError::Disconnected`].
    Shutdown,
}

/// A successful answer to one [`Call`].
#[derive(Debug)]
pub enum Answer {
    /// Nothing to return: `free`, the memcpys to the device, `sync`,
    /// and every fire-and-forget call.
    Done,
    /// A device pointer: `malloc`, `register_constant`.
    Ptr(DevicePtr),
    /// The bytes read back by `memcpy_d2h`.
    Bytes(Vec<u8>),
    /// The ticket (sequence number) a `launch` was queued under.
    Ticket(u64),
    /// The session's statistics, each device's activity profile and
    /// the final clock.
    Shutdown(Box<(BackendStats, Vec<Vec<ActivityInterval>>, f64)>),
}

/// The core's answer to one [`Call`].
pub type Reply = Result<Answer, CoreError>;

impl Call {
    /// Context the call belongs to (None for shutdown).
    pub fn ctx(&self) -> Option<u64> {
        match self {
            Call::Malloc { ctx, .. }
            | Call::Free { ctx, .. }
            | Call::MemcpyH2D { ctx, .. }
            | Call::MemcpyD2H { ctx, .. }
            | Call::ConfigureCall { ctx, .. }
            | Call::SetupArgument { ctx, .. }
            | Call::Launch { ctx, .. }
            | Call::RegisterConstant { ctx, .. }
            | Call::Disconnect { ctx }
            | Call::Sync { ctx, .. } => Some(*ctx),
            Call::AdvanceClock { .. } | Call::AdvanceClockBy { .. } | Call::Shutdown => None,
        }
    }

    /// Short name for tracing.
    pub fn kind(&self) -> &'static str {
        match self {
            Call::Malloc { .. } => "malloc",
            Call::Free { .. } => "free",
            Call::MemcpyH2D { .. } => "memcpy_h2d",
            Call::MemcpyD2H { .. } => "memcpy_d2h",
            Call::ConfigureCall { .. } => "configure_call",
            Call::SetupArgument { .. } => "setup_argument",
            Call::Launch { .. } => "launch",
            Call::RegisterConstant { .. } => "register_constant",
            Call::AdvanceClock { .. } => "advance_clock",
            Call::AdvanceClockBy { .. } => "advance_clock_by",
            Call::Disconnect { .. } => "disconnect",
            Call::Sync { .. } => "sync",
            Call::Shutdown => "shutdown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::UnknownKernel("x".into())
            .to_string()
            .contains('x'));
        assert!(CoreError::from(GpuError::EmptyGrid)
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn request_introspection() {
        let c = Call::Malloc { ctx: 3, len: 10 };
        assert_eq!(c.ctx(), Some(3));
        assert_eq!(c.kind(), "malloc");
        assert_eq!(Call::Shutdown.ctx(), None);
    }
}
