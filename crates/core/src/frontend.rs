//! The frontend shim (Section IV).
//!
//! "The frontend is a shared library, loaded into applications to
//! intercept specific CUDA Runtime API calls" — here, a handle each user
//! "process" (thread) holds. Every call goes to the backend core through
//! the runtime's `Driver` — stepped in-process on virtual-clock runs,
//! or sent to the daemon thread otherwise — and blocks on the answer,
//! matching the synchronous CUDA runtime API; either way the core
//! charges the channel round trip on the simulated clock. With
//! **argument batching** on, `setup_argument` values accumulate locally
//! and ride along with `launch`, cutting the per-call round trips that
//! dominate small-workload consolidation overhead.

use std::sync::Arc;

use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{DevicePtr, SimRng};

use crate::admission::Priority;
use crate::backend::Driver;
use crate::protocol::{Answer, Call, CoreError, ExecConfig};

/// A per-process frontend handle. Cloning is intentionally not provided:
/// one frontend = one process context, as in the paper.
pub struct Frontend {
    ctx: u64,
    driver: Driver,
    batching: bool,
    held_args: Vec<KernelArg>,
    /// Per-frontend jitter stream for backoff under `Busy` answers.
    /// Seeded from the context id alone — never shared state — so
    /// same-seed overload replays stay byte-identical no matter how
    /// wakeups interleave across frontends.
    rng: SimRng,
}

impl Frontend {
    pub(crate) fn new(ctx: u64, driver: Driver, batching: bool) -> Self {
        Frontend {
            ctx,
            driver,
            batching,
            held_args: Vec::new(),
            rng: SimRng::seed_from_u64(
                0x6f76_6572_6c6f_6164u64 ^ ctx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        }
    }

    /// This frontend's context id.
    pub fn ctx(&self) -> u64 {
        self.ctx
    }

    /// A call answered with a device pointer.
    fn ptr_call(&self, call: Call) -> Result<DevicePtr, CoreError> {
        let Answer::Ptr(ptr) = self.driver.call(call)? else {
            unreachable!("the core answers this call with a pointer")
        };
        Ok(ptr)
    }

    /// A launch, answered with its ticket.
    fn ticket_call(&self, call: Call) -> Result<u64, CoreError> {
        let Answer::Ticket(seq) = self.driver.call(call)? else {
            unreachable!("the core answers a launch with a ticket")
        };
        Ok(seq)
    }

    /// `cudaMalloc`.
    pub fn malloc(&self, len: u64) -> Result<DevicePtr, CoreError> {
        self.ptr_call(Call::Malloc { ctx: self.ctx, len })
    }

    /// `cudaFree`.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), CoreError> {
        self.driver
            .call(Call::Free { ctx: self.ctx, ptr })
            .map(drop)
    }

    /// `cudaMemcpyHostToDevice`.
    pub fn memcpy_h2d(&self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), CoreError> {
        self.driver
            .call(Call::MemcpyH2D {
                ctx: self.ctx,
                dst,
                offset,
                data: data.to_vec(),
            })
            .map(drop)
    }

    /// `cudaMemcpyDeviceToHost`.
    pub fn memcpy_d2h(&self, src: DevicePtr, offset: u64, len: u64) -> Result<Vec<u8>, CoreError> {
        let Answer::Bytes(bytes) = self.driver.call(Call::MemcpyD2H {
            ctx: self.ctx,
            src,
            offset,
            len,
        })?
        else {
            unreachable!("the core answers a read-back with bytes")
        };
        Ok(bytes)
    }

    /// `cudaConfigureCall`: capture the execution configuration.
    pub fn configure_call(
        &self,
        grid_blocks: u32,
        threads_per_block: u32,
    ) -> Result<(), CoreError> {
        self.driver.post(Call::ConfigureCall {
            ctx: self.ctx,
            config: ExecConfig {
                grid_blocks,
                threads_per_block,
            },
        })
    }

    /// `cudaSetupArgument`: with batching on, held locally until
    /// [`Frontend::launch`]; otherwise forwarded immediately.
    pub fn setup_argument(&mut self, arg: KernelArg) -> Result<(), CoreError> {
        if self.batching {
            self.held_args.push(arg);
            Ok(())
        } else {
            self.driver.post(Call::SetupArgument { ctx: self.ctx, arg })
        }
    }

    /// `cudaLaunch`: enqueue the kernel for (possible) consolidation.
    /// Returns a ticket; completion is observed via [`Frontend::sync`].
    pub fn launch(&mut self, kernel: &str) -> Result<u64, CoreError> {
        self.launch_attempt(kernel, 0)
    }

    /// One launch attempt; `attempt` counts prior [`CoreError::Busy`]
    /// answers (the backend sheds permanently at its retry limit). With
    /// batching on, the held arguments survive a `Busy` answer so the
    /// retry can resend them without replaying `setup_argument`.
    pub fn launch_attempt(&mut self, kernel: &str, attempt: u32) -> Result<u64, CoreError> {
        let batched = if self.batching {
            Some(self.held_args.clone())
        } else {
            None
        };
        let r = self.ticket_call(Call::Launch {
            ctx: self.ctx,
            name: Arc::from(kernel),
            batched_args: batched,
            priority: Priority::Normal,
            attempt,
        });
        if self.batching && !matches!(r, Err(CoreError::Busy { .. })) {
            self.held_args.clear();
        }
        r
    }

    /// Launch with explicit arguments, bypassing the held-argument
    /// buffer — the open-loop harness path, where several arrivals from
    /// one stream can be in flight (and in `Busy` backoff) at once.
    pub fn launch_with(
        &mut self,
        kernel: &str,
        args: Vec<KernelArg>,
        priority: Priority,
        attempt: u32,
    ) -> Result<u64, CoreError> {
        self.ticket_call(Call::Launch {
            ctx: self.ctx,
            name: Arc::from(kernel),
            batched_args: Some(args),
            priority,
            attempt,
        })
    }

    /// Launch, retrying [`CoreError::Busy`] backpressure answers until
    /// the backend either admits or permanently sheds the request. Each
    /// retry waits out the backend's hint plus jitter drawn from this
    /// frontend's own [`SimRng`] stream, advanced on the virtual clock.
    pub fn launch_with_retries(&mut self, kernel: &str) -> Result<u64, CoreError> {
        let mut attempt = 0u32;
        loop {
            match self.launch_attempt(kernel, attempt) {
                Err(CoreError::Busy { retry_after_us, .. }) => {
                    attempt += 1;
                    let delay_s =
                        retry_after_us as f64 * 1e-6 * (1.0 + self.rng.range_f64(0.0, 0.5));
                    self.advance_clock_by(delay_s)?;
                }
                other => return other,
            }
        }
    }

    /// Advance the simulated clock by `delay_s` from now — the
    /// closed-loop client's way of waiting out a backoff interval.
    pub fn advance_clock_by(&self, delay_s: f64) -> Result<(), CoreError> {
        self.driver.post(Call::AdvanceClockBy {
            by_s: delay_s.max(0.0),
        })
    }

    /// Register load-once constant data (the Section IV backend API).
    pub fn register_constant(&self, key: &str, data: &[u8]) -> Result<DevicePtr, CoreError> {
        self.ptr_call(Call::RegisterConstant {
            ctx: self.ctx,
            key: key.to_string(),
            data: data.to_vec(),
        })
    }

    /// Advance the simulated device clock to (at least) `to_s` — the
    /// trace-driven harness's way of modelling request arrival times.
    pub fn advance_clock(&self, to_s: f64) -> Result<(), CoreError> {
        self.driver.post(Call::AdvanceClock { to_s })
    }

    /// Block until all pending kernels (from every frontend) executed.
    pub fn sync(&self) -> Result<(), CoreError> {
        self.driver.call(Call::Sync { ctx: self.ctx }).map(drop)
    }
}

impl Drop for Frontend {
    /// Announce the process's departure so the backend can drain any
    /// launches it will never sync on. Best-effort: if the backend is
    /// already gone there is nobody left to care.
    fn drop(&mut self) {
        let _ = self.driver.post(Call::Disconnect { ctx: self.ctx });
    }
}

impl ewc_gpu::DeviceAlloc for Frontend {
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, ewc_gpu::GpuError> {
        self.malloc(len).map_err(core_to_gpu)
    }
    fn upload(
        &mut self,
        dst: DevicePtr,
        offset: u64,
        data: &[u8],
    ) -> Result<(), ewc_gpu::GpuError> {
        self.memcpy_h2d(dst, offset, data).map_err(core_to_gpu)
    }
}

/// Flatten a frontend error into a device error for the [`ewc_gpu::DeviceAlloc`]
/// abstraction (framework-level failures surface as configuration
/// errors).
fn core_to_gpu(e: CoreError) -> ewc_gpu::GpuError {
    match e {
        CoreError::Gpu(g) => g,
        other => ewc_gpu::GpuError::BadConfig(other.to_string()),
    }
}

// Further frontend tests live in `runtime.rs` and the crate's
// integration tests, where a real backend core answers.
