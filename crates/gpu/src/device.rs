#![allow(clippy::items_after_test_module)] // DeviceAlloc trait appended below tests
//! The simulated device: memory + DMA + execution engine + clock.
//!
//! [`GpuDevice`] is the single stateful façade the consolidation backend
//! talks to. Every operation advances the device clock by its simulated
//! duration, so "wall time" measurements taken by the energy meter are
//! consistent with the engine's timing model. Launches execute functional
//! kernel bodies against real device memory *and* simulate timing, so
//! callers get both answers and durations.

pub use crate::memory::DevicePtr;

use crate::config::GpuConfig;
use crate::counters::ActivityInterval;
use crate::engine::{ExecutionEngine, SimOutcome};
use crate::error::GpuError;
use crate::fault::{DeviceFault, FaultInjectorHandle};
use crate::kernel::{BlockCtx, LaunchConfig};
use crate::memory::GlobalMemory;
use ewc_exec::{EventQueue, VirtualClock};

use crate::transfer::{Direction, DmaEngine, DmaStats};

/// One completed power-state transition on a device timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTransition {
    /// Device time at which the new state became effective (after the
    /// wake/settle latency elapsed).
    pub at_s: f64,
    /// Level left (index into the caller's power-state table).
    pub from: u32,
    /// Level entered.
    pub to: u32,
    /// Wake/settle latency charged on the device clock.
    pub latency_s: f64,
}

/// DVFS bookkeeping, allocated only once `set_power_state` is called.
/// Devices that never change state carry `None` and behave — and emit —
/// byte-identically to a build without this feature.
struct DvfsControl {
    level: u32,
    freq_scale: f64,
    /// Pending transition-complete events. Settle latencies are modelled
    /// as scheduled events so transition ordering is a pure function of
    /// the schedule calls (same discipline as the engine's event queue).
    queue: EventQueue<(u32, u32)>,
    served: Vec<StateTransition>,
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Total launch duration in seconds (fixed launch overhead + kernel
    /// execution).
    pub elapsed_s: f64,
    /// Device time at which the launch started.
    pub started_at_s: f64,
    /// Detailed simulation outcome (trace, counters, activity profile).
    pub sim: SimOutcome,
}

/// The simulated GPU.
pub struct GpuDevice {
    cfg: GpuConfig,
    mem: GlobalMemory,
    engine: ExecutionEngine,
    dma: DmaEngine,
    /// The device timeline: a shared simulated clock. The backend holds
    /// clones of this handle, so resilience bookkeeping (circuit
    /// breaker, retry deadlines) reads device time without hand-threaded
    /// timestamp parameters.
    clock: VirtualClock,
    launches: u64,
    /// Activity profile of the whole device lifetime, for power replay:
    /// launches contribute their intervals offset by their start time.
    activity: Vec<ActivityInterval>,
    /// Telemetry handle (no-op unless attached) and this device's index
    /// in its node, used to name the trace process (`gpu0`, `gpu1`, ...).
    sink: ewc_telemetry::TelemetrySink,
    device_index: usize,
    /// Optional fault injector consulted before mallocs, transfers and
    /// launches. `None` (the default) means a perfectly healthy device.
    injector: Option<FaultInjectorHandle>,
    /// Faults this device has actually served, for reporting.
    faults_served: u64,
    /// Power-state control; `None` until the power-state stack is
    /// enabled for this device (the byte-identical default).
    dvfs: Option<DvfsControl>,
}

impl GpuDevice {
    /// Create a device.
    ///
    /// # Panics
    /// Panics on an invalid configuration; configurations are static test
    /// or preset data, so this is a programmer error.
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        GpuDevice {
            mem: GlobalMemory::new(cfg.global_mem_bytes, cfg.constant_mem_bytes),
            engine: ExecutionEngine::new(cfg.clone()),
            dma: DmaEngine::new(cfg.pcie_bandwidth, cfg.pcie_latency_s),
            cfg,
            clock: VirtualClock::new(),
            launches: 0,
            activity: Vec::new(),
            sink: ewc_telemetry::TelemetrySink::disabled(),
            device_index: 0,
            injector: None,
            faults_served: 0,
            dvfs: None,
        }
    }

    /// Attach a telemetry sink: every launch then emits a kernel span and
    /// per-SM block spans on the `gpu<index>` trace process.
    pub fn with_telemetry(mut self, sink: ewc_telemetry::TelemetrySink, index: usize) -> Self {
        self.sink = sink;
        self.device_index = index;
        self
    }

    /// Attach a fault injector: mallocs, DMA transfers and launches then
    /// consult it and may fail or slow down accordingly.
    pub fn with_fault_injector(mut self, injector: FaultInjectorHandle) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Number of injected faults this device has served.
    pub fn faults_served(&self) -> u64 {
        self.faults_served
    }

    /// Move the device to power-state `level`, an index into the
    /// caller's state table. `freq_scale` is the relative SM clock of
    /// the target state (1.0 = the configured clock); `latency_s` is the
    /// wake/settle latency, charged on the device clock before the state
    /// becomes effective — launches issued after this call run entirely
    /// in the new state.
    ///
    /// Timing in non-top states comes from re-deriving the execution
    /// engine at the scaled clock: compute throughput scales with `f`
    /// while DRAM bandwidth and PCIe are unaffected, so memory-bound
    /// kernels lose less time than compute-bound ones — exactly the
    /// asymmetry a DVFS policy trades on.
    ///
    /// Returns `false` (and charges nothing) when the device is already
    /// at `level`. Devices on which this is never called behave
    /// byte-identically to builds without power states.
    pub fn set_power_state(&mut self, level: u32, freq_scale: f64, latency_s: f64) -> bool {
        assert!(
            freq_scale > 0.0 && freq_scale.is_finite(),
            "freq_scale must be positive and finite"
        );
        if let Some(ctl) = &self.dvfs {
            if ctl.level == level {
                return false;
            }
        }
        let now = self.clock.now_s();
        let mut ctl = self.dvfs.take().unwrap_or_else(|| DvfsControl {
            level: 0,
            freq_scale: 1.0,
            queue: EventQueue::new(),
            served: Vec::new(),
        });
        let from = ctl.level;
        ctl.queue.schedule(now + latency_s.max(0.0), (from, level));
        // Drain every due transition (normally the one just scheduled)
        // in event order, advancing the clock through each settle point.
        while let Some(ev) = ctl.queue.pop() {
            let (ev_from, ev_to) = ev.payload;
            if ev.time_s > self.clock.now_s() {
                self.clock.advance_by(ev.time_s - self.clock.now_s());
            }
            ctl.served.push(StateTransition {
                at_s: self.clock.now_s(),
                from: ev_from,
                to: ev_to,
                latency_s: (ev.time_s - now).max(0.0),
            });
        }
        if ctl.freq_scale != freq_scale {
            let mut scaled = self.cfg.clone();
            scaled.clock_hz *= freq_scale;
            self.engine = ExecutionEngine::new(scaled);
        }
        ctl.level = level;
        ctl.freq_scale = freq_scale;
        if self.sink.is_enabled() {
            self.sink.counter_add("power_transitions", 1.0);
            self.sink.gauge_set(
                &format!("dvfs_level_gpu{}", self.device_index),
                level.into(),
            );
        }
        self.dvfs = Some(ctl);
        true
    }

    /// Current power-state level, or `None` if the power-state stack was
    /// never engaged on this device.
    pub fn power_level(&self) -> Option<u32> {
        self.dvfs.as_ref().map(|c| c.level)
    }

    /// Relative SM clock of the active state (1.0 when power states are
    /// disengaged or the device sits at the top state).
    pub fn freq_scale(&self) -> f64 {
        self.dvfs.as_ref().map_or(1.0, |c| c.freq_scale)
    }

    /// Every power-state transition this device has served, in order.
    pub fn state_transitions(&self) -> &[StateTransition] {
        self.dvfs.as_ref().map_or(&[], |c| &c.served)
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current device time in seconds.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// A shared handle on the device clock: clones observe every advance
    /// this device makes.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Advance the device clock by `dt` without doing work (e.g. host-side
    /// think time between calls).
    pub fn idle(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot idle for negative time");
        self.clock.advance_by(dt);
    }

    /// Number of launches executed.
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Immutable view of device memory.
    pub fn memory(&self) -> &GlobalMemory {
        &self.mem
    }

    /// Mutable view of device memory (host-side initialisation in tests).
    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }

    /// Activity profile over the device lifetime (device-time offsets).
    pub fn activity(&self) -> &[ActivityInterval] {
        &self.activity
    }

    /// Cumulative DMA statistics.
    pub fn dma_stats(&self) -> DmaStats {
        self.dma.stats()
    }

    /// Record one served fault (count + telemetry). Emits nothing when no
    /// fault fires, so fault-free runs produce byte-identical telemetry.
    fn note_fault(&mut self, site: &str) {
        self.faults_served += 1;
        if self.sink.is_enabled() {
            self.sink.counter_add("device_faults", 1.0);
            self.sink.counter_add(&format!("device_faults_{site}"), 1.0);
        }
    }

    /// Allocate device memory (`cudaMalloc`).
    pub fn malloc(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        if let Some(inj) = &self.injector {
            if let Some(DeviceFault::Oom) = inj.on_malloc(len) {
                self.note_fault("malloc");
                return Err(GpuError::OutOfMemory {
                    requested: len,
                    free: self.mem.free_bytes(),
                });
            }
        }
        self.mem.alloc(len)
    }

    /// Free device memory (`cudaFree`).
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        self.mem.free(ptr)
    }

    /// Load constant data once for the device lifetime; returns its
    /// device pointer.
    pub fn load_constant(&mut self, data: &[u8]) -> Result<DevicePtr, GpuError> {
        self.mem.alloc_constant(data)
    }

    /// Copy host data to device (`cudaMemcpyHostToDevice`). Returns the
    /// transfer duration; the clock advances by it.
    pub fn memcpy_h2d(
        &mut self,
        dst: DevicePtr,
        offset: u64,
        data: &[u8],
    ) -> Result<f64, GpuError> {
        if let Some(fault) = self.transfer_fault(data.len() as u64, Direction::HostToDevice)? {
            self.clock.advance_by(fault);
        }
        self.mem.write(dst, offset, data)?;
        let t = self
            .dma
            .transfer(data.len() as u64, Direction::HostToDevice);
        self.clock.advance_by(t);
        Ok(t)
    }

    /// Consult the injector for a DMA transfer. `Ok(Some(stall_s))` means
    /// a stall of `stall_s` seconds before an otherwise normal transfer;
    /// `Err(TransferFault)` means the transfer burned its full link time
    /// (charged here, and counted in DMA stats as wasted work) and failed
    /// without moving data.
    fn transfer_fault(&mut self, bytes: u64, dir: Direction) -> Result<Option<f64>, GpuError> {
        let Some(inj) = &self.injector else {
            return Ok(None);
        };
        match inj.on_transfer(bytes) {
            Some(DeviceFault::TransferFail) => {
                self.note_fault("transfer");
                let t = self.dma.transfer(bytes, dir);
                self.clock.advance_by(t);
                Err(GpuError::TransferFault)
            }
            Some(DeviceFault::TransferStall { extra_s }) => {
                self.note_fault("transfer");
                Ok(Some(extra_s))
            }
            _ => Ok(None),
        }
    }

    /// Copy device data to host (`cudaMemcpyDeviceToHost`). Returns the
    /// bytes and the transfer duration; the clock advances by it.
    pub fn memcpy_d2h(
        &mut self,
        src: DevicePtr,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, f64), GpuError> {
        if let Some(fault) = self.transfer_fault(len, Direction::DeviceToHost)? {
            self.clock.advance_by(fault);
        }
        let bytes = self.mem.read(src, offset, len)?.to_vec();
        let t = self.dma.transfer(len, Direction::DeviceToHost);
        self.clock.advance_by(t);
        Ok((bytes, t))
    }

    /// Launch a (possibly consolidated) grid: run every functional body,
    /// simulate timing, advance the clock, and report.
    pub fn launch(&mut self, launch: &LaunchConfig) -> Result<LaunchReport, GpuError> {
        let policy = launch.policy.unwrap_or_default();
        let total_blocks: u32 = launch.grid.segments().iter().map(|s| s.blocks).sum();
        let mut slowdown = 1.0;
        if let Some(inj) = &self.injector {
            match inj.on_launch(total_blocks) {
                Some(DeviceFault::Hang { watchdog_s }) => {
                    // The kernel never completes: the watchdog deadline is
                    // burned on the device clock, then the launch is killed.
                    // No functional bodies run, no activity is recorded.
                    self.note_fault("launch");
                    self.clock.advance_by(watchdog_s);
                    return Err(GpuError::LaunchTimeout);
                }
                Some(DeviceFault::DegradedSms { slowdown: s }) => {
                    self.note_fault("launch");
                    slowdown = s.max(1.0);
                }
                _ => {}
            }
        }
        // Timing first (validates the grid), then functional execution.
        let sim = self.engine.run(&launch.grid, policy)?;

        for seg in launch.grid.segments() {
            if let Some(body) = &seg.body {
                for b in 0..seg.blocks {
                    let ctx = BlockCtx {
                        block_idx: b,
                        num_blocks: seg.blocks,
                        threads_per_block: seg.desc.threads_per_block,
                        args: &seg.args,
                    };
                    body(&ctx, &mut self.mem)?;
                }
            }
        }

        let started_at_s = self.clock.now_s();
        // Degraded SMs stretch wall time by `slowdown`; the activity
        // intervals stay at their healthy shape (the work done is the
        // same, it just takes longer), so power replay sees the extra
        // time as low-activity tail — throttled silicon burns closer to
        // idle than to peak.
        let elapsed = self.cfg.launch_overhead_s + sim.elapsed_s * slowdown;
        for iv in &sim.intervals {
            self.activity.push(ActivityInterval {
                start_s: started_at_s + self.cfg.launch_overhead_s + iv.start_s,
                ..*iv
            });
        }
        self.clock.advance_by(elapsed);
        self.launches += 1;
        if self.sink.is_enabled() {
            self.emit_launch_spans(&launch.grid, started_at_s, elapsed, &sim);
        }
        Ok(LaunchReport {
            elapsed_s: elapsed,
            started_at_s,
            sim,
        })
    }

    /// Emit one kernel span plus a span per executed block, placed on the
    /// SM lane the scheduler actually chose (the trace.rs data).
    fn emit_launch_spans(
        &self,
        grid: &crate::grid::Grid,
        started_at_s: f64,
        elapsed_s: f64,
        sim: &SimOutcome,
    ) {
        let process = format!("gpu{}", self.device_index);
        let names: Vec<&str> = grid.segments().iter().map(|s| &*s.desc.name).collect();
        let kernel = self
            .sink
            .span(
                &process,
                "stream",
                &names.join("+"),
                started_at_s,
                started_at_s + elapsed_s,
            )
            .attr("segments", names.len())
            .attr("blocks", sim.trace.events().len())
            .emit();
        let t0 = started_at_s + self.cfg.launch_overhead_s;
        for ev in sim.trace.events() {
            self.sink
                .span(
                    &process,
                    &format!("sm{}", ev.sm),
                    names.get(ev.coord.segment).unwrap_or(&"block"),
                    t0 + ev.start_s,
                    t0 + ev.end_s,
                )
                .parent(kernel)
                .attr("block", ev.coord.within)
                .emit();
        }
        self.sink.counter_add("gpu_launches", 1.0);
    }
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("sms", &self.cfg.num_sms)
            .field("clock_s", &self.clock.now_s())
            .field("launches", &self.launches)
            .field("mem_used", &self.mem.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid, GridSegment};
    use crate::kernel::{KernelArg, KernelDesc};
    use std::sync::Arc;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuConfig::tesla_c1060())
    }

    #[test]
    fn clock_advances_with_transfers_and_launches() {
        let mut gpu = device();
        let p = gpu.malloc(1 << 20).unwrap();
        let t0 = gpu.now_s();
        let t = gpu.memcpy_h2d(p, 0, &vec![0u8; 1 << 20]).unwrap();
        assert!(t > 0.0);
        assert!((gpu.now_s() - t0 - t).abs() < 1e-15);

        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1000.0)
            .build();
        let r = gpu.launch(&LaunchConfig::single(k, 4)).unwrap();
        assert!(r.elapsed_s > 0.0);
        assert_eq!(gpu.launch_count(), 1);
        assert!((gpu.now_s() - (t0 + t + r.elapsed_s)).abs() < 1e-12);
    }

    #[test]
    fn functional_body_computes_into_device_memory() {
        let mut gpu = device();
        let n = 1024usize;
        let src = gpu.malloc((n * 4) as u64).unwrap();
        let dst = gpu.malloc((n * 4) as u64).unwrap();
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        gpu.memory_mut().write_f32s(src, 0, &input).unwrap();

        let desc = KernelDesc::builder("double")
            .threads_per_block(256)
            .comp_insts(2.0)
            .coalesced_mem(2.0)
            .build();
        let blocks = 4;
        let body: crate::kernel::BlockFn = Arc::new(move |ctx: &BlockCtx<'_>, mem| {
            let src = ctx.args[0].as_ptr().unwrap();
            let dst = ctx.args[1].as_ptr().unwrap();
            let per = 1024 / ctx.num_blocks as usize;
            let base = ctx.block_idx as usize * per;
            let vals = mem.read_f32s(src, base as u64, per)?;
            let out: Vec<f32> = vals.iter().map(|v| v * 2.0).collect();
            mem.write_f32s(dst, base as u64, &out)
        });
        let mut grid = Grid::new();
        grid.push(
            GridSegment::bare(desc, blocks)
                .with_args(vec![KernelArg::Ptr(src), KernelArg::Ptr(dst)])
                .with_body(body),
        );
        gpu.launch(&LaunchConfig::from_grid(grid)).unwrap();
        let (out, _) = gpu.memcpy_d2h(dst, 0, (n * 4) as u64).unwrap();
        let got: Vec<f32> = out
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as f32 * 2.0);
        }
    }

    #[test]
    fn failing_body_fails_the_launch_and_records_nothing() {
        let mut gpu = device();
        let buf = gpu.malloc(16).unwrap();
        let desc = KernelDesc::builder("overrun").comp_insts(2.0).build();
        let body: crate::kernel::BlockFn =
            Arc::new(move |_: &BlockCtx<'_>, mem| mem.read(buf, 0, 64).map(drop));
        let mut grid = Grid::new();
        grid.push(GridSegment::bare(desc, 2).with_body(body));
        let t0 = gpu.now_s();
        let err = gpu.launch(&LaunchConfig::from_grid(grid)).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }), "{err:?}");
        assert_eq!(gpu.launch_count(), 0);
        assert_eq!(gpu.now_s(), t0);
        assert!(gpu.activity().is_empty());
    }

    #[test]
    fn activity_profile_offsets_by_start_time() {
        let mut gpu = device();
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(10_000.0)
            .build();
        gpu.idle(1.0);
        gpu.launch(&LaunchConfig::single(k, 2)).unwrap();
        let acts = gpu.activity();
        assert!(!acts.is_empty());
        assert!(acts[0].start_s >= 1.0);
    }

    #[test]
    fn launch_overhead_included() {
        let mut gpu = device();
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1.0)
            .build();
        let r = gpu.launch(&LaunchConfig::single(k, 1)).unwrap();
        assert!(r.elapsed_s >= gpu.config().launch_overhead_s);
    }

    #[test]
    fn power_state_scales_kernel_time_and_charges_latency() {
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1e6)
            .build();

        let mut full = device();
        let t_full = full.launch(&LaunchConfig::single(k.clone(), 4)).unwrap();

        let mut half = device();
        let t0 = half.now_s();
        assert!(half.set_power_state(2, 0.5, 20e-6));
        assert!(
            (half.now_s() - t0 - 20e-6).abs() < 1e-12,
            "settle latency charged"
        );
        assert_eq!(half.power_level(), Some(2));
        assert_eq!(half.freq_scale(), 0.5);
        let t_half = half.launch(&LaunchConfig::single(k, 4)).unwrap();

        // Compute-bound kernel at half clock: simulated time ~doubles
        // (launch overhead is clock-independent).
        let full_sim = t_full.elapsed_s - full.config().launch_overhead_s;
        let half_sim = t_half.elapsed_s - half.config().launch_overhead_s;
        assert!(
            half_sim > 1.8 * full_sim,
            "half clock should ~double compute time: {half_sim} vs {full_sim}"
        );
        let tr = half.state_transitions();
        assert_eq!(tr.len(), 1);
        assert_eq!((tr[0].from, tr[0].to), (0, 2));
    }

    #[test]
    fn power_state_noop_and_return_to_top_restores_timing() {
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1e6)
            .build();
        let mut base = device();
        let want = base.launch(&LaunchConfig::single(k.clone(), 4)).unwrap();

        let mut gpu = device();
        assert!(gpu.set_power_state(2, 0.5, 0.0));
        assert!(!gpu.set_power_state(2, 0.5, 0.0), "same level is a no-op");
        assert!(gpu.set_power_state(0, 1.0, 0.0));
        let got = gpu.launch(&LaunchConfig::single(k, 4)).unwrap();
        assert_eq!(
            got.elapsed_s.to_bits(),
            want.elapsed_s.to_bits(),
            "back at the top state, timing is bit-identical"
        );
        assert_eq!(gpu.state_transitions().len(), 2);
    }

    #[test]
    fn untouched_device_reports_no_power_state() {
        let gpu = device();
        assert_eq!(gpu.power_level(), None);
        assert_eq!(gpu.freq_scale(), 1.0);
        assert!(gpu.state_transitions().is_empty());
    }

    #[test]
    fn constant_load_and_dma_stats() {
        let mut gpu = device();
        let c = gpu.load_constant(&[1u8; 256]).unwrap();
        assert_eq!(gpu.memory().read(c, 0, 256).unwrap(), &[1u8; 256][..]);
        let p = gpu.malloc(128).unwrap();
        gpu.memcpy_h2d(p, 0, &[2u8; 128]).unwrap();
        let (back, _) = gpu.memcpy_d2h(p, 0, 128).unwrap();
        assert_eq!(back, vec![2u8; 128]);
        let s = gpu.dma_stats();
        assert_eq!(s.h2d_bytes, 128);
        assert_eq!(s.d2h_bytes, 128);
        assert_eq!(s.transfers, 2);
    }
}

/// Device-side allocation + upload, abstracted so workload instance
/// builders can target either the raw device or a consolidation-framework
/// frontend (which proxies these calls to its backend).
pub trait DeviceAlloc {
    /// Allocate `len` bytes of device memory.
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, GpuError>;
    /// Copy host bytes into device memory.
    fn upload(&mut self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), GpuError>;
}

impl DeviceAlloc for GpuDevice {
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        self.malloc(len)
    }
    fn upload(&mut self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), GpuError> {
        self.memcpy_h2d(dst, offset, data).map(|_| ())
    }
}
