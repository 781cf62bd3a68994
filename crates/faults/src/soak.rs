//! The resilience soak harness: many simulated processes submitting
//! AES work through the full frontend/backend stack while a
//! [`SharedFaultPlan`] injects faults at every layer.
//!
//! The harness plays the role of a disciplined client fleet: it retries
//! transient device errors a bounded number of times (as a real CUDA
//! application would on `cudaErrorMemoryAllocation`), replaces
//! processes the fault plan kills, verifies every output it can still
//! reach against the host reference, and accounts for every submitted
//! request as exactly one of *verified*, *failed* (a permanent error
//! surfaced at `sync`), *shed* (refused by admission control or aged
//! out of the queue, when [`SoakConfig::admission`] is on) or
//! *dropped* (its process died first).

use ewc_core::{
    AdmissionConfig, CoreError, Frontend, ResiliencePolicy, Runtime, RuntimeConfig, Template,
};
use ewc_exec::fan_out;
use ewc_gpu::{DevicePtr, GpuConfig, GpuError};
use ewc_telemetry::{DecisionRecord, TelemetrySink};
use ewc_workloads::{AesWorkload, Workload};
use std::sync::Arc;

use crate::config::FaultConfig;
use crate::plan::{FaultRecord, SharedFaultPlan};

/// Maximum client-side retries of one transient device operation.
const CLIENT_RETRIES: u32 = 3;

/// Soak-run parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Fault-plan seed (also seeds energy measurement noise).
    pub seed: u64,
    /// Concurrent simulated processes.
    pub processes: usize,
    /// Requests each process slot submits over the run.
    pub requests_per_process: usize,
    /// Sync (and verify) every this many submission rounds.
    pub sync_every: usize,
    /// Fault rates.
    pub faults: FaultConfig,
    /// Backend recovery policy.
    pub resilience: ResiliencePolicy,
    /// Devices behind the backend (each gets its own circuit breaker).
    pub gpus: u32,
    /// Restrict fault injection to these device indices; `None` means
    /// every device sees the fault plan.
    pub fault_targets: Option<Vec<usize>>,
    /// Admission-control limits; `None` (the default) runs unbounded
    /// admission. The overload preset installs a
    /// tight token bucket and queue bounds so shedding happens under
    /// fault pressure too.
    pub admission: Option<AdmissionConfig>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            processes: 4,
            requests_per_process: 8,
            sync_every: 2,
            faults: FaultConfig::light(),
            resilience: ResiliencePolicy::default(),
            gpus: 1,
            fault_targets: None,
            admission: None,
        }
    }
}

impl SoakConfig {
    /// The overload soak: light faults plus a deliberately tight
    /// admission controller (small queue bounds, slow token bucket,
    /// short CoDel age) over more processes, so a healthy fraction of
    /// the closed-loop traffic is answered `Busy`, retried, and shed —
    /// while the accounting still balances to the request.
    pub fn overload(seed: u64) -> Self {
        SoakConfig {
            seed,
            processes: 8,
            requests_per_process: 12,
            faults: FaultConfig::light(),
            admission: Some(AdmissionConfig {
                max_per_device: 6,
                max_per_ctx: 2,
                token_rate_hz: 40.0,
                token_burst: 4.0,
                busy_retry_limit: 2,
                retry_after_s: 2e-3,
                shed_age_s: 20.0,
                ..AdmissionConfig::default()
            }),
            ..SoakConfig::default()
        }
    }
}

/// Everything a soak run observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Requests submitted (launch accepted by the backend).
    pub submitted: u64,
    /// Requests whose output matched the host reference.
    pub verified: u64,
    /// Requests failed back to their frontend at `sync`.
    pub failed: u64,
    /// Requests refused by admission control (shed at submit after the
    /// `Busy` retry budget) or aged out of the queue CoDel-style at
    /// `sync` — only nonzero when [`SoakConfig::admission`] is on.
    pub shed: u64,
    /// Requests abandoned: their process died, or submission itself
    /// exhausted its retries.
    pub dropped: u64,
    /// Verified requests whose output did NOT match (must be zero).
    pub mismatched: u64,
    /// Client-side retries of transient device errors.
    pub client_retries: u64,
    /// Frontend processes the fault plan killed.
    pub frontend_deaths: u64,
    /// Backend statistics at shutdown.
    pub stats: ewc_core::BackendStats,
    /// Total device time, seconds.
    pub elapsed_s: f64,
    /// GPU whole-system energy, joules.
    pub energy_j: f64,
    /// Host-side energy from CPU-offloaded and fallback work, joules.
    pub cpu_energy_j: f64,
    /// The fault schedule as injected, sorted by `(site, op_index)`.
    pub fault_log: Vec<FaultRecord>,
    /// The backend's decision audit log (verdicts, recoveries, drains).
    pub audit: Vec<DecisionRecord>,
}

impl SoakReport {
    /// Every submitted request must be accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.submitted == self.verified + self.failed + self.shed + self.dropped
    }

    /// Render a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("soak report\n");
        out.push_str(&format!(
            "  requests   submitted {:>5}  verified {:>5}  failed {:>4}  shed {:>4}  dropped {:>4}  mismatched {}\n",
            self.submitted, self.verified, self.failed, self.shed, self.dropped, self.mismatched
        ));
        out.push_str(&format!(
            "  clients    retries {:>4}  frontend deaths {:>3}\n",
            self.client_retries, self.frontend_deaths
        ));
        let s = &self.stats;
        out.push_str(&format!(
            "  recovery   faults seen {:>4}  gpu retries {:>4}  backoff {:.4} s  serial fallbacks {}  cpu fallbacks {}\n",
            s.faults_observed, s.gpu_retries, s.backoff_s, s.serial_fallbacks, s.cpu_fallbacks
        ));
        out.push_str(&format!(
            "  recovery   breaker trips {:>2}  deadline escalations {:>2}  failed kernels {:>2}  drained {:>3}  reaped {:>2}\n",
            s.breaker_trips, s.deadline_escalations, s.failed_kernels, s.drained_requests, s.reaped_frontends
        ));
        out.push_str(&format!(
            "  channel    messages {:>6}  retransmits {:>4}\n",
            s.messages, s.retransmits
        ));
        out.push_str(&format!(
            "  energy     gpu system {:.1} J  cpu {:.1} J  elapsed {:.3} s\n",
            self.energy_j, self.cpu_energy_j, self.elapsed_s
        ));
        out.push_str(&format!(
            "  faults injected: {} (by site: {})\n",
            self.fault_log.len(),
            site_histogram(&self.fault_log)
        ));
        out
    }
}

fn site_histogram(log: &[FaultRecord]) -> String {
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for r in log {
        let label = r.site.label();
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    if counts.is_empty() {
        return "none".to_string();
    }
    counts
        .iter()
        .map(|(l, n)| format!("{l} {n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One in-flight request awaiting verification.
struct Entry {
    seq: u64,
    input: DevicePtr,
    output: DevicePtr,
    expected: Vec<u8>,
}

/// One simulated process slot (replaced on death).
struct Proc {
    fe: Frontend,
    inflight: Vec<Entry>,
}

/// Should the client retry this operation, as a real application would
/// retry a transient CUDA error? Injected OOM is transient in this
/// model (the next attempt sees healthy memory again).
fn retryable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Gpu(g) if g.is_transient() || matches!(g, GpuError::OutOfMemory { .. })
    )
}

fn with_retries<T>(
    retries: &mut u64,
    mut op: impl FnMut() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if retryable(&e) && attempt < CLIENT_RETRIES => {
                attempt += 1;
                *retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The preset fault matrix: every seed crossed with the light and storm
/// fault profiles, in `(seed, profile)` order. Feed it to
/// [`run_matrix`].
pub fn matrix(seeds: &[u64]) -> Vec<SoakConfig> {
    let mut cfgs = Vec::with_capacity(seeds.len() * 2);
    for &seed in seeds {
        cfgs.push(SoakConfig {
            seed,
            faults: FaultConfig::light(),
            ..SoakConfig::default()
        });
        cfgs.push(SoakConfig {
            seed,
            faults: FaultConfig::storm(),
            ..SoakConfig::default()
        });
    }
    cfgs
}

/// Run a batch of soak configurations across `parallelism` worker
/// threads (`1` = fully serial, `0` = one per available core). Each
/// soak builds its own runtime, so runs are independent;
/// [`fan_out`] merges reports positionally, so they come back in
/// `cfgs` order no matter which worker ran which config.
pub fn run_matrix(cfgs: &[SoakConfig], parallelism: usize) -> Vec<SoakReport> {
    fan_out(cfgs.len(), parallelism, |i| run(&cfgs[i]))
}

/// Run the soak: returns a fully-accounted report. Panics never — every
/// fault either recovers, fails cleanly back to its process, or drains
/// with its process.
pub fn run(cfg: &SoakConfig) -> SoakReport {
    let gpu_cfg = GpuConfig::tesla_c1060();
    let aes = AesWorkload::fig7(&gpu_cfg);
    let plan = SharedFaultPlan::new(cfg.seed, cfg.faults.clone());

    let rt_cfg = RuntimeConfig {
        // Flush only at syncs: the harness controls group boundaries so
        // the fault schedule stays aligned with submission rounds.
        threshold_factor: 1_000_000,
        num_gpus: cfg.gpus.max(1),
        force_gpu: true,
        noise_seed: Some(cfg.seed),
        resilience: cfg.resilience.clone(),
        admission: cfg.admission.clone(),
        ..RuntimeConfig::default()
    };
    let mut builder = Runtime::builder(rt_cfg)
        .telemetry(TelemetrySink::enabled())
        .workload("encryption", Arc::new(AesWorkload::fig7(&gpu_cfg)))
        .template(Template::homogeneous("encryption"))
        .device_faults(Arc::new(plan.clone()))
        .runtime_faults(Arc::new(plan.clone()));
    if let Some(targets) = &cfg.fault_targets {
        builder = builder.device_fault_targets(targets.clone());
    }
    let rt = builder.build();

    let mut report = SoakReport {
        submitted: 0,
        verified: 0,
        failed: 0,
        shed: 0,
        dropped: 0,
        mismatched: 0,
        client_retries: 0,
        frontend_deaths: 0,
        stats: ewc_core::BackendStats::default(),
        elapsed_s: 0.0,
        energy_j: 0.0,
        cpu_energy_j: 0.0,
        fault_log: Vec::new(),
        audit: Vec::new(),
    };

    let mut procs: Vec<Proc> = (0..cfg.processes.max(1))
        .map(|_| Proc {
            fe: rt.connect(),
            inflight: Vec::new(),
        })
        .collect();
    let mut data_seed = 0u64;

    for round in 1..=cfg.requests_per_process {
        for proc in procs.iter_mut() {
            // The process may die mid-batch: its pending launches are
            // abandoned (the backend drains them on disconnect) and a
            // fresh process takes the slot.
            if plan.roll_frontend_death() {
                report.frontend_deaths += 1;
                report.dropped += proc.inflight.len() as u64;
                proc.inflight.clear();
                proc.fe = rt.connect();
            }
            data_seed += 1;
            match submit(&aes, proc, data_seed, &mut report.client_retries) {
                Ok(entry) => {
                    report.submitted += 1;
                    proc.inflight.push(entry);
                }
                // The backend exhausted this launch's `Busy` retry
                // budget and refused it permanently: the request was
                // offered, so it counts as submitted-and-shed.
                Err(CoreError::Shed { .. }) => {
                    report.submitted += 1;
                    report.shed += 1;
                }
                Err(_) => report.dropped += 1,
            }
        }
        if round % cfg.sync_every.max(1) == 0 {
            for proc in procs.iter_mut() {
                sync_and_verify(proc, &mut report);
            }
        }
    }
    // Final drain: every surviving request is verified or failed.
    for proc in procs.iter_mut() {
        sync_and_verify(proc, &mut report);
    }

    drop(procs);
    let rt_report = rt.shutdown();
    report.cpu_energy_j = rt_report.stats.cpu_energy_j;
    report.energy_j = rt_report.energy.energy_j;
    report.elapsed_s = rt_report.elapsed_s;
    report.audit = rt_report.telemetry.map(|t| t.audit).unwrap_or_default();
    report.stats = rt_report.stats;
    report.fault_log = plan.log();
    report
}

/// Submit one AES instance through the frontend API, retrying transient
/// device errors like a well-behaved client.
fn submit(
    aes: &AesWorkload,
    proc: &mut Proc,
    seed: u64,
    retries: &mut u64,
) -> Result<Entry, CoreError> {
    let n = aes.data_bytes() as u64;
    let input = with_retries(retries, || proc.fe.malloc(n))?;
    let output = with_retries(retries, || proc.fe.malloc(n))?;
    let data = ewc_workloads::data::bytes(seed, n as usize);
    with_retries(retries, || proc.fe.memcpy_h2d(input, 0, &data))?;
    proc.fe
        .configure_call(aes.blocks(), aes.desc().threads_per_block)?;
    proc.fe
        .setup_argument(ewc_gpu::kernel::KernelArg::Ptr(input))?;
    proc.fe
        .setup_argument(ewc_gpu::kernel::KernelArg::Ptr(output))?;
    proc.fe
        .setup_argument(ewc_gpu::kernel::KernelArg::U32(n as u32))?;
    // With admission control on, the backend may answer `Busy`; the
    // frontend waits out the hint (plus its own seeded jitter) on the
    // virtual clock and retries until admitted or permanently shed.
    let seq = proc.fe.launch_with_retries("encryption")?;
    Ok(Entry {
        seq,
        input,
        output,
        expected: aes.expected_output(seed),
    })
}

/// Sync the process (collecting any queued permanent failures), then
/// verify and release every surviving in-flight request.
fn sync_and_verify(proc: &mut Proc, report: &mut SoakReport) {
    loop {
        match proc.fe.sync() {
            Ok(()) => break,
            Err(CoreError::KernelFailed { seq, .. }) => {
                report.failed += 1;
                proc.inflight.retain(|e| e.seq != seq);
            }
            // A queued request aged past the CoDel bound and was shed
            // before execution; its notice surfaces at sync.
            Err(CoreError::Shed { seq: Some(seq), .. }) => {
                report.shed += 1;
                proc.inflight.retain(|e| e.seq != seq);
            }
            Err(_) => {
                // The backend is gone: nothing left to verify.
                report.dropped += proc.inflight.len() as u64;
                proc.inflight.clear();
                return;
            }
        }
    }
    for entry in proc.inflight.drain(..) {
        let got = with_retries(&mut report.client_retries, || {
            proc.fe
                .memcpy_d2h(entry.output, 0, entry.expected.len() as u64)
        });
        match got {
            Ok(bytes) if bytes == entry.expected => report.verified += 1,
            Ok(_) => {
                report.verified += 1;
                report.mismatched += 1;
            }
            Err(_) => report.dropped += 1,
        }
        let _ = proc.fe.free(entry.input);
        let _ = proc.fe.free(entry.output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_preset_sheds_and_still_balances() {
        let report = run(&SoakConfig::overload(7));
        assert!(report.balanced(), "{}", report.render());
        assert!(report.shed > 0, "{}", report.render());
        assert!(report.verified > 0, "{}", report.render());
        assert_eq!(report.mismatched, 0, "{}", report.render());
    }

    #[test]
    fn overload_preset_replays_deterministically() {
        let a = run(&SoakConfig::overload(42));
        let b = run(&SoakConfig::overload(42));
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }
}
