//! The benchmark's own open-loop harness.
//!
//! It drives the runtime exactly as `ewc_load::openloop::run` does (the
//! test `tests/openloop_parity.rs` pins its `LoadReport` to the library
//! harness on a small config), split into a set-up phase and a timed
//! phase, with a span around every call into `load`, `exec` and `core`.
//! The one client thread runs the executor; every stream is a frontend
//! handle on that thread, and the backend daemon is the only other
//! thread.

use std::sync::Arc;

use ewc_core::{CoreError, Frontend, Priority, Runtime, RuntimeConfig, Template};
use ewc_exec::{Executor, SimTask, VirtualClock};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{GpuConfig, KernelDesc, SimRng};
use ewc_load::openloop::{ClientCounts, LoadConfig, LoadReport};
use ewc_load::ArrivalGen;
use ewc_telemetry::TelemetrySink;
use ewc_workloads::calibrate::latency_bound;
use ewc_workloads::registry::DeviceBuffers;
use ewc_workloads::{SearchWorkload, Workload};

use crate::trace::{Layer, Tracer};
use crate::{digest, TracedAlloc};

/// The registry name every stream launches.
pub const KERNEL: &str = "search";

/// Seed domain of the precomputed arrival schedules.
const ARRIVAL_DOMAIN: u64 = 0xa441_4a11;

/// Seed domain of fire-time behaviour (priority draws, retry jitter).
const BEHAVIOR_DOMAIN: u64 = 0xbe4a_0b57;

/// Stream `s`'s RNG seed in one domain, as the library harness derives it.
fn stream_seed(master: u64, domain: u64, s: u64) -> u64 {
    master ^ domain ^ (s + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The per-request kernel the library harness launches: a ~2 KiB search
/// calibrated to `target_s` solo.
pub fn tiny_search(cfg: &GpuConfig, target_s: f64) -> SearchWorkload {
    let desc = KernelDesc::builder("substring_search")
        .threads_per_block(64)
        .regs_per_thread(16)
        .shared_mem_per_block(1024)
        .build();
    let desc = latency_bound(desc, target_s, 0.30, cfg);
    SearchWorkload::new(2048, b"gpu".to_vec(), desc, 2, 2.0 * target_s, 2, 64 << 10)
}

/// Digests of every stream's expected output under `seed`: the search
/// result of the arguments the stream built (and launches every time).
pub fn references(cfg: &LoadConfig, seed: u64) -> Vec<u64> {
    let w = tiny_search(&GpuConfig::tesla_c1060(), cfg.kernel_target_s);
    (0..cfg.streams)
        .map(|s| digest(&w.expected_output(seed ^ s as u64)))
        .collect()
}

/// Request id shared by the spans of one arrival and its retries.
fn req_id(s: usize, n: u32) -> u64 {
    ((s as u64 + 1) << 32) | (n as u64 + 1)
}

struct Stream {
    fe: Frontend,
    args: Vec<KernelArg>,
    bufs: DeviceBuffers,
    rng: SimRng,
}

/// Executor state: the streams, the client tallies and the span recorder.
pub struct Harness {
    streams: Vec<Stream>,
    counts: ClientCounts,
    p_low: f64,
    p_high: f64,
    grid_blocks: u32,
    threads_per_block: u32,
    tr: Tracer,
    /// Blocking RPCs issued from the timed phase.
    rpcs: u64,
}

/// One event on the virtual timeline: a fresh arrival (`attempt == 0`,
/// priority drawn at fire time) or a backoff retry.
pub struct LoadTask {
    s: usize,
    n: u32,
    attempt: u32,
    priority: Priority,
}

impl SimTask<Harness> for LoadTask {
    fn fire(self, _now_s: f64, st: &mut Harness, exec: &mut Executor<Harness, Self>) {
        let LoadTask { s, n, attempt, .. } = self;
        st.tr.set_req(req_id(s, n));
        let priority = if attempt == 0 {
            let u = st.streams[s].rng.next_f64();
            if u < st.p_low {
                Priority::Low
            } else if u < st.p_low + st.p_high {
                Priority::High
            } else {
                Priority::Normal
            }
        } else {
            self.priority
        };
        let (grid_blocks, threads_per_block) = (st.grid_blocks, st.threads_per_block);
        let stream = &mut st.streams[s];
        let open = st.tr.begin(Layer::Core, "configure_call");
        let configured = stream.fe.configure_call(grid_blocks, threads_per_block);
        st.tr.end(open);
        if configured.is_err() {
            st.counts.client_errors += 1;
            return;
        }
        let open = st.tr.begin(Layer::Core, "launch_with");
        let launched = stream
            .fe
            .launch_with(KERNEL, stream.args.clone(), priority, attempt);
        st.tr.end(open);
        st.rpcs += 1;
        match launched {
            Ok(_) => st.counts.admitted += 1,
            Err(CoreError::Busy { retry_after_us, .. }) => {
                st.counts.busy_answers += 1;
                let jitter = stream.rng.range_f64(0.0, 0.5);
                let delay_s = retry_after_us as f64 * 1e-6 * (1.0 + jitter);
                let open = st.tr.begin(Layer::Exec, "schedule_in");
                exec.schedule_in(
                    delay_s,
                    LoadTask {
                        s,
                        n,
                        attempt: attempt + 1,
                        priority,
                    },
                );
                st.tr.end(open);
            }
            Err(CoreError::Shed { .. }) => st.counts.shed_at_admission += 1,
            Err(_) => st.counts.client_errors += 1,
        }
    }
}

/// A storm whose runtime is built and whose streams are connected and
/// uploaded: what the set-up phase leaves for the timed phase.
pub struct Prepared {
    rt: Runtime,
    exec: Executor<Harness, LoadTask>,
    harness: Harness,
}

/// Set-up phase: build the runtime, connect every stream, build its
/// arguments once and quiesce the backend. Spans go to `tr`, which the
/// timed phase takes over.
pub fn prepare(cfg: &LoadConfig, mut tr: Tracer) -> Prepared {
    let gpu_cfg = GpuConfig::tesla_c1060();
    let w = Arc::new(tiny_search(&gpu_cfg, cfg.kernel_target_s));

    let clock = VirtualClock::new();
    let exec: Executor<Harness, LoadTask> = Executor::with_clock(clock.clone());
    let sink = if cfg.telemetry {
        TelemetrySink::enabled_virtual(clock)
    } else {
        TelemetrySink::disabled_virtual(clock)
    };
    let open = tr.begin(Layer::Core, "runtime_build");
    let rt = Runtime::builder(RuntimeConfig {
        num_gpus: cfg.num_gpus,
        threshold_factor: cfg.threshold_factor,
        max_pending_wait_s: cfg.max_pending_wait_s,
        coordination_s: cfg.coordination_s,
        channel_latency_s: cfg.channel_latency_s,
        noise_seed: Some(cfg.seed),
        admission: cfg.admission.clone(),
        power_states: cfg.power_states.clone(),
        ..RuntimeConfig::default()
    })
    .telemetry(sink)
    .workload(KERNEL, Arc::clone(&w) as Arc<dyn Workload>)
    .template(Template::homogeneous(KERNEL))
    .build();
    tr.end(open);

    let mut streams = Vec::with_capacity(cfg.streams);
    // Set-up RPCs are not part of `core.rpc_calls`, which counts the
    // timed phase.
    let mut setup_rpcs = 0u64;
    for s in 0..cfg.streams {
        let mut fe = tr.time(Layer::Core, "connect", || rt.connect());
        let open = tr.begin(Layer::Workloads, "build_args");
        let (args, bufs) = w
            .build_args(
                &mut TracedAlloc {
                    fe: &mut fe,
                    tr: &mut tr,
                    rpcs: &mut setup_rpcs,
                },
                cfg.seed ^ s as u64,
            )
            .expect("stream argument build");
        tr.end(open);
        tr.time(Layer::Core, "configure_call", || {
            fe.configure_call(w.blocks(), w.desc().threads_per_block)
        })
        .expect("stream configure");
        streams.push(Stream {
            fe,
            args,
            bufs,
            rng: SimRng::seed_from_u64(stream_seed(cfg.seed, BEHAVIOR_DOMAIN, s as u64)),
        });
    }
    // One blocking sync drains the channel before the schedule is laid
    // down, so no set-up message races the `t0` read.
    if let Some(stream) = streams.last() {
        tr.time(Layer::Core, "sync", || stream.fe.sync())
            .expect("setup quiesce sync");
    }
    let harness = Harness {
        streams,
        counts: ClientCounts::default(),
        p_low: cfg.p_low,
        p_high: cfg.p_high,
        grid_blocks: w.blocks(),
        threads_per_block: w.desc().threads_per_block,
        tr,
        rpcs: 0,
    };
    Prepared { rt, exec, harness }
}

/// What the timed phase produced.
pub struct Outcome {
    /// The library-shaped report.
    pub report: LoadReport,
    /// Blocking RPCs the timed phase issued (launches, drain syncs).
    pub rpcs: u64,
    /// Executor events fired (arrivals and retries).
    pub events: u64,
    /// Each stream's context id and the read-back of its output buffer
    /// (empty without read-back; `None` where the read-back failed).
    pub readbacks: Vec<(u64, Option<Vec<u8>>)>,
    /// The span recorder handed back.
    pub tr: Tracer,
}

/// Timed phase: lay down the arrival schedule, run the storm, drain
/// every stream, read back each stream's output buffer (`readback`),
/// disconnect and shut down. Every launch of a stream reuses its
/// arguments, so the buffer holds that stream's one expected result.
/// The library harness does not read back; without it the run is the
/// library's exactly.
pub fn run(p: Prepared, cfg: &LoadConfig, readback: bool) -> Outcome {
    let Prepared {
        rt,
        mut exec,
        mut harness,
    } = p;
    let t0 = exec.clock().now_s();
    let per_stream = cfg.process.scaled(1.0 / cfg.streams.max(1) as f64);
    for s in 0..cfg.streams {
        let tr = &mut harness.tr;
        let open = tr.begin(Layer::Load, "schedule");
        let mut rng = SimRng::seed_from_u64(stream_seed(cfg.seed, ARRIVAL_DOMAIN, s as u64));
        let mut gen = ArrivalGen::new(per_stream.clone());
        let mut t = t0;
        for n in 0..cfg.arrivals_per_stream as u32 {
            t += gen.next_gap_s(&mut rng);
            exec.schedule_at(
                t,
                LoadTask {
                    s,
                    n,
                    attempt: 0,
                    priority: Priority::Normal,
                },
            );
        }
        tr.end(open);
    }

    let mut events = 0u64;
    loop {
        let open = harness.tr.begin(Layer::Exec, "step");
        let more = exec.step(&mut harness);
        harness.tr.end(open);
        if !more {
            break;
        }
        events += 1;
    }
    harness.tr.set_req(0);

    for stream in &mut harness.streams {
        loop {
            let open = harness.tr.begin(Layer::Core, "sync");
            let r = stream.fe.sync();
            harness.tr.end(open);
            harness.rpcs += 1;
            match r {
                Ok(()) => break,
                Err(CoreError::Shed { .. }) => harness.counts.shed_notices += 1,
                Err(CoreError::KernelFailed { .. }) => harness.counts.failure_notices += 1,
                Err(_) => {
                    harness.counts.client_errors += 1;
                    break;
                }
            }
        }
    }
    let mut readbacks = Vec::new();
    if readback {
        for stream in &harness.streams {
            let (fe, b) = (&stream.fe, &stream.bufs);
            let got = harness.tr.time(Layer::Core, "memcpy_d2h", || {
                fe.memcpy_d2h(b.output, 0, b.output_len)
            });
            harness.rpcs += 1;
            readbacks.push((fe.ctx(), got.ok()));
        }
    }
    let Harness {
        streams,
        counts,
        mut tr,
        rpcs,
        ..
    } = harness;
    tr.time(Layer::Core, "disconnect", || drop(streams));
    let report = tr.time(Layer::Core, "shutdown", || rt.shutdown());

    let lat = report.stats.latency_summary();
    let report = LoadReport {
        generated: cfg.generated(),
        client: counts,
        completed: report.stats.kernel_outcomes.len() as u64,
        failed: report.stats.failed_kernels,
        shed: report.stats.shed_requests,
        drained: report.stats.drained_requests,
        max_pending_depth: report.stats.max_pending_depth,
        max_degradation_level: report.stats.max_degradation_level,
        degradation_steps: report.stats.degradation_steps,
        elapsed_s: report.elapsed_s,
        energy_j: report.energy.energy_j + report.stats.cpu_energy_j,
        p99_latency_s: lat.percentile(99.0).unwrap_or(0.0),
        mean_latency_s: lat.mean(),
        stats: report.stats,
        telemetry: report.telemetry,
    };
    Outcome {
        report,
        rpcs,
        events,
        readbacks,
        tr,
    }
}
