//! Workloads, iterations and the metrics each run reports.
//!
//! One *iteration* is one unit of work with its own set-up: a whole
//! 65,536-arrival storm for the open-loop workloads, a whole session of
//! rounds for `paper_sessions`. A run repeats iterations of one seed
//! until its time is up and reports medians; every iteration of a run
//! must reproduce the first one's simulated results bit-for-bit.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ewc_core::{BackendStats, Choice, PowerStatesConfig};
use ewc_exec::VirtualClock;
use ewc_gpu::GpuConfig;
use ewc_load::openloop::LoadConfig;
use ewc_telemetry::export::{chrome, jsonl, summary};
use ewc_telemetry::TelemetrySnapshot;
use ewc_workloads::Workload;

use crate::replay::{self, ReplayMetrics};
use crate::sessions::{self, Mixes};
use crate::trace::{median, percentile, Layer, Tracer};
use crate::{digest, openloop};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 256 streams × 256 Poisson arrivals at 2× the base rate through the
    /// preset admission policy, 1 GPU, flat power.
    OpenloopStorm,
    /// The same open loop at 1× on 2 GPUs under race-to-idle DVFS.
    OpenloopDvfs,
    /// The paper's Table 5–6 and 7–8 mixes as closed-loop sessions.
    PaperSessions,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 3] = [Kind::OpenloopStorm, Kind::OpenloopDvfs, Kind::PaperSessions];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpenloopStorm => "openloop_storm",
            Kind::OpenloopDvfs => "openloop_dvfs",
            Kind::PaperSessions => "paper_sessions",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Problem size: `Full` is the benchmark; `Tiny` exists for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few requests, for tests.
    Tiny,
}

/// Rounds per `paper_sessions` session at full size.
pub const SESSION_ROUNDS: usize = 16;

/// The open-loop configuration of `kind` (`None` for `paper_sessions`).
pub fn load_config(kind: Kind, size: Size, seed: u64) -> Option<LoadConfig> {
    let mut cfg = match kind {
        Kind::OpenloopStorm => LoadConfig::storm(seed),
        Kind::OpenloopDvfs => {
            let mut c = LoadConfig::scaled(seed, LoadConfig::poisson(), 1.0);
            c.num_gpus = 2;
            c.power_states = Some(PowerStatesConfig::race());
            c
        }
        Kind::PaperSessions => return None,
    };
    (cfg.streams, cfg.arrivals_per_stream) = match size {
        Size::Full => (256, 256),
        Size::Tiny => (8, 8),
    };
    Some(cfg)
}

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held on every iteration.
    pub ok: bool,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Host-independent: simulated results and exact work counts repeat
    /// bit-for-bit on any host; host times do not.
    pub exact: bool,
}

/// An ordered metric list.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn host(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, false);
    }

    fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, true);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, exact: bool) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            exact,
        });
    }
}

/// The simulated results of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Requests generated.
    pub generated: u64,
    /// Failed, drained, wrong-output and client-error requests.
    pub errors: u64,
    /// Requests shed.
    pub shed: u64,
    /// Whole-system joules per completed request.
    pub energy_per_req_j: f64,
    /// Median completed-request latency, simulated seconds.
    pub p50_s: f64,
    /// 99th-percentile latency, simulated seconds.
    pub p99_s: f64,
    /// Completed requests per simulated second.
    pub goodput_hz: f64,
    /// Mean |predicted − simulated| / simulated over GPU-verdict groups, %.
    pub model_time_err_pct: f64,
    /// Digest of the full backend statistics.
    pub digest: u64,
}

impl Sim {
    fn from(
        generated: u64,
        errors: u64,
        stats: &BackendStats,
        elapsed_s: f64,
        energy_j: f64,
    ) -> Sim {
        let lat = stats.latency_summary();
        let completed = stats.kernel_outcomes.len() as f64;
        let gpu: Vec<f64> = stats
            .records
            .iter()
            .filter(|r| r.choice != Choice::Cpu && r.actual_time_s > 0.0)
            .map(|r| (r.predicted_time_s - r.actual_time_s).abs() / r.actual_time_s)
            .collect();
        let mut h = DefaultHasher::new();
        format!("{stats:?}").hash(&mut h);
        elapsed_s.to_bits().hash(&mut h);
        energy_j.to_bits().hash(&mut h);
        Sim {
            generated,
            errors,
            shed: stats.shed_requests,
            energy_per_req_j: energy_j / completed,
            p50_s: lat.percentile(50.0).unwrap_or(0.0),
            p99_s: lat.percentile(99.0).unwrap_or(0.0),
            goodput_hz: completed / elapsed_s,
            model_time_err_pct: 100.0 * gpu.iter().sum::<f64>() / gpu.len().max(1) as f64,
            digest: h.finish(),
        }
    }

    /// Fraction of generated requests shed.
    pub fn shed_frac(&self) -> f64 {
        self.shed as f64 / self.generated as f64
    }

    /// Fraction of generated requests in error.
    pub fn error_frac(&self) -> f64 {
        self.errors as f64 / self.generated as f64
    }
}

/// One iteration's measurements.
pub struct Iteration {
    /// Host time of the set-up phase, seconds.
    pub setup_s: f64,
    /// Host time of the timed phase, seconds.
    pub timed_s: f64,
    /// Simulated results.
    pub sim: Sim,
    /// Exact work counters.
    pub counters: Metrics,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Backend statistics (the replay's input).
    pub stats: BackendStats,
    /// Telemetry snapshot, when the iteration ran with telemetry.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The span recorder.
    pub tr: Tracer,
    /// Timed phase on the recorder's clock, ns.
    pub window_ns: (u64, u64),
}

/// Exact per-layer counters every workload reports.
fn counters(
    stats: &BackendStats,
    generated: u64,
    arrivals: u64,
    events: u64,
    rpcs: u64,
) -> Metrics {
    let mut m = Metrics::default();
    let groups = stats.records.len() as f64;
    let members: usize = stats.records.iter().map(|r| r.kernels.len()).sum();
    m.exact("load.arrivals", arrivals as f64, "count");
    m.exact("exec.events", events as f64, "count");
    m.exact("core.rpc_calls", rpcs as f64, "count");
    m.exact(
        "core.rpc_per_request",
        rpcs as f64 / generated as f64,
        "rpc/req",
    );
    m.exact("core.messages", stats.messages as f64, "count");
    m.exact(
        "core.busy_rejections",
        stats.busy_rejections as f64,
        "count",
    );
    m.exact("core.shed", stats.shed_requests as f64, "count");
    m.exact(
        "core.max_pending_depth",
        stats.max_pending_depth as f64,
        "count",
    );
    m.exact("core.groups", groups, "count");
    m.exact(
        "core.mean_group_size",
        members as f64 / groups.max(1.0),
        "req/group",
    );
    m.exact("core.launches", stats.launches as f64, "count");
    m.exact(
        "core.consolidated_launches",
        stats.consolidated_launches as f64,
        "count",
    );
    m.exact("core.cpu_executions", stats.cpu_executions as f64, "count");
    m.exact("core.staged_bytes", stats.staged_bytes as f64, "B");
    m.exact(
        "core.reaped_frontends",
        stats.reaped_frontends as f64,
        "count",
    );
    m.exact("core.sim_overhead_s", stats.overhead_s(), "sim_s");
    m.exact("gpu.state_transitions", stats.state_changes as f64, "count");
    m
}

/// Sub-seeds one run cycles through. A single storm is one draw of a
/// stochastic schedule (its p99 moved ~10% between seeds), so a run
/// reports simulated metrics as the mean over this many sub-seeds
/// derived from `--seed`; sub-seed 0 is `--seed` itself.
pub const SUB_SEEDS: usize = 8;

/// Sub-seed `k` of `seed` (sub-seed 0 is `seed`).
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// A run's inputs, generated from its seed before anything is timed:
/// the workload's configuration and, per sub-seed, the digests of the
/// host references every read-back is checked against.
pub struct Inputs {
    seeds: Vec<u64>,
    load: Option<LoadConfig>,
    mixes: Mixes,
    rounds: usize,
    /// `[sub-seed][round][instance]`; an open loop has one row, its
    /// streams' outputs.
    refs: Vec<Vec<Vec<u64>>>,
}

impl Inputs {
    /// Generate the run's inputs from its seed.
    pub fn new(kind: Kind, size: Size, seed: u64) -> Inputs {
        let mixes = Mixes::paper();
        let rounds = match size {
            Size::Full => SESSION_ROUNDS,
            Size::Tiny => 2,
        };
        let seeds: Vec<u64> = (0..SUB_SEEDS).map(|k| sub_seed(seed, k)).collect();
        let load = load_config(kind, size, seed);
        let refs = seeds
            .iter()
            .map(|s| match &load {
                Some(cfg) => vec![openloop::references(cfg, *s)],
                None => sessions::references(&mixes, *s, rounds),
            })
            .collect();
        Inputs {
            load,
            seeds,
            mixes,
            rounds,
            refs,
        }
    }

    /// Registry name → implementation of every workload the run launches.
    pub fn workloads(&self) -> BTreeMap<String, Arc<dyn Workload>> {
        match &self.load {
            Some(cfg) => {
                let w = openloop::tiny_search(&GpuConfig::tesla_c1060(), cfg.kernel_target_s);
                BTreeMap::from([(
                    openloop::KERNEL.to_string(),
                    Arc::new(w) as Arc<dyn Workload>,
                )])
            }
            None => self
                .mixes
                .distinct()
                .into_iter()
                .map(|(n, w)| (n.to_string(), w))
                .collect(),
        }
    }

    fn num_gpus(&self) -> usize {
        self.load.as_ref().map_or(1, |c| c.num_gpus as usize)
    }

    fn power_states(&self) -> Option<&PowerStatesConfig> {
        self.load.as_ref().and_then(|c| c.power_states.as_ref())
    }

    /// Run one iteration on sub-seed `k`; `telemetry` attaches an
    /// enabled sink.
    pub fn iteration(&self, k: usize, tr: Tracer, telemetry: bool) -> Iteration {
        match &self.load {
            Some(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed = self.seeds[k];
                cfg.telemetry = telemetry;
                openloop_iteration(&cfg, &self.refs[k][0], tr)
            }
            None => self.session_iteration(k, tr, telemetry),
        }
    }

    fn session_iteration(&self, k: usize, mut tr: Tracer, telemetry: bool) -> Iteration {
        let seed = self.seeds[k];
        let clock = VirtualClock::new();
        let t0 = Instant::now();
        let rt = tr.time(Layer::Core, "runtime_build", || {
            sessions::build_runtime(&self.mixes, seed, clock.clone(), telemetry)
        });
        let t1 = Instant::now();
        let out = sessions::run(rt, clock, &self.mixes, seed, self.rounds, &mut tr);
        let t2 = Instant::now();
        let wrong = sessions::wrong_outputs(&out.readbacks, &self.refs[k]);
        let generated = sessions::requests(&self.mixes, self.rounds);
        let s = &out.stats;
        let errors = s.failed_kernels + s.drained_requests + wrong + out.client_errors;
        let sim = Sim::from(generated, errors, s, out.elapsed_s, out.energy_j);
        let completed = s.kernel_outcomes.len() as u64;
        let checks = vec![
            Check {
                name: "conservation: generated = completed + failed + shed + drained",
                ok: generated
                    == completed + s.failed_kernels + s.shed_requests + s.drained_requests,
            },
            Check {
                name: "zero client errors",
                ok: out.client_errors == 0,
            },
            Check {
                name: "every read-back equals its host reference",
                ok: wrong == 0,
            },
        ];
        let counters = counters(s, generated, self.rounds as u64, out.events, out.rpcs);
        Iteration {
            setup_s: (t1 - t0).as_secs_f64(),
            timed_s: (t2 - t1).as_secs_f64(),
            sim,
            counters,
            checks,
            stats: out.stats,
            telemetry: out.telemetry,
            window_ns: (tr.ns_at(t1), tr.ns_at(t2)),
            tr,
        }
    }
}

/// One storm; `refs` holds each stream's reference output digest.
fn openloop_iteration(cfg: &LoadConfig, refs: &[u64], tr: Tracer) -> Iteration {
    let t0 = Instant::now();
    let prepared = openloop::prepare(cfg, tr);
    let t1 = Instant::now();
    let out = openloop::run(prepared, cfg, true);
    let t2 = Instant::now();
    let r = out.report;
    // A stream whose every request was shed never wrote its buffer;
    // every other stream must read back its reference output.
    let served: BTreeSet<u64> = r.stats.kernel_outcomes.iter().map(|o| o.ctx).collect();
    let wrong = out
        .readbacks
        .iter()
        .zip(refs)
        .filter(|((ctx, got), want)| {
            served.contains(ctx) && got.as_deref().map(digest) != Some(**want)
        })
        .count() as u64;
    let errors = r.failed + r.drained + r.client.client_errors + wrong;
    let sim = Sim::from(r.generated, errors, &r.stats, r.elapsed_s, r.energy_j);
    let bound = cfg
        .admission
        .as_ref()
        .map_or(u64::MAX, |a| a.max_per_device as u64 * cfg.num_gpus as u64);
    let checks = vec![
        Check {
            name: "conservation: generated = completed + failed + shed + drained",
            ok: r.conserved(),
        },
        Check {
            name: "zero client errors",
            ok: r.client.client_errors == 0,
        },
        Check {
            name: "shed accounting: backend shed = client shed answers + notices",
            ok: r.shed == r.client.shed_at_admission + r.client.shed_notices,
        },
        Check {
            name: "pending depth within the admission bound",
            ok: r.max_pending_depth <= bound,
        },
        Check {
            name: "every read-back equals its host reference",
            ok: wrong == 0 && out.readbacks.len() == refs.len(),
        },
    ];
    let counters = counters(&r.stats, r.generated, r.generated, out.events, out.rpcs);
    Iteration {
        setup_s: (t1 - t0).as_secs_f64(),
        timed_s: (t2 - t1).as_secs_f64(),
        sim,
        counters,
        checks,
        stats: r.stats,
        telemetry: r.telemetry,
        window_ns: (out.tr.ns_at(t1), out.tr.ns_at(t2)),
        tr: out.tr,
    }
}

/// The reference loop's time on the host the benchmark was tuned on
/// (an Intel Xeon vCPU, pinned, in its faster state), seconds.
pub const REFERENCE_LOOP_S: f64 = 0.07;

/// Time a fixed CPU- and cache-bound loop that shares no code with the
/// program: sort 400k integers, then fill and probe a 100k-entry
/// B-tree, five times. On a shared host the same storm took 1.0–1.7 s
/// as the host's speed drifted over tens of seconds, and this loop
/// slowed in step (correlation 0.85 over 30 storms); scaling host times
/// by it halved their spread. Host metrics are therefore reported in
/// reference-host seconds: measured time × [`REFERENCE_LOOP_S`] ÷ this
/// loop's time around the measurement.
pub fn reference_loop_s() -> f64 {
    let t = Instant::now();
    for _ in 0..5 {
        let mut v: Vec<u64> = (0..400_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();
        v.sort_unstable();
        let map: BTreeMap<u64, usize> = v.iter().take(100_000).map(|x| (*x, 0)).collect();
        let hits = v.iter().step_by(7).filter(|x| map.contains_key(x)).count();
        std::hint::black_box(hits);
    }
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one benchmark run.
pub struct RunResult {
    /// Metrics, end-to-end or per-layer depending on the mode.
    pub metrics: Metrics,
    /// Every check of every iteration, folded per check.
    pub checks: Vec<Check>,
    /// Requests attempted in timed phases.
    pub attempted: u64,
    /// Of which in error.
    pub failed: u64,
    /// Host time of each iteration's timed phase, seconds.
    pub timed_s: Vec<f64>,
    /// Digest of sub-seed 0's backend statistics: equal in the traced
    /// and the untraced run of one seed.
    pub digest: u64,
    /// Spans of the traced iteration and its replay, as JSON lines.
    pub spans_jsonl: Option<String>,
}

/// Fold per-iteration checks (and the run's own) into one list.
fn fold_checks<'a>(its: impl Iterator<Item = &'a Iteration>, extra: Vec<Check>) -> Vec<Check> {
    let mut out: Vec<Check> = Vec::new();
    for it in its {
        for c in &it.checks {
            match out.iter_mut().find(|o| o.name == c.name) {
                Some(o) => o.ok &= c.ok,
                None => out.push(c.clone()),
            }
        }
    }
    out.extend(extra);
    out
}

/// Mean of `f` over the sub-seeds' results.
fn mean(sims: &[&Sim], f: impl Fn(&Sim) -> f64) -> f64 {
    sims.iter().map(|s| f(s)).sum::<f64>() / sims.len() as f64
}

/// Repeat untraced iterations for `seconds`, cycling through the
/// sub-seeds (every sub-seed at least once), and report the end-to-end
/// metrics: host times as medians over iterations, simulated results
/// as means over sub-seeds.
pub fn measure(inputs: &Inputs, seconds: f64) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut its = vec![inputs.iteration(0, Tracer::off(), false)];
    // Peak RSS of a fresh process through one iteration: later
    // iterations reuse freed memory unevenly, so the high-water mark
    // after many would depend on how many fit in the run.
    let rss_mb = peak_rss_mb();
    let mut loops = vec![reference_loop_s()];
    while its.len() < SUB_SEEDS || Instant::now() < deadline {
        its.push(inputs.iteration(its.len() % SUB_SEEDS, Tracer::off(), false));
        loops.push(reference_loop_s());
    }
    // Each iteration's host-speed factor: the reference loop's time
    // around it relative to the reference host's (the first iteration
    // has a loop only after it, so the loop cannot touch its peak RSS).
    let slow: Vec<f64> = (0..its.len())
        .map(|i| 0.5 * (loops[i.saturating_sub(1)] + loops[i]) / REFERENCE_LOOP_S)
        .collect();
    let sims: Vec<&Sim> = its[..SUB_SEEDS].iter().map(|i| &i.sim).collect();
    let replays = Check {
        name: "every iteration reproduces its sub-seed's simulated results bit-for-bit",
        ok: its
            .iter()
            .enumerate()
            .all(|(i, it)| it.sim == *sims[i % SUB_SEEDS]),
    };
    let rate = |i: &Iteration| i.sim.generated as f64 / i.timed_s;
    let scaled = |f: &dyn Fn(&Iteration) -> f64, by: fn(f64, f64) -> f64| {
        let mut v: Vec<f64> = its.iter().zip(&slow).map(|(i, s)| by(f(i), *s)).collect();
        median(&mut v)
    };
    let mut m = Metrics::default();
    m.host("setup_s", scaled(&|i| i.setup_s, |t, s| t / s), "s");
    m.host("host_req_per_s", scaled(&rate, |r, s| r * s), "req/s");
    m.host("peak_rss_mb", rss_mb, "MB");
    m.exact(
        "energy_per_req_j",
        mean(&sims, |s| s.energy_per_req_j),
        "J/req",
    );
    m.exact("sim_p50_latency_s", mean(&sims, |s| s.p50_s), "sim_s");
    m.exact("sim_p99_latency_s", mean(&sims, |s| s.p99_s), "sim_s");
    m.exact("goodput_hz", mean(&sims, |s| s.goodput_hz), "req/sim_s");
    m.exact("unshed_frac", 1.0 - mean(&sims, Sim::shed_frac), "fraction");
    m.exact("ok_frac", 1.0 - mean(&sims, Sim::error_frac), "fraction");
    m.exact(
        "model_time_err_pct",
        mean(&sims, |s| s.model_time_err_pct),
        "%",
    );
    m.exact("shed_frac", mean(&sims, Sim::shed_frac), "fraction");
    m.exact("error_frac", mean(&sims, Sim::error_frac), "fraction");
    m.host("setup_s_unscaled", scaled(&|i| i.setup_s, |t, _| t), "s");
    m.host("host_req_per_s_unscaled", scaled(&rate, |r, _| r), "req/s");
    m.host("reference_loop_s", median(&mut loops), "s");
    m.0.extend(its[0].counters.0.iter().cloned());
    RunResult {
        checks: fold_checks(its.iter(), vec![replays]),
        attempted: its.iter().map(|i| i.sim.generated).sum(),
        failed: its.iter().map(|i| i.sim.errors).sum(),
        timed_s: its.iter().map(|i| i.timed_s).collect(),
        digest: its[0].sim.digest,
        metrics: m,
        spans_jsonl: None,
    }
}

/// Host-time metrics of one traced iteration, from its spans.
fn span_metrics(it: &Iteration) -> BTreeMap<&'static str, f64> {
    let tr = &it.tr;
    let core = |name: &str| tr.total_s(Layer::Core, name);
    let launch = if tr.count(Layer::Core, "launch_with") > 0 {
        "launch_with"
    } else {
        "launch"
    };
    let mut launch_us: Vec<f64> = tr
        .durations_s(Layer::Core, launch)
        .into_iter()
        .map(|s| s * 1e6)
        .collect();
    let layer_self = tr.layer_self_s();
    let self_s = |l: Layer| layer_self.get(&l).copied().unwrap_or(0.0);
    let (lo, hi) = it.window_ns;
    let covered_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent == u32::MAX && s.start_ns >= lo && s.end_ns <= hi)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    BTreeMap::from([
        ("load.schedule_s", tr.total_s(Layer::Load, "schedule")),
        ("exec.self_s", self_s(Layer::Exec)),
        ("core.self_s", self_s(Layer::Core)),
        ("core.launch_s", core(launch)),
        ("core.launch_us_p50", percentile(&mut launch_us, 50.0)),
        ("core.launch_us_p99", percentile(&mut launch_us, 99.0)),
        ("core.sync_s", core("sync")),
        ("core.connect_s", core("connect")),
        (
            "core.upload_s",
            core("malloc") + core("memcpy_h2d") + core("register_constant"),
        ),
        ("core.readback_s", core("memcpy_d2h")),
        ("core.disconnect_s", core("disconnect")),
        ("core.shutdown_s", core("shutdown")),
        ("workloads.build_args_s", self_s(Layer::Workloads)),
        (
            "trace.unattributed_frac",
            1.0 - covered_ns as f64 / (hi - lo).max(1) as f64,
        ),
    ])
}

/// Alternate untraced and traced iterations of sub-seed 0 for
/// `seconds` (at least two of each), then run one iteration with the
/// telemetry sink enabled, replay the last traced iteration's groups
/// through the lower layers, and report the per-layer metrics.
pub fn traced(inputs: &Inputs, seconds: f64) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    while traced.len() < 2 || Instant::now() < deadline {
        plain.push(inputs.iteration(0, Tracer::off(), false));
        traced.push(inputs.iteration(0, Tracer::on(), false));
    }
    let tel = inputs.iteration(0, Tracer::off(), true);

    let mut plain_s: Vec<f64> = plain.iter().map(|i| i.timed_s).collect();
    let mut traced_s: Vec<f64> = traced.iter().map(|i| i.timed_s).collect();
    let plain_med = median(&mut plain_s);
    let traced_med = median(&mut traced_s);

    // Host times: median over the traced iterations, per metric.
    let per_it: Vec<BTreeMap<&str, f64>> = traced.iter().map(span_metrics).collect();
    let mut host: BTreeMap<&str, f64> = BTreeMap::new();
    for key in per_it[0].keys() {
        let mut v: Vec<f64> = per_it.iter().map(|m| m[key]).collect();
        host.insert(key, median(&mut v));
    }

    let last = traced.last_mut().expect("at least two traced iterations");
    let rp = replay::replay(
        &last.stats.records,
        &last.stats.placements,
        &inputs.workloads(),
        inputs.power_states(),
        inputs.num_gpus(),
        inputs.seeds[0],
        &mut last.tr,
    );
    let snap = tel
        .telemetry
        .as_ref()
        .expect("telemetry iteration has a snapshot");
    let tr = &mut last.tr;
    let open = tr.begin(Layer::Telemetry, "export");
    let rendered = tr
        .time(Layer::Telemetry, "chrome", || chrome::render(snap))
        .len()
        + tr.time(Layer::Telemetry, "jsonl", || jsonl::render(snap))
            .len()
        + tr.time(Layer::Telemetry, "summary", || summary::render(snap))
            .len();
    tr.end(open);
    std::hint::black_box(rendered);
    let export_s = tr.total_s(Layer::Telemetry, "export");
    let spans_jsonl = Some(tr.to_jsonl());

    let m = per_layer(
        last,
        &host,
        &rp,
        snap,
        export_s,
        plain_med,
        traced_med,
        tel.timed_s,
    );
    let first = &plain[0].sim;
    let matches_untraced = Check {
        name: "traced iterations reproduce the untraced simulated results bit-for-bit",
        ok: plain.iter().chain(&traced).all(|i| i.sim == *first),
    };
    let measured = || plain.iter().chain(&traced);
    RunResult {
        checks: fold_checks(measured().chain([&tel]), vec![matches_untraced]),
        attempted: measured().map(|i| i.sim.generated).sum(),
        failed: measured().map(|i| i.sim.errors).sum(),
        timed_s: traced.iter().map(|i| i.timed_s).collect(),
        digest: first.digest,
        metrics: m,
        spans_jsonl,
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    it: &Iteration,
    host: &BTreeMap<&str, f64>,
    rp: &ReplayMetrics,
    snap: &TelemetrySnapshot,
    export_s: f64,
    plain_s: f64,
    traced_s: f64,
    telemetry_s: f64,
) -> Metrics {
    let mut m = it.counters.clone();
    let mut assess_us: Vec<f64> = rp.assess_call_s.iter().map(|s| s * 1e6).collect();
    m.host("load.schedule_s", host["load.schedule_s"], "s");
    m.host("exec.self_s", host["exec.self_s"], "s");
    m.host("core.launch_us_p50", host["core.launch_us_p50"], "us");
    m.host("core.launch_us_p99", host["core.launch_us_p99"], "us");
    for name in [
        "core.launch_s",
        "core.sync_s",
        "core.connect_s",
        "core.upload_s",
        "core.readback_s",
        "core.disconnect_s",
        "core.shutdown_s",
        "core.self_s",
    ] {
        m.host(name, host[name], "s");
    }
    m.exact("decision.assess_calls", rp.assess_calls as f64, "count");
    m.host("decision.assess_s", rp.assess_s, "s");
    m.host(
        "decision.assess_us_p50",
        percentile(&mut assess_us, 50.0),
        "us",
    );
    m.host(
        "decision.assess_us_p99",
        percentile(&mut assess_us, 99.0),
        "us",
    );
    m.exact("models.state_evals", rp.state_evals as f64, "count");
    m.exact("gpu.engine_runs", rp.engine_runs as f64, "count");
    m.exact("gpu.engine_blocks", rp.engine_blocks as f64, "count");
    m.host("gpu.engine_s", rp.engine_s, "s");
    m.host("workloads.functional_s", rp.functional_s, "s");
    m.host(
        "workloads.build_args_s",
        host["workloads.build_args_s"],
        "s",
    );
    m.host("cpu.run_s", rp.cpu_run_s, "s");
    m.exact("energy.intervals", rp.intervals as f64, "count");
    m.host("energy.integrate_s", rp.integrate_s, "s");
    m.exact("fleet.placements", rp.placements as f64, "count");
    m.host("fleet.place_s", rp.place_s, "s");
    m.exact("telemetry.spans", snap.spans.len() as f64, "count");
    m.host("telemetry.export_s", export_s, "s");
    m.host(
        "telemetry.enabled_overhead_frac",
        telemetry_s / plain_s - 1.0,
        "fraction",
    );
    m.host("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");
    m.host(
        "trace.unattributed_frac",
        host["trace.unattributed_frac"],
        "fraction",
    );
    m
}
