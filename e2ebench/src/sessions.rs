//! The `paper_sessions` workload: the paper's own closed-loop traffic.
//!
//! Rounds alternate the Table 5–6 mix (2 Search + 10 BlackScholes) and
//! the Table 7–8 mix (1 Encryption + 1 MonteCarlo). In each round every
//! instance is its own frontend that connects, registers its constants,
//! uploads, launches, syncs, reads back and disconnects; the decision
//! engine is not forced. The loop is closed: each round is an event on
//! the executor, due a Poisson think time (mean [`THINK_S`]) after the
//! previous round completed. A session is one runtime serving a fixed
//! number of rounds, so the backend's per-session growth shows in peak
//! RSS at a size that does not depend on how fast the host is.

use std::sync::Arc;

use ewc_core::{BackendStats, Runtime, RuntimeConfig, Template};
use ewc_exec::{Executor, SimTask, VirtualClock};
use ewc_gpu::{GpuConfig, SimRng};
use ewc_load::{ArrivalGen, ArrivalProcess};
use ewc_telemetry::{TelemetrySink, TelemetrySnapshot};
use ewc_workloads::{
    AesWorkload, BlackScholesWorkload, MonteCarloWorkload, SearchWorkload, Workload,
};

use crate::trace::{Layer, Tracer};
use crate::{digest, TracedAlloc};

/// Mean think time between a round's completion and the next round,
/// simulated seconds (a round itself takes ~51 simulated seconds).
pub const THINK_S: f64 = 1.0;

/// Seed domain of the think-time draws.
const THINK_DOMAIN: u64 = 0x7411_4b00;

/// One registered workload: its registry name and implementation.
pub type Named = (&'static str, Arc<dyn Workload>);

/// The two round mixes, instances in template layout order.
pub struct Mixes {
    /// Table 5–6: 2 Search + 10 BlackScholes.
    pub sb: Vec<Named>,
    /// Table 7–8: 1 Encryption + 1 MonteCarlo.
    pub em: Vec<Named>,
}

impl Mixes {
    /// The paper's configurations on the testbed GPU.
    pub fn paper() -> Self {
        let cfg = GpuConfig::tesla_c1060();
        let search: Arc<dyn Workload> = Arc::new(SearchWorkload::tables56(&cfg));
        let bs: Arc<dyn Workload> = Arc::new(BlackScholesWorkload::tables56(&cfg));
        let aes: Arc<dyn Workload> = Arc::new(AesWorkload::tables78(&cfg));
        let mc: Arc<dyn Workload> = Arc::new(MonteCarloWorkload::tables78(&cfg));
        let mut sb: Vec<Named> = vec![("search", Arc::clone(&search)); 2];
        sb.extend(std::iter::repeat_n(("blackscholes", bs), 10));
        Mixes {
            sb,
            em: vec![("encryption", aes), ("montecarlo", mc)],
        }
    }

    /// Round `r`'s instances: even rounds Search+BlackScholes, odd
    /// rounds Encryption+MonteCarlo.
    pub fn round(&self, r: usize) -> &[Named] {
        if r.is_multiple_of(2) {
            &self.sb
        } else {
            &self.em
        }
    }

    /// Every distinct workload, by registry name.
    pub fn distinct(&self) -> Vec<Named> {
        let mut out: Vec<Named> = Vec::new();
        for (name, w) in self.sb.iter().chain(&self.em) {
            if !out.iter().any(|(n, _)| n == name) {
                out.push((name, Arc::clone(w)));
            }
        }
        out
    }
}

/// Seed of instance `i` in round `r`, derived from the workload seed.
pub fn instance_seed(seed: u64, r: usize, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((r as u64) << 16 | i as u64)
}

/// Digests of the host references for every read-back of a session,
/// `[round][instance]`. Digests rather than bytes: a full set of
/// references for every sub-seed would be hundreds of MB and would
/// swamp the peak RSS the benchmark reports.
pub fn references(mixes: &Mixes, seed: u64, rounds: usize) -> Vec<Vec<u64>> {
    (0..rounds)
        .map(|r| {
            mixes
                .round(r)
                .iter()
                .enumerate()
                .map(|(i, (_, w))| digest(&w.expected_output(instance_seed(seed, r, i))))
                .collect()
        })
        .collect()
}

/// Read-backs that are missing or differ from their reference digest.
pub fn wrong_outputs(readbacks: &[Vec<Option<Vec<u8>>>], refs: &[Vec<u64>]) -> u64 {
    let mut wrong = 0;
    for (got, want) in readbacks.iter().zip(refs) {
        for (g, w) in got.iter().zip(want) {
            if g.as_deref().map(digest) != Some(*w) {
                wrong += 1;
            }
        }
    }
    wrong
}

/// Requests one session of `rounds` rounds generates.
pub fn requests(mixes: &Mixes, rounds: usize) -> u64 {
    (0..rounds).map(|r| mixes.round(r).len() as u64).sum()
}

/// Build the session's runtime: every paper workload and template
/// registered, the consolidation threshold above the largest round (the
/// round's sync triggers the flush, as in the paper's experiments), and
/// the backend on `clock`, the session executor's virtual clock, so the
/// session replays bit-for-bit.
pub fn build_runtime(mixes: &Mixes, seed: u64, clock: VirtualClock, telemetry: bool) -> Runtime {
    let sink = if telemetry {
        TelemetrySink::enabled_virtual(clock)
    } else {
        TelemetrySink::disabled_virtual(clock)
    };
    let mut b = Runtime::builder(RuntimeConfig {
        threshold_factor: 30,
        noise_seed: Some(seed),
        ..RuntimeConfig::default()
    })
    .telemetry(sink);
    for (name, w) in mixes.distinct() {
        b = b.workload(name, w).template(Template::homogeneous(name));
    }
    b.template(Template::heterogeneous(
        "search+blackscholes",
        &["search", "blackscholes"],
    ))
    .template(Template::heterogeneous(
        "encryption+montecarlo",
        &["encryption", "montecarlo"],
    ))
    .build()
}

/// What one session's timed phase produced.
pub struct SessionOutcome {
    /// Backend statistics at shutdown.
    pub stats: BackendStats,
    /// Simulated session time, seconds.
    pub elapsed_s: f64,
    /// Whole-system energy including CPU-offloaded work, joules.
    pub energy_j: f64,
    /// Every read-back, `[round][instance]` (`None`: not read back).
    /// They are checked against the references after the timed phase.
    pub readbacks: Vec<Vec<Option<Vec<u8>>>>,
    /// Frontend calls that returned an error.
    pub client_errors: u64,
    /// Blocking RPCs issued.
    pub rpcs: u64,
    /// Executor events fired (one per round).
    pub events: u64,
    /// Telemetry snapshot when the runtime was built with telemetry.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Executor state of one session.
struct Session<'a> {
    rt: &'a Runtime,
    mixes: &'a Mixes,
    seed: u64,
    rounds: usize,
    tr: &'a mut Tracer,
    think: ArrivalGen,
    rng: SimRng,
    rpcs: u64,
    client_errors: u64,
    readbacks: Vec<Vec<Option<Vec<u8>>>>,
}

/// Round `r` is due.
struct Round(usize);

impl<'a> SimTask<Session<'a>> for Round {
    fn fire(self, _now_s: f64, st: &mut Session<'a>, exec: &mut Executor<Session<'a>, Self>) {
        st.round(self.0);
        if self.0 + 1 < st.rounds {
            st.schedule(exec, self.0 + 1);
        }
    }
}

impl<'a> Session<'a> {
    /// Schedule round `r` one think time from now.
    fn schedule(&mut self, exec: &mut Executor<Session<'a>, Round>, r: usize) {
        let open = self.tr.begin(Layer::Load, "schedule");
        let at = exec.clock().now_s() + self.think.next_gap_s(&mut self.rng);
        exec.schedule_at(at, Round(r));
        self.tr.end(open);
    }

    fn round(&mut self, r: usize) {
        let tr = &mut *self.tr;
        let (rt, mixes) = (self.rt, self.mixes);
        let mut live = Vec::new();
        let mut readbacks = vec![None; mixes.round(r).len()];
        for (i, (name, w)) in mixes.round(r).iter().enumerate() {
            let req = (r * 64 + i + 1) as u64;
            tr.set_req(req);
            let mut fe = tr.time(Layer::Core, "connect", || rt.connect());
            if let Some((key, data)) = w.constant_data() {
                self.rpcs += 1;
                if tr
                    .time(Layer::Core, "register_constant", || {
                        fe.register_constant(key, &data)
                    })
                    .is_err()
                {
                    self.client_errors += 1;
                }
            }
            let open = tr.begin(Layer::Workloads, "build_args");
            let built = w.build_args(
                &mut TracedAlloc {
                    fe: &mut fe,
                    tr: &mut *tr,
                    rpcs: &mut self.rpcs,
                },
                instance_seed(self.seed, r, i),
            );
            tr.end(open);
            let Ok((args, bufs)) = built else {
                self.client_errors += 1;
                continue;
            };
            let open = tr.begin(Layer::Core, "launch");
            let mut ok = fe
                .configure_call(w.blocks(), w.desc().threads_per_block)
                .is_ok();
            for a in &args {
                ok &= fe.setup_argument(*a).is_ok();
            }
            self.rpcs += 1;
            ok &= fe.launch(name).is_ok();
            tr.end(open);
            if !ok {
                self.client_errors += 1;
            }
            live.push((fe, bufs, i, req));
        }
        tr.set_req(0);
        if let Some((fe, ..)) = live.first() {
            self.rpcs += 1;
            if tr.time(Layer::Core, "sync", || fe.sync()).is_err() {
                self.client_errors += 1;
            }
        }
        for (fe, bufs, i, req) in &live {
            tr.set_req(*req);
            self.rpcs += 1;
            let got = tr.time(Layer::Core, "memcpy_d2h", || {
                fe.memcpy_d2h(bufs.output, 0, bufs.output_len)
            });
            match got {
                Ok(bytes) => readbacks[*i] = Some(bytes),
                Err(_) => self.client_errors += 1,
            }
        }
        tr.set_req(0);
        tr.time(Layer::Core, "disconnect", || drop(live));
        self.readbacks.push(readbacks);
    }
}

/// Run `rounds` rounds on `rt`, whose backend runs on `clock`, then shut
/// it down.
pub fn run(
    rt: Runtime,
    clock: VirtualClock,
    mixes: &Mixes,
    seed: u64,
    rounds: usize,
    tr: &mut Tracer,
) -> SessionOutcome {
    let mut exec: Executor<Session, Round> = Executor::with_clock(clock);
    let mut st = Session {
        rt: &rt,
        mixes,
        seed,
        rounds,
        tr: &mut *tr,
        think: ArrivalGen::new(ArrivalProcess::Poisson {
            rate_hz: 1.0 / THINK_S,
        }),
        rng: SimRng::seed_from_u64(seed ^ THINK_DOMAIN),
        rpcs: 0,
        client_errors: 0,
        readbacks: Vec::with_capacity(rounds),
    };
    if rounds > 0 {
        st.schedule(&mut exec, 0);
    }
    let mut events = 0u64;
    loop {
        let open = st.tr.begin(Layer::Exec, "step");
        let more = exec.step(&mut st);
        st.tr.end(open);
        if !more {
            break;
        }
        events += 1;
    }
    let Session {
        rpcs,
        client_errors,
        readbacks,
        ..
    } = st;
    let report = tr.time(Layer::Core, "shutdown", || rt.shutdown());
    SessionOutcome {
        energy_j: report.energy.energy_j + report.stats.cpu_energy_j,
        elapsed_s: report.elapsed_s,
        stats: report.stats,
        readbacks,
        client_errors,
        rpcs,
        events,
        telemetry: report.telemetry,
    }
}
