//! Replays a finished run's groups through the layers below the backend.
//!
//! The backend runs decision, engine, functional bodies, CPU simulation
//! and energy integration inside its own thread, where the benchmark
//! cannot put spans without instrumenting the program. Instead each
//! group in the run's `ConsolidationRecord`s is replayed from the
//! benchmark's thread through the same public functions — the decision
//! engine's `assess`, `ExecutionEngine::run`, `GpuDevice::launch`,
//! `DecisionEngine::run_on_cpu` and `GpuSystemPower::integrate_many` —
//! and each call is timed.

use std::collections::BTreeMap;
use std::sync::Arc;

use ewc_core::{Choice, ConsolidationRecord, DecisionEngine, PowerStatesConfig};
use ewc_cpu::{CpuConfig, CpuEngine, CpuPowerModel, CpuTask};
use ewc_energy::{GpuSystemPower, PowerCoefficients, ThermalModel, TrainingBenchmark};
use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, FleetGovernor, PlacementRecord, ResiliencePolicy};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{ExecutionEngine, GpuConfig, GpuDevice, Grid, GridSegment, LaunchConfig};
use ewc_models::{ConsolidationPlan, EnergyModel, KernelSpec, PowerModel};
use ewc_workloads::Workload;

use crate::trace::{Layer, Tracer};

/// System idle draw and model-training seed `RuntimeBuilder` uses.
const IDLE_W: f64 = 200.0;
const TRAINING_SEED: u64 = 42;

/// A decision engine built the way `RuntimeBuilder::build` builds the
/// backend's.
pub fn decision_engine(power_states: Option<&PowerStatesConfig>) -> DecisionEngine {
    let cfg = GpuConfig::tesla_c1060();
    let system = GpuSystemPower {
        idle_w: IDLE_W,
        ..GpuSystemPower::tesla_system()
    };
    let coeffs = PowerCoefficients::train(
        &cfg,
        &system.truth,
        &TrainingBenchmark::rodinia_suite(),
        TRAINING_SEED,
    )
    .expect("power-model training must converge");
    let energy = EnergyModel::new(
        cfg.clone(),
        PowerModel::new(coeffs, ThermalModel::gt200(), cfg),
        IDLE_W,
    );
    let engine = DecisionEngine::new(
        energy,
        CpuEngine::new(CpuConfig::xeon_e5520_x2()),
        CpuPowerModel::xeon_e5520_x2(),
    );
    match power_states {
        Some(ps) => engine.with_power_policy(ps.clone()),
        None => engine,
    }
}

/// Counts and host times of one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayMetrics {
    /// `assess` calls (one per group).
    pub assess_calls: u64,
    /// GPU model evaluations inside those calls: the two flat
    /// predictions plus two per runnable operating point.
    pub state_evals: u64,
    /// Host time in `assess`, seconds.
    pub assess_s: f64,
    /// Per-call `assess` times, seconds.
    pub assess_call_s: Vec<f64>,
    /// `ExecutionEngine::run` calls (one per GPU grid).
    pub engine_runs: u64,
    /// Thread blocks those grids held.
    pub engine_blocks: u64,
    /// Host time in `ExecutionEngine::run`, seconds.
    pub engine_s: f64,
    /// Host time in `GpuDevice::launch` of the same grids minus
    /// `engine_s`: the functional kernel bodies.
    pub functional_s: f64,
    /// Host time in `run_on_cpu` for CPU-verdict groups, seconds.
    pub cpu_run_s: f64,
    /// Activity intervals integrated.
    pub intervals: u64,
    /// Host time in `integrate_many`, seconds.
    pub integrate_s: f64,
    /// Placements replayed through the fleet governor.
    pub placements: u64,
    /// Host time in `FleetGovernor::place`, seconds.
    pub place_s: f64,
}

/// Replay `records` (and the run's `placements`) on a fresh device.
/// `workloads` maps registry names to implementations; each distinct
/// workload gets one set of device buffers that every replayed member
/// of that workload reuses.
pub fn replay(
    records: &[ConsolidationRecord],
    placements: &[PlacementRecord],
    workloads: &BTreeMap<String, Arc<dyn Workload>>,
    power_states: Option<&PowerStatesConfig>,
    num_gpus: usize,
    noise_seed: u64,
    tr: &mut Tracer,
) -> ReplayMetrics {
    let decision = decision_engine(power_states);
    let evals_per_assess = 2 + 2 * power_states.map_or(0, |ps| ps.table.operating_points().count());
    let mut device = GpuDevice::new(GpuConfig::tesla_c1060());
    let engine = ExecutionEngine::new(GpuConfig::tesla_c1060());
    let args: BTreeMap<&str, Vec<KernelArg>> = workloads
        .iter()
        .map(|(name, w)| {
            let (args, _) = w
                .build_args(&mut device, 1)
                .expect("replay buffers fit the device");
            (name.as_str(), args)
        })
        .collect();
    let mut m = ReplayMetrics::default();
    for rec in records {
        let members: Vec<(&str, &Arc<dyn Workload>)> = rec
            .kernels
            .iter()
            .map(|k| {
                let (name, w) = workloads
                    .get_key_value(&**k)
                    .expect("every recorded kernel is a registered workload");
                (name.as_str(), w)
            })
            .collect();
        let mut plan = ConsolidationPlan::new();
        let mut tasks: Vec<CpuTask> = Vec::with_capacity(members.len());
        for (_, w) in &members {
            plan.push(KernelSpec::new(w.desc(), w.blocks()));
            tasks.push(w.cpu_task());
        }
        let open = tr.begin(Layer::Decision, "assess");
        let assessment = decision.assess(&plan, &tasks);
        tr.end(open);
        std::hint::black_box(assessment);
        m.assess_calls += 1;
        m.state_evals += evals_per_assess as u64;

        let grids: Vec<Vec<&(&str, &Arc<dyn Workload>)>> = match rec.choice {
            Choice::Cpu => {
                let open = tr.begin(Layer::Cpu, "run_on_cpu");
                std::hint::black_box(decision.run_on_cpu(&tasks));
                tr.end(open);
                Vec::new()
            }
            Choice::Consolidate => vec![members.iter().collect()],
            Choice::SerialGpu => members.iter().map(|m| vec![m]).collect(),
        };
        for grid_members in grids {
            let mut grid = Grid::new();
            for (tag, (name, w)) in grid_members.iter().enumerate() {
                grid.push(
                    GridSegment::bare(w.desc(), w.blocks())
                        .with_args(args[name].clone())
                        .with_body(w.body())
                        .with_tag(tag as u64),
                );
                m.engine_blocks += w.blocks() as u64;
            }
            let launch = LaunchConfig::from_grid(grid);
            let open = tr.begin(Layer::Gpu, "engine_run");
            let sim = engine.run(&launch.grid, launch.policy.unwrap_or_default());
            tr.end(open);
            std::hint::black_box(sim.expect("replayed grid simulates"));
            m.engine_runs += 1;
            let open = tr.begin(Layer::Gpu, "launch");
            let report = device.launch(&launch);
            tr.end(open);
            std::hint::black_box(report.expect("replayed grid launches"));
        }
    }
    m.assess_call_s = tr.durations_s(Layer::Decision, "assess");
    m.assess_s = m.assess_call_s.iter().sum();
    m.engine_s = tr.total_s(Layer::Gpu, "engine_run");
    m.functional_s = (tr.total_s(Layer::Gpu, "launch") - m.engine_s).max(0.0);
    m.cpu_run_s = tr.total_s(Layer::Cpu, "run_on_cpu");

    let activity = vec![device.activity().to_vec(); 1];
    m.intervals = activity.iter().map(|a| a.len() as u64).sum();
    let system = GpuSystemPower {
        idle_w: IDLE_W,
        ..GpuSystemPower::tesla_system()
    };
    let open = tr.begin(Layer::Energy, "integrate_many");
    std::hint::black_box(system.integrate_many(&activity, device.now_s(), Some(noise_seed)));
    tr.end(open);
    m.integrate_s = tr.total_s(Layer::Energy, "integrate_many");

    let mut governor = FleetGovernor::new(
        &FleetConfig::homogeneous(num_gpus),
        &ResiliencePolicy::default(),
    );
    let clock = VirtualClock::new();
    for p in placements {
        let open = tr.begin(Layer::Fleet, "place");
        std::hint::black_box(governor.place(p.ctx, &clock));
        tr.end(open);
    }
    m.placements = placements.len() as u64;
    m.place_s = tr.total_s(Layer::Fleet, "place");
    m
}
