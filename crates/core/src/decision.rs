//! The energy-aware decision engine (Section VII, Figure 6).
//!
//! For a candidate group the backend predicts three alternatives and
//! picks the lowest whole-system energy:
//!
//! * **Consolidate** — one merged kernel, time/power from the Section
//!   V/VI models;
//! * **SerialGpu** — the kernels one after another on the GPU (how GPUs
//!   are conventionally shared);
//! * **Cpu** — the instances on the multicore CPU under the OS scheduler
//!   (the paper assumes CPU performance and energy profiles are known;
//!   ours come from the per-workload [`ewc_cpu::CpuTask`] profiles).

use ewc_cpu::{CpuEngine, CpuPowerModel, CpuTask};
use ewc_models::{
    choose_state, ConsolidationPlan, EnergyModel, PolicyKnob, Prediction, StateChoice,
};

use crate::config::PowerStatesConfig;

/// The chosen execution alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Merge into one kernel on the GPU.
    Consolidate,
    /// Run each kernel individually on the GPU.
    SerialGpu,
    /// Run the instances on the CPU.
    Cpu,
}

/// The power-state verdicts for the GPU alternatives, present only when
/// a [`PowerStatesConfig`] is wired into the engine.
#[derive(Debug, Clone)]
pub struct StateDecision {
    /// The knob that produced the verdicts.
    pub knob: PolicyKnob,
    /// Chosen operating point for the consolidated alternative.
    pub consolidated: StateChoice,
    /// Chosen operating point for the serial alternative.
    pub serial: StateChoice,
}

impl StateDecision {
    /// The state choice for the chosen GPU alternative (`None` for CPU).
    pub fn chosen(&self, choice: Choice) -> Option<&StateChoice> {
        match choice {
            Choice::Consolidate => Some(&self.consolidated),
            Choice::SerialGpu => Some(&self.serial),
            Choice::Cpu => None,
        }
    }
}

/// Predictions for all alternatives plus the verdict.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// The verdict.
    pub choice: Choice,
    /// Consolidated-GPU prediction.
    pub consolidated: Prediction,
    /// Serial-GPU prediction.
    pub serial: Prediction,
    /// CPU makespan prediction, seconds.
    pub cpu_time_s: f64,
    /// CPU whole-system energy prediction, joules.
    pub cpu_energy_j: f64,
    /// Power-state verdicts for the GPU alternatives (`None` when the
    /// engine runs without a power-state stack — the flat behaviour).
    pub state: Option<StateDecision>,
}

impl Assessment {
    /// Predicted time of the chosen alternative (in its chosen power
    /// state, when a state stack is active).
    pub fn chosen_time_s(&self) -> f64 {
        if let Some(c) = self.state.as_ref().and_then(|s| s.chosen(self.choice)) {
            return c.time_s;
        }
        match self.choice {
            Choice::Consolidate => self.consolidated.time_s,
            Choice::SerialGpu => self.serial.time_s,
            Choice::Cpu => self.cpu_time_s,
        }
    }

    /// Predicted whole-system energy of the chosen alternative (over the
    /// policy horizon, when a state stack is active).
    pub fn chosen_energy_j(&self) -> f64 {
        if let Some(c) = self.state.as_ref().and_then(|s| s.chosen(self.choice)) {
            return c.horizon_energy_j;
        }
        match self.choice {
            Choice::Consolidate => self.consolidated.system_energy_j,
            Choice::SerialGpu => self.serial.system_energy_j,
            Choice::Cpu => self.cpu_energy_j,
        }
    }
}

/// The benefit consolidation must show over the alternatives, as a
/// fraction of its predicted energy: merging kernels has real
/// coordination and contention costs the models cannot see, so a
/// predicted tie is not worth taking (the scenario-1 lesson).
const CONSOLIDATION_MARGIN: f64 = 0.02;

/// The decision engine.
pub struct DecisionEngine {
    energy: EnergyModel,
    cpu: CpuEngine,
    cpu_power: CpuPowerModel,
    power_states: Option<PowerStatesConfig>,
}

impl DecisionEngine {
    /// Compose from the GPU energy model and CPU simulator + power model.
    pub fn new(energy: EnergyModel, cpu: CpuEngine, cpu_power: CpuPowerModel) -> Self {
        DecisionEngine {
            energy,
            cpu,
            cpu_power,
            power_states: None,
        }
    }

    /// Wire in a power-state stack: GPU alternatives are then evaluated
    /// across the ladder's operating points and compared at their
    /// knob-chosen states' horizon energies. Without this the engine is
    /// bit-identical to the flat (P0-only) behaviour.
    pub fn with_power_policy(mut self, cfg: PowerStatesConfig) -> Self {
        self.power_states = Some(cfg);
        self
    }

    /// The wired power-state stack, if any.
    pub fn power_policy(&self) -> Option<&PowerStatesConfig> {
        self.power_states.as_ref()
    }

    /// The GPU-side energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Assess a candidate group: `plan` describes the GPU side (template
    /// layout order), `cpu_tasks` the same instances as CPU jobs.
    pub fn assess(&self, plan: &ConsolidationPlan, cpu_tasks: &[CpuTask]) -> Assessment {
        // The three alternatives are independent pure predictions of a
        // few microseconds each: run them serially, in a fixed order.
        let consolidated = self.energy.predict(plan);
        let serial = self.energy.predict_serial(plan);
        let cpu_out = self.cpu.run(cpu_tasks);
        let cpu_energy = self.cpu_power.energy_j(&cpu_out);

        // Power-state pass, gated on the config so the flat path stays
        // bit-identical: evaluate both GPU alternatives across the
        // ladder's operating points and let the knob pick; the verdict
        // below then compares the knob-chosen horizon energies.
        let state = self.power_states.as_ref().map(|ps| {
            let evals_c: Vec<(usize, Prediction)> = ps
                .table
                .operating_points()
                .map(|(l, s)| (l, self.energy.predict_in_state(plan, s)))
                .collect();
            let evals_s: Vec<(usize, Prediction)> = ps
                .table
                .operating_points()
                .map(|(l, s)| (l, self.energy.predict_serial_in_state(plan, s)))
                .collect();
            let idle_w = self.energy.idle_w();
            StateDecision {
                knob: ps.knob,
                consolidated: choose_state(&ps.table, &ps.knob, &evals_c, idle_w),
                serial: choose_state(&ps.table, &ps.knob, &evals_s, idle_w),
            }
        });
        let (cons_e, serial_e) = match &state {
            Some(sd) => (sd.consolidated.horizon_energy_j, sd.serial.horizon_energy_j),
            None => (consolidated.system_energy_j, serial.system_energy_j),
        };

        let candidates = [
            // Consolidation pays a benefit margin: it must clearly win.
            (Choice::Consolidate, cons_e * (1.0 + CONSOLIDATION_MARGIN)),
            (Choice::SerialGpu, serial_e),
            (Choice::Cpu, cpu_energy),
        ];
        // total_cmp: a NaN prediction (degenerate model input) must not
        // panic the daemon — it sorts above every real energy and simply
        // never wins.
        let choice = candidates
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .unwrap_or(Choice::SerialGpu);

        Assessment {
            choice,
            consolidated,
            serial,
            cpu_time_s: cpu_out.makespan_s,
            cpu_energy_j: cpu_energy,
            state,
        }
    }

    /// Simulate a CPU run (used when the verdict is [`Choice::Cpu`]).
    pub fn run_on_cpu(&self, tasks: &[CpuTask]) -> (f64, f64) {
        let out = self.cpu.run(tasks);
        (out.makespan_s, self.cpu_power.energy_j(&out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_cpu::CpuConfig;
    use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};
    use ewc_gpu::{GpuConfig, KernelDesc};
    use ewc_models::{KernelSpec, PowerModel};

    fn engine() -> DecisionEngine {
        let cfg = GpuConfig::tesla_c1060();
        let coeffs = PowerCoefficients::train(
            &cfg,
            &GpuPowerGroundTruth::tesla_c1060(),
            &TrainingBenchmark::rodinia_suite(),
            42,
        )
        .unwrap();
        let energy = EnergyModel::new(
            cfg.clone(),
            PowerModel::new(coeffs, ThermalModel::gt200(), cfg),
            200.0,
        );
        DecisionEngine::new(
            energy,
            CpuEngine::new(CpuConfig::xeon_e5520_x2()),
            CpuPowerModel::xeon_e5520_x2(),
        )
    }

    fn compute(name: &str, secs: f64, blocks: u32) -> KernelSpec {
        let c = GpuConfig::tesla_c1060();
        KernelSpec::new(
            KernelDesc::builder(name)
                .threads_per_block(256)
                .comp_insts(secs * c.clock_hz / (8.0 * c.warp_issue_cycles()))
                .build(),
            blocks,
        )
    }

    #[test]
    fn many_small_instances_choose_consolidation() {
        let e = engine();
        let mut plan = ConsolidationPlan::new();
        let mut tasks = Vec::new();
        for _ in 0..9 {
            plan.push(compute("enc", 8.4, 3));
            tasks.push(CpuTask::new("enc", 14.4, 2, 8 << 20));
        }
        let a = e.assess(&plan, &tasks);
        assert_eq!(a.choice, Choice::Consolidate, "assessment: {a:?}");
        assert!(a.consolidated.system_energy_j < a.cpu_energy_j);
        assert!(a.consolidated.system_energy_j < a.serial.system_energy_j);
    }

    #[test]
    fn consolidation_must_clear_the_margin() {
        let e = engine();
        for n in 1..=6 {
            let mut plan = ConsolidationPlan::new();
            let mut tasks = Vec::new();
            for _ in 0..n {
                plan.push(compute("enc", 8.4, 3));
                tasks.push(CpuTask::new("enc", 14.4, 2, 8 << 20));
            }
            let a = e.assess(&plan, &tasks);
            let best_other = a.serial.system_energy_j.min(a.cpu_energy_j);
            let clears =
                a.consolidated.system_energy_j * (1.0 + CONSOLIDATION_MARGIN) <= best_other;
            assert_eq!(a.choice == Choice::Consolidate, clears, "n={n}: {a:?}");
        }
    }

    #[test]
    fn single_cpu_friendly_instance_chooses_cpu() {
        // One encryption instance: CPU is faster *and* the GPU system
        // idles at a higher floor — CPU must win.
        let e = engine();
        let plan = ConsolidationPlan::new().with(compute("enc", 8.4, 3));
        let tasks = [CpuTask::new("enc", 14.4, 2, 8 << 20)];
        let a = e.assess(&plan, &tasks);
        assert_eq!(a.choice, Choice::Cpu, "assessment: {a:?}");
    }

    #[test]
    fn gpu_friendly_instance_prefers_gpu() {
        // A MonteCarlo-like instance: 43 s GPU vs 306 s CPU.
        let e = engine();
        let plan = ConsolidationPlan::new().with(compute("mc", 43.2, 1));
        let tasks = [CpuTask::new("mc", 306.0, 1, 12 << 20)];
        let a = e.assess(&plan, &tasks);
        assert_ne!(a.choice, Choice::Cpu, "assessment: {a:?}");
    }

    #[test]
    fn assessment_is_bitwise_repeatable() {
        let plan = ConsolidationPlan::new()
            .with(compute("a", 6.0, 4))
            .with(compute("b", 3.0, 2));
        let tasks = [
            CpuTask::new("a", 12.0, 2, 4 << 20),
            CpuTask::new("b", 7.0, 1, 2 << 20),
        ];
        let a = engine().assess(&plan, &tasks);
        let b = engine().assess(&plan, &tasks);
        assert_eq!(a.choice, b.choice);
        assert_eq!(
            a.consolidated.system_energy_j.to_bits(),
            b.consolidated.system_energy_j.to_bits()
        );
        assert_eq!(
            a.serial.system_energy_j.to_bits(),
            b.serial.system_energy_j.to_bits()
        );
        assert_eq!(a.cpu_time_s.to_bits(), b.cpu_time_s.to_bits());
        assert_eq!(a.cpu_energy_j.to_bits(), b.cpu_energy_j.to_bits());
    }

    #[test]
    fn power_policy_none_leaves_the_assessment_flat() {
        let plan = ConsolidationPlan::new().with(compute("a", 6.0, 4));
        let tasks = [CpuTask::new("a", 12.0, 2, 4 << 20)];
        let a = engine().assess(&plan, &tasks);
        assert!(a.state.is_none());
        assert_eq!(a.chosen_energy_j().to_bits(), {
            match a.choice {
                Choice::Consolidate => a.consolidated.system_energy_j.to_bits(),
                Choice::SerialGpu => a.serial.system_energy_j.to_bits(),
                Choice::Cpu => a.cpu_energy_j.to_bits(),
            }
        });
    }

    #[test]
    fn race_and_pace_pick_different_states_for_heavy_work() {
        // A full-tilt compute-heavy group: race pins P0, pace drops to a
        // lower operating point under a relaxed deadline.
        let mut plan = ConsolidationPlan::new();
        let mut tasks = Vec::new();
        for _ in 0..9 {
            plan.push(compute("enc", 8.4, 3));
            tasks.push(CpuTask::new("enc", 14.4, 2, 8 << 20));
        }
        let race = engine()
            .with_power_policy(crate::config::PowerStatesConfig::race())
            .assess(&plan, &tasks);
        let rd = race.state.as_ref().expect("policy wired");
        assert_eq!(rd.consolidated.state, "p0");

        let deadline = race.consolidated.time_s * 3.0;
        let pace = engine()
            .with_power_policy(crate::config::PowerStatesConfig::pace(deadline))
            .assess(&plan, &tasks);
        let pd = pace.state.as_ref().expect("policy wired");
        assert_ne!(pd.consolidated.state, "p0", "pace throttles under slack");
        assert!(pd.consolidated.time_s > rd.consolidated.time_s);
    }

    #[test]
    fn chosen_accessors_track_choice() {
        let e = engine();
        let plan = ConsolidationPlan::new()
            .with(compute("a", 5.0, 3))
            .with(compute("b", 5.0, 3));
        let tasks = [
            CpuTask::new("a", 10.0, 2, 1 << 20),
            CpuTask::new("b", 10.0, 2, 1 << 20),
        ];
        let a = e.assess(&plan, &tasks);
        let t = a.chosen_time_s();
        let en = a.chosen_energy_j();
        match a.choice {
            Choice::Consolidate => {
                assert_eq!(t, a.consolidated.time_s);
                assert_eq!(en, a.consolidated.system_energy_j);
            }
            Choice::SerialGpu => assert_eq!(t, a.serial.time_s),
            Choice::Cpu => assert_eq!(t, a.cpu_time_s),
        }
        assert!(en > 0.0);
    }
}
