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
    /// GPU model evaluations this assessment ran (each a placement plus
    /// the performance and power models for one plan in one state).
    pub model_evals: u64,
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
        // Each distinct kernel is evaluated once per operating point: the
        // flat pass below is also the P0 anchor's, so the power-state
        // pass re-tags it instead of predicting it again.
        let flat = self.energy.predict_alternatives(plan, None);
        let mut model_evals = flat.evals;
        let cpu_out = self.cpu.run(cpu_tasks);
        let cpu_energy = self.cpu_power.energy_j(&cpu_out);

        // Power-state pass, gated on the config so the flat path stays
        // bit-identical: evaluate both GPU alternatives across the
        // ladder's operating points and let the knob pick; the verdict
        // below then compares the knob-chosen horizon energies.
        let state = self.power_states.as_ref().map(|ps| {
            let mut evals_c = Vec::new();
            let mut evals_s = Vec::new();
            for (l, s) in ps.table.operating_points() {
                let (c, sr) = if s.is_anchor() {
                    let tag = |p: &Prediction| Prediction {
                        state: Some(*s),
                        ..p.clone()
                    };
                    (tag(&flat.consolidated), tag(&flat.serial))
                } else {
                    let alt = self.energy.predict_alternatives(plan, Some(s));
                    model_evals += alt.evals;
                    (alt.consolidated, alt.serial)
                };
                evals_c.push((l, c));
                evals_s.push((l, sr));
            }
            let idle_w = self.energy.idle_w();
            StateDecision {
                knob: ps.knob,
                consolidated: choose_state(&ps.table, &ps.knob, &evals_c, idle_w),
                serial: choose_state(&ps.table, &ps.knob, &evals_s, idle_w),
            }
        });
        let (cons_e, serial_e) = match &state {
            Some(sd) => (sd.consolidated.horizon_energy_j, sd.serial.horizon_energy_j),
            None => (
                flat.consolidated.system_energy_j,
                flat.serial.system_energy_j,
            ),
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
            consolidated: flat.consolidated,
            serial: flat.serial,
            cpu_time_s: cpu_out.makespan_s,
            cpu_energy_j: cpu_energy,
            state,
            model_evals,
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
    use ewc_energy::{
        GpuPowerGroundTruth, PowerCoefficients, PowerState, PowerStateTable, ThermalModel,
        TrainingBenchmark,
    };
    use ewc_gpu::{GpuConfig, KernelDesc, SimRng};
    use ewc_models::{analyze, KernelSpec, PowerModel};

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

    /// `assess` as it ran before each distinct kernel was evaluated once
    /// per operating point: every member alone, in every state, P0
    /// recomputed. Written against the public placement, performance and
    /// power models, so it shares no code with `EnergyModel`.
    mod reference {
        use super::*;

        fn predict(m: &EnergyModel, plan: &ConsolidationPlan) -> Prediction {
            let placement = analyze(plan, m.perf().config());
            let perf = m.perf().predict_placed(plan, &placement);
            let rates =
                m.power()
                    .predicted_rates(plan, &placement, perf.time_s, &perf.per_sm_finish);
            let dyn_power_w = m.power().predict_dyn_power_w(&rates);
            let thermal_w = m.power().predict_thermal_w(dyn_power_w);
            let gpu_energy_j = (dyn_power_w + thermal_w) * perf.time_s;
            let system_energy_j = gpu_energy_j + m.idle_w() * perf.time_s;
            Prediction {
                time_s: perf.time_s,
                dyn_power_w,
                thermal_w,
                gpu_energy_j,
                system_energy_j,
                state: None,
                perf,
            }
        }

        fn predict_in_state(
            m: &EnergyModel,
            plan: &ConsolidationPlan,
            state: &PowerState,
        ) -> Prediction {
            if state.freq_scale == 1.0 && state.volt_scale == 1.0 {
                return Prediction {
                    state: Some(*state),
                    ..predict(m, plan)
                };
            }
            let mut cfg = m.perf().config().clone();
            cfg.clock_hz *= state.freq_scale;
            let perf_model = ewc_models::PerfModel::new(cfg.clone());
            let power_model = m.power().with_config(cfg.clone());
            let placement = analyze(plan, &cfg);
            let perf = perf_model.predict_placed(plan, &placement);
            let rates =
                power_model.predicted_rates(plan, &placement, perf.time_s, &perf.per_sm_finish);
            let dyn_power_w = power_model.predict_dyn_power_w(&rates) * state.volt_sq();
            let thermal_w = power_model.predict_thermal_w(dyn_power_w);
            let gpu_energy_j = (dyn_power_w + thermal_w) * perf.time_s;
            let system_energy_j = gpu_energy_j + m.idle_w() * perf.time_s;
            Prediction {
                time_s: perf.time_s,
                dyn_power_w,
                thermal_w,
                gpu_energy_j,
                system_energy_j,
                state: Some(*state),
                perf,
            }
        }

        fn serial(
            m: &EnergyModel,
            plan: &ConsolidationPlan,
            state: Option<&PowerState>,
        ) -> Prediction {
            let mut time = 0.0;
            let mut gpu_energy = 0.0;
            let mut last_perf = None;
            for k in &plan.members {
                let single =
                    ConsolidationPlan::new().with(KernelSpec::new(k.desc.clone(), k.blocks));
                let p = match state {
                    Some(s) => predict_in_state(m, &single, s),
                    None => predict(m, &single),
                };
                time += p.time_s;
                gpu_energy += p.gpu_energy_j;
                last_perf = Some(p.perf);
            }
            Prediction {
                time_s: time,
                dyn_power_w: if time > 0.0 { gpu_energy / time } else { 0.0 },
                thermal_w: 0.0,
                gpu_energy_j: gpu_energy,
                system_energy_j: gpu_energy + m.idle_w() * time,
                state: state.copied(),
                perf: last_perf.unwrap_or_else(|| m.perf().predict(&ConsolidationPlan::new())),
            }
        }

        pub fn assess(
            e: &DecisionEngine,
            plan: &ConsolidationPlan,
            tasks: &[CpuTask],
        ) -> Assessment {
            let m = &e.energy;
            let n = plan.members.len() as u64;
            let consolidated = predict(m, plan);
            let serial_flat = serial(m, plan, None);
            let cpu_out = e.cpu.run(tasks);
            let cpu_energy = e.cpu_power.energy_j(&cpu_out);
            let mut model_evals = 1 + n;
            let state = e.power_states.as_ref().map(|ps| {
                let evals_c: Vec<(usize, Prediction)> = ps
                    .table
                    .operating_points()
                    .map(|(l, s)| (l, predict_in_state(m, plan, s)))
                    .collect();
                let evals_s: Vec<(usize, Prediction)> = ps
                    .table
                    .operating_points()
                    .map(|(l, s)| (l, serial(m, plan, Some(s))))
                    .collect();
                model_evals += evals_c.len() as u64 * (1 + n);
                StateDecision {
                    knob: ps.knob,
                    consolidated: choose_state(&ps.table, &ps.knob, &evals_c, m.idle_w()),
                    serial: choose_state(&ps.table, &ps.knob, &evals_s, m.idle_w()),
                }
            });
            let (cons_e, serial_e) = match &state {
                Some(sd) => (sd.consolidated.horizon_energy_j, sd.serial.horizon_energy_j),
                None => (consolidated.system_energy_j, serial_flat.system_energy_j),
            };
            let choice = [
                (Choice::Consolidate, cons_e * (1.0 + CONSOLIDATION_MARGIN)),
                (Choice::SerialGpu, serial_e),
                (Choice::Cpu, cpu_energy),
            ]
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .unwrap_or(Choice::SerialGpu);
            Assessment {
                choice,
                consolidated,
                serial: serial_flat,
                cpu_time_s: cpu_out.makespan_s,
                cpu_energy_j: cpu_energy,
                state,
                model_evals,
            }
        }
    }

    /// Every f64 of a prediction as bits, plus its discrete fields.
    fn prediction_bits(p: &Prediction) -> (Option<&'static str>, Vec<u64>, &[u32], usize, bool) {
        let f = &p.perf;
        let scalars = [
            p.time_s,
            p.dyn_power_w,
            p.thermal_w,
            p.gpu_energy_j,
            p.system_energy_j,
            f.time_s,
            f.bw_stretch,
        ];
        let bits = scalars
            .iter()
            .chain(&f.per_sm_finish)
            .chain(&f.member_finish)
            .map(|x| x.to_bits())
            .collect();
        (
            p.state.map(|s| s.name),
            bits,
            &f.critical_sms,
            f.sms_used,
            f.is_type1,
        )
    }

    /// A state choice as `(level, [chosen, candidates…])`, every f64 as
    /// bits.
    fn choice_bits(c: &StateChoice) -> (usize, Vec<(&'static str, u64, u64)>) {
        let chosen = (c.state, c.time_s, c.horizon_energy_j);
        let all = std::iter::once(chosen)
            .chain(c.candidates.iter().copied())
            .map(|(s, t, e)| (s, t.to_bits(), e.to_bits()))
            .collect();
        (c.level, all)
    }

    fn assert_bit_identical(got: &Assessment, want: &Assessment, what: &str) {
        assert_eq!(got.choice, want.choice, "{what}");
        assert_eq!(
            prediction_bits(&got.consolidated),
            prediction_bits(&want.consolidated),
            "{what}"
        );
        assert_eq!(
            prediction_bits(&got.serial),
            prediction_bits(&want.serial),
            "{what}"
        );
        assert_eq!(
            got.cpu_time_s.to_bits(),
            want.cpu_time_s.to_bits(),
            "{what}"
        );
        assert_eq!(
            got.cpu_energy_j.to_bits(),
            want.cpu_energy_j.to_bits(),
            "{what}"
        );
        match (&got.state, &want.state) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.knob, w.knob, "{what}");
                assert_eq!(
                    choice_bits(&g.consolidated),
                    choice_bits(&w.consolidated),
                    "{what}"
                );
                assert_eq!(choice_bits(&g.serial), choice_bits(&w.serial), "{what}");
            }
            _ => panic!("{what}: state pass present in only one assessment"),
        }
    }

    /// A random feasible kernel: block size, registers (within one SM's
    /// register file), compute and memory work all drawn from `rng`.
    fn random_spec(rng: &mut SimRng, name: &str, blocks: std::ops::Range<u32>) -> KernelSpec {
        let c = GpuConfig::tesla_c1060();
        let warps = rng.range_u32(2, 17);
        let tpb = 32 * warps;
        let regs = rng.range_u32(8, (16384 / tpb).min(80) + 1);
        let secs = rng.range_f64(0.2, 10.0);
        let desc = KernelDesc::builder(name)
            .threads_per_block(tpb)
            .regs_per_thread(regs)
            .comp_insts(secs * c.clock_hz / (f64::from(warps) * c.warp_issue_cycles()))
            .coalesced_mem(rng.range_f64(0.0, 2000.0))
            .uncoalesced_mem(rng.range_f64(0.0, 200.0))
            .build();
        KernelSpec::new(desc, rng.range_u32(blocks.start, blocks.end))
    }

    /// Plan shape `case % 6`: homogeneous, heterogeneous, repeats that
    /// are not adjacent, one descriptor at mixed block counts, an
    /// oversubscribed shape that redistributes, and a single member.
    fn sweep_plan(rng: &mut SimRng, case: usize) -> ConsolidationPlan {
        let mut plan = ConsolidationPlan::new();
        match case % 6 {
            0 => {
                let k = random_spec(rng, "homo", 1..10);
                for _ in 0..rng.range_u32(2, 12) {
                    plan.push(k.clone());
                }
            }
            1 => {
                for i in 0..rng.range_u32(2, 7) {
                    plan.push(random_spec(rng, &format!("het{i}"), 1..12));
                }
            }
            2 => {
                let pool: Vec<KernelSpec> = (0..3)
                    .map(|i| random_spec(rng, &format!("rep{i}"), 1..8))
                    .collect();
                for i in [0, 1, 0, 2, 1, 0, 2] {
                    plan.push(pool[i].clone());
                }
            }
            3 => {
                let k = random_spec(rng, "mixed", 1..2);
                for blocks in [3, 5, 3, 8, 5, 3] {
                    plan.push(KernelSpec::new(k.desc.clone(), blocks));
                }
            }
            4 => {
                // One block per SM (512 threads × 32 registers fill the
                // register file): 45 blocks overflow the 30-SM first wave.
                let big = KernelSpec::new(
                    KernelDesc {
                        threads_per_block: 512,
                        regs_per_thread: 32,
                        ..random_spec(rng, "big", 1..2).desc
                    },
                    45,
                );
                let small = random_spec(rng, "small", 4..5);
                for k in [&big, &small, &big] {
                    plan.push(k.clone());
                }
                assert!(analyze(&plan, &GpuConfig::tesla_c1060()).redistributed);
            }
            _ => plan.push(random_spec(rng, "one", 1..30)),
        }
        plan
    }

    #[test]
    fn assess_matches_the_per_member_reference_bit_for_bit() {
        let knobs = [
            PolicyKnob::RaceToIdle,
            PolicyKnob::Pace { deadline_s: 2.0 },
            PolicyKnob::Pace { deadline_s: 12.0 },
            PolicyKnob::CapAware { cap_w: 250.0 },
            PolicyKnob::CapAware { cap_w: 400.0 },
        ];
        let mut engines = vec![("flat".to_string(), engine())];
        for knob in knobs {
            engines.push((
                format!("tesla_dvfs {knob:?}"),
                engine().with_power_policy(PowerStatesConfig::tesla(knob)),
            ));
            engines.push((
                format!("one-state {knob:?}"),
                engine().with_power_policy(PowerStatesConfig {
                    table: PowerStateTable::single(40.0),
                    knob,
                }),
            ));
        }
        let mut rng = SimRng::seed_from_u64(0x5eed);
        for case in 0..36 {
            let plan = sweep_plan(&mut rng, case);
            let tasks: Vec<CpuTask> = plan
                .members
                .iter()
                .map(|m| CpuTask::new(&m.desc.name, rng.range_f64(1.0, 40.0), 2, 1 << 20))
                .collect();
            for (label, e) in &engines {
                let got = e.assess(&plan, &tasks);
                let want = reference::assess(e, &plan, &tasks);
                assert_bit_identical(&got, &want, &format!("case {case}, {label}"));
                assert!(got.model_evals <= want.model_evals, "case {case}, {label}");
            }
        }
    }

    #[test]
    fn race_on_seven_identical_members_runs_six_model_evaluations() {
        let mut plan = ConsolidationPlan::new();
        let mut tasks = Vec::new();
        for _ in 0..7 {
            plan.push(compute("enc", 8.4, 3));
            tasks.push(CpuTask::new("enc", 14.4, 2, 8 << 20));
        }
        // Two flat (merged launch, the one distinct member), two each at
        // p2 and p1; P0 reuses the flat pair.
        let race = engine().with_power_policy(PowerStatesConfig::race());
        assert_eq!(race.assess(&plan, &tasks).model_evals, 6);
        // Every member in every state, P0 recomputed: 1 + 7 + 3 × (1 + 7).
        assert_eq!(reference::assess(&race, &plan, &tasks).model_evals, 32);
        assert_eq!(engine().assess(&plan, &tasks).model_evals, 2);
    }
}
