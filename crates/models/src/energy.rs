//! Energy prediction: `E = P̄ × T` (Section VII).
//!
//! The decision engine compares whole-system joules across alternatives
//! (consolidate on GPU / run serially on GPU / run on CPU), so the
//! energy model composes the performance and power models with the
//! system idle floor.

use ewc_energy::PowerState;
use ewc_gpu::GpuConfig;

use crate::perf::{PerfModel, PerfPrediction};
use crate::placement::analyze;
use crate::plan::ConsolidationPlan;
use crate::power::PowerModel;

/// A complete prediction for one consolidation plan.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted execution time.
    pub time_s: f64,
    /// Predicted average GPU dynamic power.
    pub dyn_power_w: f64,
    /// Predicted thermal (leakage) power at steady state.
    pub thermal_w: f64,
    /// Predicted GPU-attributed energy (dynamic + thermal).
    pub gpu_energy_j: f64,
    /// Predicted whole-system energy (idle floor included).
    pub system_energy_j: f64,
    /// The DVFS state this prediction was evaluated in (`None` = the
    /// flat single-state path, which is the P0 anchor).
    pub state: Option<PowerState>,
    /// The underlying performance prediction.
    pub perf: PerfPrediction,
}

/// A prediction bracketed by descriptor uncertainty.
///
/// PTX-derived instruction counts are estimates (the paper extracts them
/// by static analysis, which misses data-dependent control flow), so the
/// backend can ask for a bracket: every member's dynamic counts scaled
/// down/up by a relative `eps`. If even the optimistic consolidated
/// bound does not beat the pessimistic serial bound, the decision is
/// robust to descriptor error.
#[derive(Debug, Clone)]
pub struct PredictionRange {
    /// All dynamic counts scaled by `1 − eps`.
    pub low: Prediction,
    /// The unperturbed prediction.
    pub nominal: Prediction,
    /// All dynamic counts scaled by `1 + eps`.
    pub high: Prediction,
}

/// Combined time/power/energy model.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    perf: PerfModel,
    power: PowerModel,
    idle_w: f64,
}

impl EnergyModel {
    /// Compose the models with the system idle power.
    pub fn new(cfg: GpuConfig, power: PowerModel, idle_w: f64) -> Self {
        EnergyModel {
            perf: PerfModel::new(cfg),
            power,
            idle_w,
        }
    }

    /// The system idle power used for composition.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// The inner performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The inner power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// Predict time, power and energy for a consolidated launch of `plan`.
    pub fn predict(&self, plan: &ConsolidationPlan) -> Prediction {
        self.predict_at(plan, None)
    }

    /// Predict a consolidated launch with the device held at DVFS state
    /// `state`: the performance model runs on a clock-scaled
    /// configuration (compute time ∝ `1/f`, DRAM bandwidth unchanged),
    /// the rate-derived dynamic power — which already carries the `f`
    /// factor through the slower rates — is then scaled by `V²`, giving
    /// the classic `f·V²` dynamic law relative to P0. At the P0 anchor
    /// (`f = V = 1`) this is bit-identical to [`EnergyModel::predict`].
    pub fn predict_in_state(&self, plan: &ConsolidationPlan, state: &PowerState) -> Prediction {
        self.predict_at(plan, Some(state))
    }

    /// Predict with a ±`eps` relative uncertainty on every member's
    /// dynamic instruction counts.
    pub fn predict_with_uncertainty(&self, plan: &ConsolidationPlan, eps: f64) -> PredictionRange {
        assert!((0.0..1.0).contains(&eps), "eps must be in [0, 1)");
        let scaled = |factor: f64| {
            let mut p = ConsolidationPlan::new();
            for m in &plan.members {
                p.push(crate::plan::KernelSpec::new(
                    m.desc.scaled(factor),
                    m.blocks,
                ));
            }
            p
        };
        PredictionRange {
            low: self.predict(&scaled(1.0 - eps)),
            nominal: self.predict(plan),
            high: self.predict(&scaled(1.0 + eps)),
        }
    }

    /// Both GPU alternatives for `plan` at operating point `state`
    /// (`None` = the flat path): the consolidated launch, and the serial
    /// one where each member runs alone — time sums, and each launch's
    /// power reflects its own low utilisation. Each distinct kernel is
    /// evaluated once; member times and energies are then added in plan
    /// order, so the sums match a per-member evaluation bit for bit.
    pub fn predict_alternatives(
        &self,
        plan: &ConsolidationPlan,
        state: Option<&PowerState>,
    ) -> GpuAlternatives {
        let (mut singles, index) = plan.map_distinct_alone(|one| self.predict_at(one, state));
        let evals = 1 + singles.len() as u64;
        let (mut time, mut gpu_energy) = (0.0, 0.0);
        for &i in &index {
            time += singles[i].time_s;
            gpu_energy += singles[i].gpu_energy_j;
        }
        let perf = match index.last() {
            Some(&i) => singles.swap_remove(i).perf,
            None => self.perf.predict(&ConsolidationPlan::new()),
        };
        let serial = Prediction {
            time_s: time,
            dyn_power_w: if time > 0.0 { gpu_energy / time } else { 0.0 },
            thermal_w: 0.0,
            gpu_energy_j: gpu_energy,
            system_energy_j: gpu_energy + self.idle_w * time,
            state: state.copied(),
            perf,
        };
        GpuAlternatives {
            consolidated: self.predict_at(plan, state),
            serial,
            evals,
        }
    }

    /// One model evaluation: a consolidated launch of `plan` at `state`
    /// (`None` = the flat path, whose models the P0 anchor shares).
    fn predict_at(&self, plan: &ConsolidationPlan, state: Option<&PowerState>) -> Prediction {
        let scaled = state.filter(|s| !s.is_anchor()).map(|s| {
            let mut cfg = self.perf.config().clone();
            cfg.clock_hz *= s.freq_scale;
            (
                PerfModel::new(cfg.clone()),
                self.power.with_config(cfg),
                s.volt_sq(),
            )
        });
        let (perf_model, power_model) = match &scaled {
            Some((perf, power, _)) => (perf, power),
            None => (&self.perf, &self.power),
        };
        let placement = analyze(plan, perf_model.config());
        let perf = perf_model.predict_placed(plan, &placement);
        let rates = power_model.predicted_rates(plan, &placement, perf.time_s, &perf.per_sm_finish);
        let mut dyn_power_w = power_model.predict_dyn_power_w(&rates);
        if let Some((_, _, volt_sq)) = &scaled {
            dyn_power_w *= volt_sq;
        }
        let thermal_w = power_model.predict_thermal_w(dyn_power_w);
        let gpu_energy_j = (dyn_power_w + thermal_w) * perf.time_s;
        let system_energy_j = gpu_energy_j + self.idle_w * perf.time_s;
        Prediction {
            time_s: perf.time_s,
            dyn_power_w,
            thermal_w,
            gpu_energy_j,
            system_energy_j,
            state: state.copied(),
            perf,
        }
    }
}

/// Both GPU alternatives for one plan at one operating point.
#[derive(Debug, Clone)]
pub struct GpuAlternatives {
    /// The members merged into one launch.
    pub consolidated: Prediction,
    /// The members launched one after another.
    pub serial: Prediction,
    /// Model evaluations run: one for the merged launch plus one per
    /// distinct member.
    pub evals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KernelSpec;
    use ewc_energy::{
        GpuPowerGroundTruth, PowerCoefficients, PowerStateModel, ThermalModel, TrainingBenchmark,
    };
    use ewc_gpu::KernelDesc;

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c1060()
    }

    fn energy_model() -> EnergyModel {
        let coeffs = PowerCoefficients::train(
            &cfg(),
            &GpuPowerGroundTruth::tesla_c1060(),
            &TrainingBenchmark::rodinia_suite(),
            42,
        )
        .unwrap();
        EnergyModel::new(
            cfg(),
            PowerModel::new(coeffs, ThermalModel::gt200(), cfg()),
            200.0,
        )
    }

    fn compute(name: &str, secs: f64) -> KernelDesc {
        let c = cfg();
        KernelDesc::builder(name)
            .threads_per_block(256)
            .comp_insts(secs * c.clock_hz / (8.0 * c.warp_issue_cycles()))
            .build()
    }

    #[test]
    fn consolidation_saves_energy_for_underutilising_kernels() {
        // Nine 3-block encryption instances: consolidated time ≈ single
        // instance time; serial time = 9×. Energy must follow.
        let m = energy_model();
        let plan = ConsolidationPlan::homogeneous(compute("enc", 8.4), 3, 9);
        let cons = m.predict(&plan);
        let serial = m.predict_alternatives(&plan, None).serial;
        assert!(cons.time_s < serial.time_s / 5.0);
        assert!(cons.system_energy_j < serial.system_energy_j / 3.0);
        // Power while consolidated is higher (more SMs busy)…
        assert!(cons.dyn_power_w > serial.gpu_energy_j / serial.time_s);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = energy_model();
        let plan = ConsolidationPlan::new().with(KernelSpec::new(compute("k", 5.0), 20));
        let p = m.predict(&plan);
        let expect = (p.dyn_power_w + p.thermal_w + 200.0) * p.time_s;
        assert!((p.system_energy_j - expect).abs() < 1e-6);
        assert!(p.gpu_energy_j < p.system_energy_j);
    }

    #[test]
    fn bad_consolidation_predicted_worse_than_serial() {
        // The scenario-1 shape: both compute-bound, the long kernel
        // occupancy-1 — consolidation serialises on the critical SMs and
        // adds contention, so predicted energy must NOT beat serial.
        let mut enc = compute("enc", 19.5);
        enc.regs_per_thread = 40;
        let mc = {
            let c = cfg();
            KernelDesc::builder("mc")
                .threads_per_block(128)
                .regs_per_thread(68)
                .comp_insts(31.2 * c.clock_hz / (4.0 * c.warp_issue_cycles()))
                .build()
        };
        let m = energy_model();
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(enc, 15))
            .with(KernelSpec::new(mc, 45));
        let cons = m.predict(&plan);
        let serial = m.predict_alternatives(&plan, None).serial;
        assert!(
            cons.time_s > 0.95 * serial.time_s,
            "scenario 1 consolidation should not beat serial: {} vs {}",
            cons.time_s,
            serial.time_s
        );
    }

    #[test]
    fn uncertainty_brackets_the_nominal_prediction() {
        let m = energy_model();
        let plan = ConsolidationPlan::homogeneous(compute("enc", 8.4), 3, 6);
        let r = m.predict_with_uncertainty(&plan, 0.10);
        assert!(r.low.time_s <= r.nominal.time_s);
        assert!(r.nominal.time_s <= r.high.time_s);
        assert!(r.low.system_energy_j < r.high.system_energy_j);
        // A 10% count error is ~10% time error for compute-bound kernels.
        assert!((r.high.time_s / r.nominal.time_s - 1.1).abs() < 0.02);
        // Wider eps, wider bracket.
        let wide = m.predict_with_uncertainty(&plan, 0.25);
        assert!(wide.high.time_s > r.high.time_s);
        assert!(wide.low.time_s < r.low.time_s);
    }

    #[test]
    fn adding_a_member_never_reduces_predicted_time() {
        let m = energy_model();
        let mut plan = ConsolidationPlan::new();
        let mut last = 0.0;
        for i in 0..12 {
            plan.push(KernelSpec::new(compute("k", 2.0 + f64::from(i % 3)), 5));
            let t = m.predict(&plan).time_s;
            assert!(t >= last - 1e-9, "member {i}: {t} < {last}");
            last = t;
        }
    }

    fn bits(p: &Prediction) -> [u64; 5] {
        [
            p.time_s,
            p.dyn_power_w,
            p.thermal_w,
            p.gpu_energy_j,
            p.system_energy_j,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn serial_on_identical_members_matches_the_per_member_sum() {
        let m = energy_model();
        let k = KernelSpec::new(compute("enc", 8.4), 3);
        let one = ConsolidationPlan::new().with(k.clone());
        let p2 = PowerStateModel::tesla_dvfs().table.states[2];
        assert_eq!(p2.name, "p2");
        for n in 1..=9 {
            let plan = ConsolidationPlan::homogeneous(k.desc.clone(), k.blocks, n);
            for state in [None, Some(&p2)] {
                let single = match state {
                    Some(s) => m.predict_in_state(&one, s),
                    None => m.predict(&one),
                };
                let (mut time, mut gpu_energy) = (0.0, 0.0);
                for _ in 0..n {
                    time += single.time_s;
                    gpu_energy += single.gpu_energy_j;
                }
                let alt = m.predict_alternatives(&plan, state);
                assert_eq!(alt.evals, 2, "n={n}: the merged launch and one member");
                let serial = &alt.serial;
                assert_eq!(serial.time_s.to_bits(), time.to_bits(), "n={n}");
                assert_eq!(serial.gpu_energy_j.to_bits(), gpu_energy.to_bits());
                let system = gpu_energy + m.idle_w() * time;
                assert_eq!(serial.system_energy_j.to_bits(), system.to_bits());
                assert_eq!(serial.dyn_power_w.to_bits(), (gpu_energy / time).to_bits());
                assert_eq!(serial.perf.per_sm_finish, single.perf.per_sm_finish);
            }
            let flat = m.predict_alternatives(&plan, None).serial;
            let perf_time = m.perf().predict_serial(&plan);
            assert_eq!(perf_time.to_bits(), flat.time_s.to_bits(), "n={n}");
        }
    }

    #[test]
    fn p0_anchor_is_bit_identical_to_the_flat_path() {
        let m = energy_model();
        let p0 = PowerStateModel::tesla_dvfs().table.states[4];
        assert!(p0.is_anchor());
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(compute("a", 6.0), 4))
            .with(KernelSpec::new(compute("b", 3.0), 7))
            .with(KernelSpec::new(compute("a", 6.0), 4));
        let flat = m.predict_alternatives(&plan, None);
        let at_p0 = m.predict_alternatives(&plan, Some(&p0));
        assert_eq!(flat.evals, 3);
        assert_eq!(at_p0.evals, 3);
        for (f, s) in [
            (&flat.consolidated, &at_p0.consolidated),
            (&flat.serial, &at_p0.serial),
        ] {
            assert_eq!(bits(f), bits(s));
            assert_eq!(f.perf.per_sm_finish, s.perf.per_sm_finish);
            assert!(f.state.is_none());
            assert_eq!(s.state.map(|s| s.name), Some("p0"));
        }
        assert_eq!(bits(&m.predict(&plan)), bits(&flat.consolidated));
        assert_eq!(
            bits(&m.predict_in_state(&plan, &p0)),
            bits(&flat.consolidated)
        );
    }

    #[test]
    fn empty_plan_predicts_zero() {
        let m = energy_model();
        let p = m.predict(&ConsolidationPlan::new());
        assert_eq!(p.time_s, 0.0);
        assert_eq!(p.system_energy_j, 0.0);
    }
}
