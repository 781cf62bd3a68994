//! Power-policy comparison (extension): race-to-idle vs pace vs cap on
//! the DVFS ladder, end to end through the runtime.
//!
//! The same nine-instance encryption batch runs under each policy knob.
//! Race pins the top operating point and parks the device afterwards;
//! pace drops to the slowest point that still meets a relaxed (3×)
//! deadline; cap picks the cheapest point whose average draw fits a
//! watts budget set just below the P0 average. The flat runtime (no
//! power-state stack) is the byte-identical baseline every row compares
//! against, so the table doubles as a regression check on the
//! default-off equivalence rule.

use std::sync::Arc;

use ewc_core::{PowerStatesConfig, Runtime, RuntimeConfig, Template};
use ewc_energy::{
    GpuSystemPower, PowerCoefficients, PowerStateModel, ThermalModel, TrainingBenchmark,
};
use ewc_exec::VirtualClock;
use ewc_gpu::GpuConfig;
use ewc_models::{choose_state, ConsolidationPlan, EnergyModel, PolicyKnob, PowerModel};
use ewc_telemetry::{TelemetrySink, Verdict};
use ewc_workloads::{AesWorkload, Workload};

use crate::report::{joules, ratio, secs, Table};

/// Instances per batch: one consolidation group at threshold 9, the
/// same compute-heavy encryption group the decision tests study.
const INSTANCES: u64 = 9;

/// One policy's end-to-end numbers.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy label (with its deadline / cap parameter when set).
    pub policy: String,
    /// Operating points actually applied to the device, in order.
    pub states: String,
    /// Simulated wall time of the whole batch.
    pub elapsed_s: f64,
    /// Measured (integrated) whole-system energy.
    pub energy_j: f64,
    /// Device power-state transitions the backend applied.
    pub transitions: u64,
    /// Measured energy relative to the flat baseline.
    pub vs_flat: f64,
}

/// Model-side probe: the per-state predictions for the nine-instance
/// group, used to derive the pace deadline (3× the top-state time) and
/// the power cap (just under the P0 average horizon draw, so the cap
/// knob is forced off the top state).
fn probe() -> (f64, f64) {
    let cfg = GpuConfig::tesla_c1060();
    let sys = GpuSystemPower::tesla_system();
    let coeffs =
        PowerCoefficients::train(&cfg, &sys.truth, &TrainingBenchmark::rodinia_suite(), 42)
            .expect("power-model training converges");
    let model = EnergyModel::new(
        cfg.clone(),
        PowerModel::new(coeffs, ThermalModel::gt200(), cfg.clone()),
        sys.idle_w,
    );
    let aes = AesWorkload::fig7(&cfg);
    let plan = ConsolidationPlan::homogeneous(aes.desc(), aes.blocks(), INSTANCES as u32);
    let stack = PowerStateModel::tesla_dvfs();
    let evals: Vec<_> = stack
        .table
        .operating_points()
        .map(|(level, state)| (level, model.predict_in_state(&plan, state)))
        .collect();
    let race = choose_state(
        &stack.table,
        &PolicyKnob::RaceToIdle,
        &evals,
        model.idle_w(),
    );
    let deadline_s = race.time_s * 3.0;
    let cap_w = race.horizon_energy_j / race.time_s - 10.0;
    (deadline_s, cap_w)
}

/// Run the nine-instance batch under one policy (or flat when `None`)
/// and collect what actually happened on the device.
fn run_one(policy: &str, ps: Option<PowerStatesConfig>) -> Row {
    let cfg = GpuConfig::tesla_c1060();
    let aes = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: INSTANCES as u32,
        noise_seed: Some(42),
        power_states: ps,
        ..RuntimeConfig::default()
    })
    // A virtual-clock sink steps the backend core in-process: batch
    // boundaries then follow call order alone, so every row replays
    // bit-identically.
    .telemetry(TelemetrySink::enabled_virtual(VirtualClock::new()))
    .workload("encryption", Arc::clone(&aes) as Arc<dyn Workload>)
    .template(Template::homogeneous("encryption"))
    .build();

    let mut sessions = Vec::new();
    for i in 0..INSTANCES {
        let mut fe = rt.connect();
        let (args, bufs) = aes.build_args(&mut fe, i).expect("build args");
        fe.configure_call(aes.blocks(), aes.desc().threads_per_block)
            .expect("configure");
        for a in &args {
            fe.setup_argument(*a).expect("argument");
        }
        fe.launch("encryption").expect("launch");
        sessions.push((fe, bufs, i));
    }
    for (fe, bufs, seed) in &sessions {
        fe.sync().expect("sync");
        let out = fe
            .memcpy_d2h(bufs.output, 0, bufs.output_len)
            .expect("readback");
        assert_eq!(
            out,
            aes.expected_output(*seed),
            "instance {seed} corrupted under {policy}"
        );
    }
    drop(sessions);
    let report = rt.shutdown();

    // Which operating points the device actually visited, from the
    // state-change audit trail (`"... -> <state> (level N)"` reasons).
    let mut seen: Vec<String> = Vec::new();
    if let Some(t) = &report.telemetry {
        for rec in &t.audit {
            if matches!(rec.verdict, Verdict::StateChanged) {
                if let Some(tail) = rec.reason.split("-> ").nth(1) {
                    let name = tail.split(' ').next().unwrap_or_default().to_string();
                    if seen.last() != Some(&name) {
                        seen.push(name);
                    }
                }
            }
        }
    }
    let states = if seen.is_empty() {
        "p0 (pinned)".to_string()
    } else {
        seen.join(">")
    };

    Row {
        policy: policy.to_string(),
        states,
        elapsed_s: report.elapsed_s,
        energy_j: report.energy.energy_j,
        transitions: report.stats.state_changes,
        vs_flat: 1.0,
    }
}

/// Run the batch flat and under each of the three knobs.
pub fn run() -> Vec<Row> {
    run_named("all", None).expect("'all' is a valid knob selection")
}

/// Run the flat baseline plus the selected knob (or all three) — the
/// `ewc policy` subcommand's entry point. `watts` overrides the cap
/// budget; pace always gets 3× the top-state predicted time.
pub fn run_named(which: &str, watts: Option<f64>) -> Result<Vec<Row>, String> {
    let (deadline_s, probe_cap_w) = probe();
    let cap_w = watts.unwrap_or(probe_cap_w);
    let race = || run_one("race", Some(PowerStatesConfig::race()));
    let pace = || {
        run_one(
            &format!("pace {deadline_s:.1}s"),
            Some(PowerStatesConfig::pace(deadline_s)),
        )
    };
    let cap = || {
        run_one(
            &format!("cap {cap_w:.0}W"),
            Some(PowerStatesConfig::cap(cap_w)),
        )
    };
    let mut rows = vec![run_one("flat", None)];
    match which {
        "all" => {
            rows.push(race());
            rows.push(pace());
            rows.push(cap());
        }
        "race" => rows.push(race()),
        "pace" => rows.push(pace()),
        "cap" => rows.push(cap()),
        other => {
            return Err(format!(
                "policy: unknown knob '{other}' (race | pace | cap | all)"
            ))
        }
    }
    let base = rows[0].energy_j;
    for r in &mut rows {
        r.vs_flat = r.energy_j / base;
    }
    Ok(rows)
}

/// Render the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "policy",
        "device states",
        "elapsed (s)",
        "energy (J)",
        "transitions",
        "vs flat",
    ]);
    for r in rows {
        t.row(vec![
            r.policy.clone(),
            r.states.clone(),
            secs(r.elapsed_s),
            joules(r.energy_j),
            r.transitions.to_string(),
            ratio(r.vs_flat),
        ]);
    }
    format!(
        "Power-policy comparison: 9 encryption instances, one consolidated group\n\
         (race parks after the run; pace throttles under deadline slack; cap fits\n\
         a watts budget; flat is the byte-identical default)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_pick_different_states_with_different_measured_energy() {
        let rows = run();
        let (flat, race, pace, cap) = (&rows[0], &rows[1], &rows[2], &rows[3]);

        // Flat: no stack, no transitions, pinned at P0.
        assert_eq!(flat.transitions, 0, "{flat:?}");
        assert_eq!(flat.states, "p0 (pinned)");

        // Race runs at the top point and parks afterwards.
        assert!(race.states.contains("p0"), "{race:?}");
        assert!(race.states.contains("sleep"), "race must park: {race:?}");

        // Pace throttles to a lower operating point under 3× slack, so
        // it runs measurably longer than race.
        assert!(
            pace.states.contains("p2") || pace.states.contains("p1"),
            "{pace:?}"
        );
        assert!(
            !pace.states.contains("sleep"),
            "pace does not park: {pace:?}"
        );
        assert!(
            pace.elapsed_s > 1.2 * race.elapsed_s,
            "{pace:?} vs {race:?}"
        );

        // The acceptance pair: different states, different measured
        // energy for the same workload.
        assert_ne!(race.states, pace.states);
        assert!(
            (race.energy_j - pace.energy_j).abs() > 1.0,
            "race {race:?} vs pace {pace:?}"
        );

        // The cap knob is forced off the top state.
        assert!(cap.transitions >= 1, "{cap:?}");
        assert_ne!(cap.states, "p0 (pinned)", "{cap:?}");
        assert!(!cap.states.contains("p0"), "{cap:?}");
    }

    #[test]
    fn flat_row_matches_the_policy_free_runtime() {
        // The flat row *is* the pre-DVFS runtime: same elapsed, same
        // energy, bit for bit.
        let a = run_one("flat", None);
        let b = run_one("flat", None);
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }
}
