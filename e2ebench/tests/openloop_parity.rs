//! The benchmark's open-loop harness must drive the runtime exactly as
//! the library harness `ewc_load::openloop::run` does, traced or not.

use ewc_e2ebench::bench::{load_config, Kind, Size};
use ewc_e2ebench::openloop;
use ewc_e2ebench::trace::Tracer;

fn assert_matches_library(kind: Kind) {
    let mut cfg = load_config(kind, Size::Tiny, 42).expect("an open-loop workload");
    // Enough arrivals per stream that the storm meets `Busy` answers.
    cfg.streams = 16;
    cfg.arrivals_per_stream = 32;
    let lib = ewc_load::openloop::run(&cfg);
    for tr in [Tracer::off(), Tracer::on()] {
        let traced = tr.enabled();
        let out = openloop::run(openloop::prepare(&cfg, tr), &cfg, false);
        let ours = out.report;
        assert_eq!(ours.generated, lib.generated);
        assert_eq!(ours.client, lib.client, "traced: {traced}");
        assert_eq!(ours.completed, lib.completed);
        assert_eq!(ours.failed, lib.failed);
        assert_eq!(ours.shed, lib.shed);
        assert_eq!(ours.drained, lib.drained);
        assert_eq!(ours.max_pending_depth, lib.max_pending_depth);
        assert_eq!(ours.max_degradation_level, lib.max_degradation_level);
        assert_eq!(ours.degradation_steps, lib.degradation_steps);
        assert_eq!(ours.elapsed_s.to_bits(), lib.elapsed_s.to_bits());
        assert_eq!(ours.energy_j.to_bits(), lib.energy_j.to_bits());
        assert_eq!(ours.p99_latency_s.to_bits(), lib.p99_latency_s.to_bits());
        assert_eq!(ours.mean_latency_s.to_bits(), lib.mean_latency_s.to_bits());
        assert_eq!(format!("{:?}", ours.stats), format!("{:?}", lib.stats));
        assert!(ours.conserved());
        assert_eq!(out.tr.spans().is_empty(), !traced);
    }
}

#[test]
fn storm_harness_matches_the_library_one() {
    let cfg = load_config(Kind::OpenloopStorm, Size::Tiny, 42).expect("open loop");
    assert!(cfg.admission.is_some() && cfg.power_states.is_none());
    assert_matches_library(Kind::OpenloopStorm);
}

#[test]
fn dvfs_harness_matches_the_library_one() {
    let cfg = load_config(Kind::OpenloopDvfs, Size::Tiny, 42).expect("open loop");
    assert_eq!(cfg.num_gpus, 2);
    assert!(cfg.power_states.is_some());
    assert_matches_library(Kind::OpenloopDvfs);
}
