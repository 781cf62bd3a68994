//! One module per table/figure of the paper's evaluation, and the
//! registry that names them.
//!
//! Every module exposes `run()` returning typed rows and `render()`
//! producing the printed table, with the paper's reported values carried
//! alongside the measured ones so the harness output doubles as the
//! EXPERIMENTS.md ledger. Absolute values are not expected to match the
//! 2011 testbed; the *shape* (who wins, by what factor, where crossovers
//! fall) is the reproduction target and is what `tests/` asserts.
//!
//! [`EXPERIMENTS`] lists each experiment once; `ewc experiments` prints
//! it, `ewc run <id>` runs one entry and `ewc run all` ([`run_all`])
//! runs every entry in table order.

use ewc_exec::fan_out;

pub mod ablations;
pub mod fermi;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod future_hw;
pub mod multigpu;
pub mod overload;
pub mod policy;
pub mod scenarios;
pub mod table1;
pub mod tables56;
pub mod tables78;
pub mod trace;

/// One reproducible experiment.
pub struct Experiment {
    /// The id `ewc run` takes.
    pub id: &'static str,
    /// One-line description for `ewc experiments`.
    pub description: &'static str,
    /// Run the experiment and render its table.
    pub run: fn() -> String,
}

/// Every experiment: the paper's tables and figures first (the leading
/// [`PAPER_SECTIONS`] entries), then the extensions, in the order
/// `ewc run all` prints them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        description: "single-instance GPU speedup over CPU (Table 1)",
        run: || table1::render(&table1::run()),
    },
    Experiment {
        id: "fig1",
        description: "motivation sweep: N encryption instances (Figure 1)",
        run: || fig1::render(&fig1::run(9)),
    },
    Experiment {
        id: "scenarios",
        description: "the good and bad consolidation scenarios (Tables 2-3)",
        run: || {
            let (t2, t3) = scenarios::run();
            scenarios::render(&t2, &t3)
        },
    },
    Experiment {
        id: "fig3",
        description: "type-1 performance-model validation (Figure 3)",
        run: || fig3::render(&fig3::run()),
    },
    Experiment {
        id: "fig4",
        description: "type-2 performance-model validation (Figure 4)",
        run: || fig4::render(&fig4::run()),
    },
    Experiment {
        id: "fig5",
        description: "power-model validation, 14 variants (Figure 5)",
        run: || fig5::render(&fig5::run()),
    },
    Experiment {
        id: "fig7",
        description: "encryption sweep, four setups (Figure 7)",
        run: || fig7::render(&fig7::run(12)),
    },
    Experiment {
        id: "fig8",
        description: "sorting sweep, four setups (Figure 8)",
        run: || fig8::render(&fig8::run(9)),
    },
    Experiment {
        id: "tables56",
        description: "Search+BlackScholes mixes (Tables 5-6)",
        run: || tables56::render(&tables56::run()),
    },
    Experiment {
        id: "tables78",
        description: "Encryption+MonteCarlo mixes (Tables 7-8)",
        run: || tables78::render(&tables78::run()),
    },
    Experiment {
        id: "ablations",
        description: "mechanism on/off studies",
        run: || ablations::render(&ablations::run()),
    },
    Experiment {
        id: "fermi",
        description: "Fermi concurrent kernels vs consolidation (extension)",
        run: || fermi::render(&fermi::run()),
    },
    Experiment {
        id: "multigpu",
        description: "multi-GPU scaling (extension)",
        run: || multigpu::render(&multigpu::run(40)),
    },
    Experiment {
        id: "trace",
        description: "Poisson-trace threshold sweep (extension)",
        run: || trace::render(&trace::run()),
    },
    Experiment {
        id: "overload",
        description: "open-loop overload: goodput vs offered load (extension)",
        run: || overload::render(&overload::run()),
    },
    Experiment {
        id: "future-hw",
        description: "consolidation on Fermi-class silicon (extension)",
        run: || future_hw::render(&future_hw::run(9)),
    },
    Experiment {
        id: "policy",
        description: "race-to-idle vs pace vs cap power policies (extension)",
        run: || policy::render(&policy::run()),
    },
];

/// How many leading [`EXPERIMENTS`] entries reproduce the paper's own
/// evaluation; the rest are extensions beyond it.
pub const PAPER_SECTIONS: usize = 11;

/// The experiment registered under `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every experiment's rendered section, in table order, under the
/// paper/extension headers (the EXPERIMENTS.md ledger in one run).
///
/// The experiments are independent, so they fan out one worker per
/// core; the fan-out merges positionally, so it adds no nondeterminism
/// of its own. (Sections that drive the real threaded runtime, e.g. the
/// multi-GPU Poisson sweep, vary slightly from run to run either way.)
pub fn run_all() -> String {
    let sections = fan_out(EXPERIMENTS.len(), 0, |i| (EXPERIMENTS[i].run)());
    let mut out = String::from("# Energy-Aware Workload Consolidation — full experiment run\n\n");
    for (i, section) in sections.iter().enumerate() {
        if i == PAPER_SECTIONS {
            out.push_str("# Extensions beyond the paper\n\n");
        }
        out.push_str(section);
        out.push('\n');
    }
    // The caller prints the result as one line.
    out.pop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_resolve_through_find() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.id != e.id),
                "duplicate id {}",
                e.id
            );
            assert!(std::ptr::eq(find(e.id).expect("registered"), e));
        }
        assert!(find("all").is_none(), "`all` is reserved for `ewc run all`");
        assert!(find("nope").is_none());
    }

    #[test]
    fn paper_sections_come_before_the_extensions() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(
                e.description.ends_with("(extension)"),
                i >= PAPER_SECTIONS,
                "{} is on the wrong side of the paper/extension split",
                e.id
            );
        }
    }
}
