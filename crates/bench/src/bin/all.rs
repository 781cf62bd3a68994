//! Regenerate every table and figure in one run (the EXPERIMENTS.md
//! ledger).
//!
//! The experiments are independent, so they fan out through
//! [`fan_out`] (`all [parallelism]`, default one worker per core, `1`
//! = fully serial); sections are printed strictly in their original
//! order once everything has finished, so the fan-out adds no
//! nondeterminism of its own. (Sections that drive the real threaded
//! runtime — e.g. the multi-GPU Poisson sweep — vary slightly run to
//! run at *any* parallelism setting, serial included.)
use ewc_bench::experiments as ex;
use ewc_exec::fan_out;

/// One experiment: its rendered section, produced on some worker.
type Section = Box<dyn Fn() -> String + Send + Sync>;

/// Render every section across `parallelism` workers, returning them in
/// input order (the fan-out's positional merge).
fn render_all(sections: &[Section], parallelism: usize) -> Vec<String> {
    fan_out(sections.len(), parallelism, |i| sections[i]())
}

fn main() {
    let parallelism = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);

    let paper: Vec<Section> = vec![
        Box::new(|| ex::table1::render(&ex::table1::run())),
        Box::new(|| ex::fig1::render(&ex::fig1::run(9))),
        Box::new(|| {
            let (t2, t3) = ex::scenarios::run();
            ex::scenarios::render(&t2, &t3)
        }),
        Box::new(|| ex::fig3::render(&ex::fig3::run())),
        Box::new(|| ex::fig4::render(&ex::fig4::run())),
        Box::new(|| ex::fig5::render(&ex::fig5::run())),
        Box::new(|| ex::fig7::render(&ex::fig7::run(12))),
        Box::new(|| ex::fig8::render(&ex::fig8::run(9))),
        Box::new(|| ex::tables56::render(&ex::tables56::run())),
        Box::new(|| ex::tables78::render(&ex::tables78::run())),
        Box::new(|| ex::ablations::render(&ex::ablations::run())),
    ];
    let split = paper.len();
    let mut sections = paper;
    sections.extend([
        Box::new(|| ex::fermi::render(&ex::fermi::run())) as Section,
        Box::new(|| ex::multigpu::render(&ex::multigpu::run(40))),
        Box::new(|| ex::trace::render(&ex::trace::run())),
        Box::new(|| ex::overload::render(&ex::overload::run())),
        Box::new(|| ex::future_hw::render(&ex::future_hw::run(9))),
    ]);

    println!("# Energy-Aware Workload Consolidation — full experiment run\n");
    for (i, section) in render_all(&sections, parallelism).iter().enumerate() {
        if i == split {
            println!("# Extensions beyond the paper\n");
        }
        println!("{section}");
    }
}
