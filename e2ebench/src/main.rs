//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! ewc-e2ebench --workload <openloop_storm|openloop_dvfs|paper_sessions>
//!              --seed <n> --seconds <s> --trace <0|1>
//!              [--size full|tiny] [--spans-out <path>] [--nproc <n>]
//! ```
//!
//! Prints one `{"report": ...}` line holding every metric (with its unit
//! and whether it is host-independent), the host fingerprint, the seed
//! and every correctness check, then, as the last line, the result
//! object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero when a check fails.

use std::fmt::Write as _;
use std::process::ExitCode;

use ewc_e2ebench::bench::{self, Inputs, Kind, Metric, RunResult, Size};
use ewc_telemetry::json::{write_number, write_string};

/// The end-to-end metrics the result line carries with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "host_req_per_s",
    "peak_rss_mb",
    "energy_per_req_j",
    "sim_p50_latency_s",
    "sim_p99_latency_s",
    "goodput_hz",
    "unshed_frac",
    "ok_frac",
    "model_time_err_pct",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans_out: Option<String>,
    nproc: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut spans_out = None;
    let mut nproc = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or(bad("unknown workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("must be full or tiny")),
                }
            }
            "--spans-out" => spans_out = Some(value),
            "--nproc" => nproc = Some(value.parse().map_err(|_| bad("not an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        spans_out,
        nproc,
    })
}

/// `nproc`, the CPUs this process may run on, and the CPU model.
fn write_host(out: &mut String, nproc: Option<usize>) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("", str::trim);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("", |(_, m)| m.trim());
    let nproc = nproc.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let _ = write!(out, "{{\"nproc\":{nproc},\"cpus_allowed\":");
    write_string(out, allowed);
    out.push_str(",\"cpu_model\":");
    write_string(out, model);
    out.push('}');
}

/// `"name":{"value":v,"unit":"u"[,"exact":b]}` for every metric kept.
fn write_metrics(out: &mut String, metrics: &[Metric], with_exact: bool) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, &m.name);
        out.push_str(":{\"value\":");
        write_number(out, m.value);
        out.push_str(",\"unit\":");
        write_string(out, m.unit);
        if with_exact {
            let _ = write!(out, ",\"exact\":{}", m.exact);
        }
        out.push('}');
    }
    out.push('}');
}

fn write_numbers(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, *v);
    }
    out.push(']');
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.kind, args.size, args.seed);
    let mut run: RunResult = if args.trace {
        bench::traced(&inputs, args.seconds)
    } else {
        bench::measure(&inputs, args.seconds)
    };
    if let (Some(path), Some(spans)) = (&args.spans_out, run.spans_jsonl.take()) {
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, spans) {
            eprintln!("error: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let finite = run.metrics.0.iter().all(|m| m.value.is_finite());
    let correct = finite && run.checks.iter().all(|c| c.ok);

    let mut report = String::from("{\"report\":{\"workload\":");
    write_string(&mut report, args.kind.name());
    let _ = write!(
        report,
        ",\"seed\":{},\"sub_seeds\":{},\"seed0_sim_digest\":\"{:016x}\",\"seconds\":",
        args.seed,
        bench::SUB_SEEDS,
        run.digest
    );
    write_number(&mut report, args.seconds);
    let _ = write!(report, ",\"trace\":{},\"host\":", u8::from(args.trace));
    write_host(&mut report, args.nproc);
    let _ = write!(report, ",\"iterations\":{},\"timed_s\":", run.timed_s.len());
    write_numbers(&mut report, &run.timed_s);
    report.push_str(",\"checks\":[");
    for (i, c) in run.checks.iter().enumerate() {
        if i > 0 {
            report.push(',');
        }
        report.push_str("{\"name\":");
        write_string(&mut report, c.name);
        let _ = write!(report, ",\"ok\":{}}}", c.ok);
    }
    report.push_str("],\"metrics\":");
    write_metrics(&mut report, &run.metrics.0, true);
    report.push_str("}}");
    println!("{report}");

    let shown: Vec<Metric> = run
        .metrics
        .0
        .iter()
        .filter(|m| args.trace || END_TO_END.contains(&m.name.as_str()))
        .cloned()
        .collect();
    let mut result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":",
        run.attempted, run.failed
    );
    write_metrics(&mut result, &shown, false);
    result.push('}');
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        for c in run.checks.iter().filter(|c| !c.ok) {
            eprintln!("check failed: {}", c.name);
        }
        ExitCode::FAILURE
    }
}
