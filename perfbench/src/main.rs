//! The oolong benchmark: named workloads, each checked against known
//! answers, reporting end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced replay.
//!
//! ```text
//! oolong-perfbench --workload NAME --seed N --seconds S --trace 0|1 --oolong PATH
//! oolong-perfbench --self-test --oolong PATH
//! oolong-perfbench --rss-probe NAME < SOURCE
//! ```
//!
//! `--rss-probe` is internal to the cold workloads: it checks the one
//! unit on standard input through a fresh engine and prints the peak RSS
//! of its own process (see `cold::isolated_peak_rss_mb`).
//!
//! Workloads: `cold_corpus`, `large_units`, `serve_edit` (see
//! `perfbench/README.md`). The full report goes to standard output; its
//! last line is one JSON object with `correct`, `attempted`, `failed`
//! and the metrics of `BENCHMARK.json` (`end_to_end` untraced,
//! `per_layer` traced).

mod calib;
mod cold;
mod inputs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// Where spans and daemon scratch files go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Set-ups per run; `setup_s` is their median. `serve_edit` starts and
/// primes a daemon per set-up, so it does fewer.
const SETUP_REPEATS: usize = 15;
const SERVE_SETUP_REPEATS: usize = 9;

/// `large_units` checks every unit faster than this again within a pass
/// (see `cold::run_untraced`): with one check per unit a 30-second run
/// makes only five to seven passes, too few samples of the mid-sized
/// units its median falls on.
/// `cold_corpus` makes 13 to 20 passes and checks each unit once.
const LARGE_MIN_UNIT_MS: f64 = 100.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    oolong: PathBuf,
}

fn parse_args() -> Result<(Args, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let self_test = args.iter().any(|a| a == "--self-test");
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number"))
        })
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let parsed = Args {
        workload: value("--workload").unwrap_or("").to_string(),
        seed: number("--seed", 1)?,
        seconds: number("--seconds", 10)?.max(1),
        trace,
        oolong: PathBuf::from(value("--oolong").unwrap_or("target/release/oolong")),
    };
    if !self_test && parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok((parsed, self_test))
}

/// Runs one workload once.
fn run(args: &Args) -> Result<(Report, Option<trace::Tracer>), String> {
    let mut report = Report::default();
    let seed = args.seed;
    let tracer = match (args.workload.as_str(), args.trace) {
        ("cold_corpus", trace) => {
            let (units, setup_s) = cold::setup(|| inputs::cold_corpus(seed), SETUP_REPEATS);
            if trace {
                Some(cold::run_traced(&units, args.seconds, true, &mut report))
            } else {
                cold::run_untraced(&units, setup_s, args.seconds, 0.0, &mut report);
                None
            }
        }
        ("large_units", trace) => {
            let (units, setup_s) = cold::setup(|| inputs::large_units(seed), SETUP_REPEATS);
            if trace {
                Some(cold::run_traced(&units, args.seconds, false, &mut report))
            } else {
                cold::run_untraced(
                    &units,
                    setup_s,
                    args.seconds,
                    LARGE_MIN_UNIT_MS,
                    &mut report,
                );
                None
            }
        }
        ("serve_edit", trace) => {
            let dir = Path::new(OUT_DIR).join(format!("serve-{}", std::process::id()));
            let out = serve::run(
                &args.oolong,
                &dir,
                seed,
                args.seconds,
                trace,
                SERVE_SETUP_REPEATS,
                &mut report,
            );
            let _ = std::fs::remove_dir_all(&dir);
            out?
        }
        (other, _) => return Err(format!("unknown workload `{other}`")),
    };
    Ok((report, tracer))
}

/// Two short runs on one seed must give identical verdicts and work
/// counters, and another seed must give different inputs.
fn self_test(args: &Args) -> Result<(), String> {
    for workload in ["cold_corpus", "large_units", "serve_edit"] {
        let inputs_of = |seed: u64| -> Vec<String> {
            match workload {
                "cold_corpus" => inputs::cold_corpus(seed),
                "large_units" => inputs::large_units(seed),
                _ => serve::repeat_set(seed),
            }
            .into_iter()
            .map(|u| u.source)
            .collect()
        };
        if inputs_of(1) != inputs_of(1) {
            return Err(format!("{workload}: one seed gave two input sets"));
        }
        if inputs_of(1) == inputs_of(2) {
            return Err(format!("{workload}: seeds 1 and 2 gave the same inputs"));
        }
        println!("self-test {workload}: inputs repeat per seed and differ across seeds");
    }
    // Verdicts and counters of a small cold pass, twice on one seed.
    let units: Vec<inputs::Unit> = inputs::cold_corpus(7)
        .into_iter()
        .filter(|u| u.name != "array_table")
        .collect();
    let pass = || -> Vec<String> {
        units
            .iter()
            .flat_map(|u| {
                let (_, rep) = cold::check_cold(u);
                rep.obligations
                    .iter()
                    .map(|o| {
                        let mut c = stats::Counters::default();
                        c.add_verdict(&o.verdict);
                        format!(
                            "{}::{} {} {}",
                            u.name,
                            o.proc_name,
                            o.verdict.label(),
                            c.render()
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let (a, b) = (pass(), pass());
    if a != b {
        return Err("two runs on one seed gave different verdicts or counters".to_string());
    }
    println!(
        "self-test cold pass: {} obligations, identical verdicts and counters twice",
        a.len()
    );
    let short = Args {
        workload: "serve_edit".to_string(),
        seed: 3,
        seconds: 2,
        trace: false,
        oolong: args.oolong.clone(),
    };
    let (report, _) = run(&short)?;
    if report.failed != 0 {
        return Err(format!(
            "short serve_edit run failed:\n{}",
            report.render("serve_edit")
        ));
    }
    println!(
        "self-test serve_edit: {} requests, none failed",
        report.attempted
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--rss-probe") {
        let name = argv.get(i + 1).map_or("unit", String::as_str);
        return match cold::rss_probe(name) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("oolong-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (args, self_testing) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oolong-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if self_testing {
        return match self_test(&args) {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (report, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("oolong-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = tracer {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", args.workload));
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.render()));
        if let Err(e) = written {
            eprintln!("oolong-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    let header = format!(
        "{} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", report.render(&header));
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.final_line(listed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("oolong-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
