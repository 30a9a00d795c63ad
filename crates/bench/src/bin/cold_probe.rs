//! Cold-batch regression probe: the `e19_engine_cold` measurement (recorded
//! in BENCH_e19.json) as a plain binary, for CI gating and experiment
//! records.
//!
//! Each sample constructs a fresh [`Engine`] (empty caches, empty context
//! pool) and checks the full paper corpus through it — fingerprinting,
//! context pooling, and proving all run cold. The probe prints one JSON
//! object with the raw samples and their median, and exits nonzero when
//! `--threshold-ms` is given and the median exceeds it, so a workflow can
//! use it directly as a merge gate without parsing benchmark harness
//! output.
//!
//! Flags:
//! * `--samples N` — timed samples after one warmup (default 10)
//! * `--threshold-ms X` — fail (exit 1) if the median exceeds X
//! * `--invariant-corpus` — swap the unit set for the generated
//!   invariant + read-effect populations (10 seeds each), so the
//!   invariant-preserved and read-license obligation kinds get their own
//!   cold-batch regression gate

use std::time::Instant;

use oolong_corpus::paper;
use oolong_engine::{BatchUnit, Engine, EngineOptions};

fn corpus_units() -> Vec<BatchUnit> {
    paper::all()
        .iter()
        .map(|p| BatchUnit {
            name: p.name.to_string(),
            source: p.source.to_string(),
        })
        .collect()
}

fn invariant_units() -> Vec<BatchUnit> {
    (0..10u64)
        .flat_map(|seed| {
            [
                BatchUnit {
                    name: format!("invariant-{seed}"),
                    source: oolong_corpus::generate_invariant_source(seed),
                },
                BatchUnit {
                    name: format!("reads-{seed}"),
                    source: oolong_corpus::generate_read_effect_source(seed),
                },
            ]
        })
        .collect()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let samples: usize = arg_value(&args, "--samples")
        .map(|v| v.parse().expect("--samples takes a count"))
        .unwrap_or(10);
    let threshold_ms: Option<f64> =
        arg_value(&args, "--threshold-ms").map(|v| v.parse().expect("--threshold-ms takes ms"));
    let invariant_corpus = args.iter().any(|a| a == "--invariant-corpus");

    let units = if invariant_corpus {
        invariant_units()
    } else {
        corpus_units()
    };
    let run = || {
        let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
        engine.check_batch(&units)
    };

    // Warmup: keeps the first timed sample from paying one-time allocator
    // growth, and records the verdict tally every later sample must match.
    let expected = run().tally();

    let mut times_ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let report = run();
        times_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        assert_eq!(
            report.tally(),
            expected,
            "verdicts drifted between probe samples"
        );
    }
    let mut sorted = times_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = sorted[sorted.len() / 2];
    let pass = threshold_ms.map(|t| median <= t);

    let probe = if invariant_corpus {
        "invariant_cold_batch"
    } else {
        "engine_cold_batch"
    };
    let rendered: Vec<String> = times_ms.iter().map(|t| format!("{t:.1}")).collect();
    println!(
        "{{\"probe\":\"{probe}\",\"verified\":{},\"refuted\":{},\"unknown\":{},\"samples\":{samples},\
         \"samples_ms\":[{}],\"median_ms\":{median:.1},\"threshold_ms\":{},\"pass\":{}}}",
        expected.0,
        expected.1,
        expected.2,
        rendered.join(","),
        threshold_ms.map_or("null".to_string(), |t| format!("{t:.1}")),
        pass.map_or("null".to_string(), |p| p.to_string()),
    );
    if pass == Some(false) {
        std::process::exit(1);
    }
}
