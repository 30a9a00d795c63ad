//! The cold-engine workloads, `cold_corpus` and `large_units`: a closed
//! loop of one caller checking one unit at a time, each through a fresh
//! `Engine` with default options (what `oolong check` and `oolong batch
//! --no-cache` do).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use oolong_engine::{BatchReport, Engine, EngineOptions};

use crate::calib;
use crate::inputs::{outcome_of, Outcome, Unit, FAMILIES};
use crate::report::Report;
use crate::stats::{loglog_slope, median, percentile, proc_status_mb, Counters};
use crate::trace::{replay_unit, LayerCounts, ReplayMode, Tracer, ENGINE_LAYERS};

/// Times one unit through a fresh engine.
pub fn check_cold(unit: &Unit) -> (f64, BatchReport) {
    let start = Instant::now();
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let report = engine.check_source(&unit.name, &unit.source);
    (start.elapsed().as_secs_f64() * 1e3, report)
}

/// The `--rss-probe` mode: checks the unit on standard input through a
/// fresh engine and returns the peak RSS of this process, in MB.
pub fn rss_probe(name: &str) -> Result<f64, String> {
    let mut source = String::new();
    std::io::stdin()
        .read_to_string(&mut source)
        .map_err(|e| format!("reading the unit: {e}"))?;
    let engine = Engine::new(EngineOptions::default()).map_err(|e| e.to_string())?;
    let report = engine.check_source(name, &source);
    if report.obligations.is_empty() {
        return Err(format!("{name}: no obligations"));
    }
    Ok(proc_status_mb(None, "VmHWM"))
}

/// Peak RSS of checking `unit` alone through a fresh engine in a process
/// of its own (this binary in `--rss-probe` mode), as `oolong check`
/// would on that one unit. A process that has checked many units holds
/// freed memory in allocator arenas and grows its high-water mark with
/// the number and interleaving of the checks, which is why the
/// benchmark's own process is not measured.
pub fn isolated_peak_rss_mb(unit: &Unit) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--rss-probe", &unit.name])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the RSS probe: {e}"))?;
    let written = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(unit.source.as_bytes());
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for the RSS probe: {e}"))?;
    written.map_err(|e| format!("feeding the RSS probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mb) if out.status.success() && mb > 0.0 => Ok(mb),
        _ => Err(format!("{}: RSS probe failed ({})", unit.name, out.status)),
    }
}

/// Judges one engine report against the unit's known answer.
pub fn judge_report(unit: &Unit, report: &BatchReport) -> Vec<String> {
    let mut problems: Vec<String> = report
        .unit_errors
        .iter()
        .map(|e| format!("{}: unit error: {}", unit.name, e.message))
        .collect();
    if report.obligations.is_empty() && problems.is_empty() {
        problems.push(format!("{}: no obligations", unit.name));
    }
    let outcomes: Vec<(&str, Outcome)> = report
        .obligations
        .iter()
        .map(|o| (o.proc_name.as_str(), outcome_of(&o.verdict)))
        .collect();
    problems.extend(unit.judge_all(outcomes.iter().map(|(p, o)| (*p, o))));
    problems
}

/// One obligation as the untraced engine answered it, for the fidelity
/// comparison with the replay.
type Answer = (String, Outcome, Option<[u64; 3]>);

fn answers(report: &BatchReport) -> Vec<Answer> {
    report
        .obligations
        .iter()
        .map(|o| {
            let counters = o
                .verdict
                .stats()
                .map(|s| [s.instances as u64, s.trigger_matches, s.branches]);
            (o.proc_name.clone(), outcome_of(&o.verdict), counters)
        })
        .collect()
}

/// Builds the inputs and warms the cold path, `repeats` times; returns
/// the inputs and the median set-up time in reference seconds (see
/// [`calib`]).
pub fn setup(make: impl Fn() -> Vec<Unit>, repeats: usize) -> (Vec<Unit>, f64) {
    let mut times = Vec::new();
    let mut probes = Vec::new();
    let mut units = Vec::new();
    for _ in 0..repeats {
        probes.push(calib::probe());
        let start = Instant::now();
        units = make();
        // Warm-up: the smallest unit of every family through the same
        // cold path, so lazy initialisation and allocator growth are paid
        // before the first timed unit.
        let mut smallest: BTreeMap<&str, &Unit> = BTreeMap::new();
        for u in &units {
            let e = smallest.entry(u.family).or_insert(u);
            if u.source.len() < e.source.len() {
                *e = u;
            }
        }
        for u in smallest.values() {
            let _ = check_cold(u);
        }
        times.push(start.elapsed().as_secs_f64());
    }
    (units, median(&times) * calib::scale(&probes))
}

/// Most checks of one unit in one pass (see [`run_untraced`]).
const MAX_REPEATS: usize = 8;

/// Least time between two calibration probes of an untraced run. Probes
/// are taken between checks, so they sample the machine's speed all
/// through the run (about 60 in 30 seconds, some 5% of its time).
const PROBE_EVERY: Duration = Duration::from_millis(500);

/// The untraced run: whole passes over the inputs until `seconds` have
/// elapsed. Within a pass a unit is checked again until its checks add up
/// to `min_unit_ms` (at most [`MAX_REPEATS`] times), and its time in the
/// pass is their median; a pass's time is the sum of its units' times,
/// the time one caller needs to get every answer once. Each latency
/// percentile and rate is computed per pass and reported as the median
/// over passes, scaled to reference time by calibration probes taken
/// between checks every [`PROBE_EVERY`] (see [`calib`]); the raw
/// wall-clock medians are printed alongside.
pub fn run_untraced(
    units: &[Unit],
    setup_s: f64,
    seconds: u64,
    min_unit_ms: f64,
    report: &mut Report,
) {
    let budget = Duration::from_secs(seconds);
    let rss_after_setup = proc_status_mb(None, "VmRSS");
    let mut by_unit: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut per_pass: Vec<Vec<f64>> = Vec::new();
    let mut pass_s = Vec::new();
    let mut probes = Vec::new();
    let mut pass_probes = Vec::new();
    let mut last_probe: Option<Instant> = None;
    let mut first_pass: Option<Counters> = None;
    let mut stable = true;
    let mut unknown_ms = 0.0;
    let mut obligation_ms = 0.0;
    let start = Instant::now();
    while per_pass.is_empty() || start.elapsed() < budget {
        let mut pass = Counters::default();
        let mut samples = Vec::with_capacity(units.len());
        let pass_mark = probes.len();
        for (i, unit) in units.iter().enumerate() {
            if last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
                probes.push(calib::probe());
                last_probe = Some(Instant::now());
            }
            let mut times = Vec::new();
            let mut first_rep = None;
            while times.len() < MAX_REPEATS
                && (times.is_empty() || times.iter().sum::<f64>() < min_unit_ms)
            {
                let (ms, rep) = check_cold(unit);
                report.attempt(judge_report(unit, &rep));
                times.push(ms);
                first_rep.get_or_insert(rep);
            }
            let ms = median(&times);
            samples.push(ms);
            by_unit[i].push(ms);
            let rep = first_rep.expect("a unit is checked at least once");
            for o in &rep.obligations {
                pass.add_verdict(&o.verdict);
                obligation_ms += o.millis;
                if matches!(o.verdict, datagroups::Verdict::Unknown(_)) {
                    unknown_ms += o.millis;
                }
            }
        }
        pass_s.push(samples.iter().sum::<f64>() / 1e3);
        pass_probes.push(median(&probes[pass_mark..]));
        per_pass.push(samples);
        match first_pass {
            None => first_pass = Some(pass),
            Some(first) => stable &= first == pass,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let passes = per_pass.len();
    let n = passes * units.len();
    let first = first_pass.unwrap_or_default();
    let scale = calib::scale(&probes);
    let pct = |q: f64| {
        median(
            &per_pass
                .iter()
                .map(|s| percentile(s, q))
                .collect::<Vec<_>>(),
        )
    };
    let pass_median_s = median(&pass_s);
    report.metric("setup_s", setup_s, "s");
    report.timing("unit_ms.p50", pct(0.5) * scale, "ms", n);
    report.timing("unit_ms.p90", pct(0.9) * scale, "ms", n);
    report.timing("request_ms.p50", pct(0.5) * scale, "ms", n);
    report.timing("request_ms.p99", pct(0.99) * scale, "ms", n);
    let per_s = |count: f64| count / (pass_median_s * scale);
    report.timing("requests_per_s", per_s(units.len() as f64), "1/s", n);
    report.timing(
        "obligations_per_s",
        per_s(first.obligations as f64),
        "1/s",
        passes * first.obligations as usize,
    );
    report.line(format!(
        "raw wall clock: unit_ms.p50={:.4} unit_ms.p90={:.4} request_ms.p99={:.4} \
         requests_per_s={:.4} obligations_per_s={:.4}; calibration kernel median={:.4} ms \
         (min {:.4}, max {:.4}) over {} probes, scale={scale:.4}",
        pct(0.5),
        pct(0.9),
        pct(0.99),
        units.len() as f64 / pass_median_s,
        first.obligations as f64 / pass_median_s,
        median(&probes),
        percentile(&probes, 0.0),
        percentile(&probes, 1.0),
        probes.len(),
    ));
    report.timing(
        "decided_share",
        first.decided as f64 / first.obligations.max(1) as f64,
        "ratio",
        passes * first.obligations as usize,
    );
    let mut peaks = Vec::with_capacity(units.len());
    for unit in units {
        let mb = isolated_peak_rss_mb(unit).unwrap_or_else(|e| {
            report.attempt(vec![e]);
            0.0
        });
        peaks.push((mb, unit.name.as_str()));
    }
    let (peak, peak_unit) = peaks
        .iter()
        .copied()
        .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
    report.metric("peak_rss_mb", peak, "MB");
    report.line(format!(
        "peak_rss_mb: largest over units of one isolated check each, in a fresh \
         process; reached on {peak_unit}; this process's own high-water mark after \
         the run: {:.4} MB",
        proc_status_mb(None, "VmHWM")
    ));
    report.metric(
        "rss_growth_mb",
        proc_status_mb(None, "VmRSS") - rss_after_setup,
        "MB",
    );
    report.line(format!(
        "per pass, s (sum of unit times) / median calibration kernel ms: {}",
        pass_s
            .iter()
            .zip(&pass_probes)
            .map(|(s, p)| format!("{s:.3}/{p:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.line(format!(
        "passes={passes} wall_s={wall:.3} \
         unknown obligations' share of obligation time={:.4}",
        unknown_ms / obligation_ms.max(f64::MIN_POSITIVE)
    ));
    report.line(format!(
        "work counters per pass (deterministic{}): {}",
        if stable {
            ", identical in every pass"
        } else {
            ", DRIFTED between passes"
        },
        first.render()
    ));
    if !stable {
        report.attempt(vec!["prover counters drifted between passes".to_string()]);
    }
    for ((unit, times), (peak_mb, _)) in units.iter().zip(&by_unit).zip(&peaks) {
        report.line(format!(
            "unit {:<28} family={:<9} size={:<5} median_ms={:.3} peak_rss_mb={peak_mb:.1}",
            unit.name,
            unit.family,
            unit.size,
            median(times)
        ));
    }
}

/// The traced run: interleaves engine passes (untraced), replay passes
/// with spans off, and replay passes with spans on, until `seconds` have
/// elapsed; per-layer metrics are medians over the traced passes.
pub fn run_traced(units: &[Unit], seconds: u64, diagnose: bool, report: &mut Report) -> Tracer {
    let budget = Duration::from_secs(seconds);
    let mut tracer = Tracer::new(true);
    let mut engine_pass_ms = Vec::new();
    let mut quiet_pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut layer_pass_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut per_unit: BTreeMap<(u64, &'static str), Vec<f64>> = BTreeMap::new();
    let mut counts = LayerCounts::default();
    let mut engine_hits = 0u64;
    let mut engine_calls = 0u64;
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed() < budget {
        // Untraced engine pass: the reference answers and timings.
        let mut engine_ms = 0.0;
        let mut reference = Vec::new();
        engine_hits = 0;
        engine_calls = 0;
        for unit in units {
            let (ms, rep) = check_cold(unit);
            engine_ms += ms;
            engine_hits += rep.cache_hits as u64;
            engine_calls += rep.prover_calls as u64;
            reference.push(answers(&rep));
        }
        engine_pass_ms.push(engine_ms);

        // The same replay with spans off: the baseline for the overhead.
        let mut quiet = Tracer::new(false);
        let t = Instant::now();
        for (i, unit) in units.iter().enumerate() {
            let mut mode = ReplayMode {
                diagnose,
                ..ReplayMode::default()
            };
            let _ = replay_unit(
                &mut quiet,
                i as u64,
                unit,
                &mut mode,
                &mut LayerCounts::default(),
            );
        }
        quiet_pass_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // The traced replay.
        let mark = tracer.mark();
        counts = LayerCounts::default();
        let t = Instant::now();
        let traced: Vec<_> = units
            .iter()
            .enumerate()
            .map(|(i, unit)| {
                let mut mode = ReplayMode {
                    diagnose,
                    ..ReplayMode::default()
                };
                replay_unit(&mut tracer, i as u64, unit, &mut mode, &mut counts)
            })
            .collect();
        traced_pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for ((unit, reference), traced) in units.iter().zip(&reference).zip(traced) {
            report.attempt(judge_replay(unit, reference, traced));
        }
        let selfs = tracer.self_ms_since(mark);
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (&(id, name), &ms) in &selfs {
            *by_layer.entry(name).or_insert(0.0) += ms;
            per_unit.entry((id, name)).or_default().push(ms);
        }
        for (name, ms) in by_layer {
            layer_pass_ms.entry(name).or_default().push(ms);
        }
        passes += 1;
    }
    let layer = |name: &str| layer_pass_ms.get(name).map_or(0.0, |v| median(v));
    layer_metrics(report, &layer, &counts, passes);
    let replay_layers: f64 = ENGINE_LAYERS.iter().map(|l| layer(l)).sum();
    // A fresh engine per unit: its store only answers an obligation
    // repeated within one unit, and every miss is a prover call.
    report.metric("engine.store_hits", engine_hits as f64, "count");
    report.metric("engine.store_misses", engine_calls as f64, "count");
    report.metric(
        "engine.store_hit_ratio",
        engine_hits as f64 / (engine_hits + engine_calls).max(1) as f64,
        "ratio",
    );
    report.metric("engine.prover_calls", engine_calls as f64, "count");
    report.timing(
        "engine.self_ms",
        median(&engine_pass_ms) - replay_layers,
        "ms",
        passes,
    );
    report.timing(
        "trace.overhead_ms",
        median(&traced_pass_ms) - median(&quiet_pass_ms),
        "ms",
        passes,
    );
    report.line(format!(
        "passes={passes}: engine pass median {:.3} ms, untraced replay {:.3} ms, traced replay {:.3} ms",
        median(&engine_pass_ms),
        median(&quiet_pass_ms),
        median(&traced_pass_ms)
    ));
    report.line(format!(
        "work counters per pass (deterministic): {} vc_size={} vc_labels={} bytes={} attrs={}",
        counts.prover.render(),
        counts.vc_size,
        counts.vc_labels,
        counts.bytes,
        counts.attrs
    ));
    if diagnose {
        report.timing("diagnose.diagnose_ms", layer("diagnose"), "ms", passes);
        report.metric(
            "diagnose.confirmed_share",
            counts.confirmed as f64 / counts.diagnoses.max(1) as f64,
            "ratio",
        );
    }
    growth_exponents(units, &per_unit, report);
    tracer
}

/// The per-layer metrics common to every workload's traced run.
pub fn layer_metrics(
    report: &mut Report,
    layer: &dyn Fn(&str) -> f64,
    counts: &LayerCounts,
    passes: usize,
) {
    let p = &counts.prover;
    report.timing("syntax.parse_ms", layer("syntax.parse"), "ms", passes);
    report.metric("syntax.bytes", counts.bytes as f64, "count");
    report.timing("sema.analyze_ms", layer("sema.analyze"), "ms", passes);
    report.metric("sema.attrs", counts.attrs as f64, "count");
    report.timing("core.restrict_ms", layer("core.restrict"), "ms", passes);
    report.metric(
        "core.restrict_violations",
        counts.restrict_violations as f64,
        "count",
    );
    report.timing("core.vcgen_ms", layer("core.vcgen"), "ms", passes);
    report.metric("core.vc_size", counts.vc_size as f64, "count");
    report.metric("core.vc_labels", counts.vc_labels as f64, "count");
    report.timing(
        "engine.fingerprint_ms",
        layer("engine.fingerprint"),
        "ms",
        passes,
    );
    let decided = layer("prover.prove.decided");
    let unknown = layer("prover.prove.unknown");
    report.timing("prover.prove_ms.decided", decided, "ms", passes);
    report.timing("prover.prove_ms.unknown", unknown, "ms", passes);
    report.metric(
        "prover.presat_instances",
        p.presat_instances as f64,
        "count",
    );
    report.metric("prover.goal_instances", p.goal_instances as f64, "count");
    report.metric("prover.trigger_matches", p.trigger_matches as f64, "count");
    report.metric("prover.branches", p.branches as f64, "count");
    report.metric("prover.rounds", p.rounds as f64, "count");
    report.metric("prover.peak_nodes", p.peak_nodes as f64, "count");
    report.metric("prover.merges", p.merges as f64, "count");
    report.metric("prover.deferred", p.deferred as f64, "count");
    report.metric(
        "prover.unknown_time_share",
        unknown / (decided + unknown).max(f64::MIN_POSITIVE),
        "ratio",
    );
}

/// Compares a replay with the untraced engine's answers (verdicts and
/// prover counters must be equal) and with the known answer, including
/// diagnosis blame.
pub fn judge_replay(
    unit: &Unit,
    reference: &[Answer],
    traced: Result<Vec<crate::trace::ObligationTrace>, String>,
) -> Vec<String> {
    let traced = match traced {
        Ok(t) => t,
        Err(e) => return vec![format!("{}: replay error: {e}", unit.name)],
    };
    let mut problems = Vec::new();
    if traced.len() != reference.len() {
        problems.push(format!(
            "{}: fidelity: replay has {} obligations, engine {}",
            unit.name,
            traced.len(),
            reference.len()
        ));
    }
    problems.extend(unit.judge_all(traced.iter().map(|t| (t.proc.as_str(), &t.outcome))));
    for (t, (proc, outcome, counters)) in traced.iter().zip(reference) {
        if (&t.proc, &t.outcome, &t.counters) != (proc, outcome, counters) {
            problems.push(format!(
                "{}::{proc}: fidelity: engine {} {counters:?}, replay {} {:?}",
                unit.name,
                outcome.label(),
                t.outcome.label(),
                t.counters
            ));
        }
        if let Some((kind, start, end)) = &t.blame {
            if let Err(e) = unit.judge_blame(&t.proc, kind, *start, *end) {
                problems.push(e);
            }
        }
    }
    problems
}

/// Per-family log–log slopes of layer self time against size (only the
/// `large_units` families have sizes).
fn growth_exponents(
    units: &[Unit],
    per_unit: &BTreeMap<(u64, &'static str), Vec<f64>>,
    report: &mut Report,
) {
    let unit_ms = |i: usize, names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| per_unit.get(&(i as u64, *n)).map_or(0.0, |v| median(v)))
            .sum()
    };
    for family in FAMILIES {
        let members: Vec<(usize, &Unit)> = units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.family == family)
            .collect();
        if members.len() < 2 {
            continue;
        }
        for (metric, names) in [
            ("core.vcgen_exp", &["core.vcgen"][..]),
            (
                "prover.prove_exp",
                &["prover.prove.decided", "prover.prove.unknown"][..],
            ),
            ("syntax.parse_exp", &["syntax.parse"][..]),
        ] {
            let points: Vec<(f64, f64)> = members
                .iter()
                .map(|(i, u)| (u.size as f64, unit_ms(*i, names)))
                .collect();
            report.metric(
                format!("{metric}.{family}"),
                loglog_slope(&points),
                "exponent",
            );
        }
        for (i, u) in &members {
            report.line(format!(
                "{family} size={:<5} parse_ms={:.3} vcgen_ms={:.3} prove_ms={:.3}",
                u.size,
                unit_ms(*i, &["syntax.parse"]),
                unit_ms(*i, &["core.vcgen"]),
                unit_ms(*i, &["prover.prove.decided", "prover.prove.unknown"])
            ));
        }
    }
}
