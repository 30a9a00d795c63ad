//! Integration tests for the incremental verification engine: verdict
//! equivalence with the from-scratch checker over the whole paper corpus,
//! warm-vs-cold batch behaviour (zero prover calls on unchanged impls,
//! established by counting event kinds in the JSONL log), and invalidation
//! selectivity (editing one procedure's modifies clause re-runs only the
//! obligations whose VCs mention it).

use oolong::datagroups::{CheckOptions, Checker, Verdict};
use oolong::engine::{json, BatchUnit, Engine, EngineOptions, Json};
use oolong::syntax::parse_program;

fn corpus_units() -> Vec<BatchUnit> {
    oolong::corpus::all()
        .iter()
        .map(|p| BatchUnit {
            name: p.name.to_string(),
            source: p.source.to_string(),
        })
        .collect()
}

/// Structural verdict equality: same outcome, same prover statistics, same
/// open-branch sketch. (Verdict itself has no PartialEq because diagnostics
/// carry spans.)
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    a.label() == b.label() && a.stats() == b.stats() && a.open_branch() == b.open_branch()
}

/// The engine's verdicts — cold *and* warm — match a fresh `Checker` on
/// every program of the embedded paper corpus.
#[test]
fn cache_equivalence_over_the_paper_corpus() {
    let units = corpus_units();
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let cold = engine.check_batch(&units);
    let warm = engine.check_batch(&units);
    assert!(cold.unit_errors.is_empty(), "corpus programs all analyse");
    assert_eq!(cold.obligations.len(), warm.obligations.len());

    let mut fresh = Vec::new();
    for unit in &units {
        let program = parse_program(&unit.source).expect("corpus parses");
        let checker = Checker::new(&program, CheckOptions::default()).expect("corpus analyses");
        for rep in checker.check_all().impls {
            fresh.push((unit.name.clone(), rep.proc_name, rep.verdict));
        }
    }
    assert_eq!(fresh.len(), cold.obligations.len());
    for ((unit, proc, verdict), (c, w)) in fresh
        .iter()
        .zip(cold.obligations.iter().zip(&warm.obligations))
    {
        assert_eq!(
            (unit.as_str(), proc.as_str()),
            (c.unit.as_str(), c.proc_name.as_str())
        );
        assert!(
            same_verdict(verdict, &c.verdict),
            "cold {unit}/{proc}: engine said {}, checker said {}",
            c.verdict.label(),
            verdict.label()
        );
        assert!(
            same_verdict(verdict, &w.verdict),
            "warm {unit}/{proc}: engine said {}, checker said {}",
            w.verdict.label(),
            verdict.label()
        );
    }
    // Every warm obligation with a fingerprint was served from the cache.
    for o in &warm.obligations {
        assert_eq!(o.cache_hit, o.fingerprint.is_some());
    }
    assert_eq!(warm.prover_calls, 0);
}

/// Parses a JSONL event log and counts occurrences of one event kind.
fn count_events(jsonl: &str, kind: &str) -> usize {
    jsonl
        .lines()
        .map(|line| json::parse(line).expect("event line parses"))
        .filter(|v| v.get("event").and_then(Json::as_str) == Some(kind))
        .count()
}

/// A warm batch over an unchanged corpus performs *zero* prover calls —
/// established by the event log, not by timing: no `verified` / `refuted` /
/// `fuel_exhausted` events, one `cache_hit` per obligation.
#[test]
fn warm_batch_makes_no_prover_calls() {
    let dir = std::env::temp_dir().join(format!("oolong-warm-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let units = corpus_units();
    let obligations;
    {
        let engine = Engine::new(EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        })
        .expect("disk-backed engine");
        let cold = engine.check_batch(&units);
        obligations = cold.obligations.len();
        let log = cold.events_jsonl();
        assert_eq!(count_events(&log, "obligation_started"), obligations);
        assert_eq!(count_events(&log, "cache_hit"), cold.cache_hits);
        assert_eq!(count_events(&log, "batch_summary"), 1);
    }
    // A fresh engine over the same directory: everything it knows came off
    // disk, so the warm run exercises persistence, not process memory.
    let engine = Engine::new(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    })
    .expect("reopens");
    let warm = engine.check_batch(&units);
    let log = warm.events_jsonl();
    // Obligations without a fingerprint (restriction violations — the
    // corpus includes the paper's §3.0 counterexamples) are recomputed
    // each run by design; everything with a fingerprint must hit.
    let fingerprinted = warm
        .obligations
        .iter()
        .filter(|o| o.fingerprint.is_some())
        .count();
    assert!(fingerprinted > 0);
    assert_eq!(count_events(&log, "obligation_started"), obligations);
    assert_eq!(count_events(&log, "cache_hit"), fingerprinted);
    assert_eq!(count_events(&log, "verified"), 0);
    assert_eq!(count_events(&log, "refuted"), 0);
    assert_eq!(count_events(&log, "fuel_exhausted"), 0);
    assert_eq!(warm.prover_calls, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Collects the `prover_profile` event of every obligation from a JSONL
/// log, as `(seq, cached, rendered stats object)`.
fn profile_events(jsonl: &str) -> Vec<(u64, bool, String)> {
    jsonl
        .lines()
        .map(|line| json::parse(line).expect("event line parses"))
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("prover_profile"))
        .map(|v| {
            let seq = v.get("seq").and_then(Json::as_u64).expect("seq");
            let cached = matches!(v.get("cached"), Some(Json::Bool(true)));
            let stats = v.get("stats").expect("stats").render();
            (seq, cached, stats)
        })
        .collect()
}

/// Warm rechecks replay the cold run's prover telemetry from the cache:
/// the warm event log carries a `prover_profile` event per fingerprinted
/// obligation whose stats — scalars, exhausted dimension, and per-axiom
/// profile — are byte-identical to the cold run's, while the prover is
/// never called.
#[test]
fn warm_recheck_replays_prover_stats_from_the_event_log() {
    let dir = std::env::temp_dir().join(format!("oolong-replay-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let units = corpus_units();
    let disk = |dir: &std::path::Path| {
        Engine::new(EngineOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..EngineOptions::default()
        })
        .expect("disk-backed engine")
    };
    let cold_profiles = {
        let cold = disk(&dir).check_batch(&units);
        assert!(cold.prover_calls > 0);
        profile_events(&cold.events_jsonl())
    };
    // A fresh engine over the same directory: the replayed stats come off
    // disk, through the cache format, not from process memory.
    let warm = disk(&dir).check_batch(&units);
    assert_eq!(warm.prover_calls, 0, "warm runs never reach the prover");
    let warm_profiles = profile_events(&warm.events_jsonl());

    // The cold run proves most obligations live but may already hit the
    // cache on duplicates (identical impls across corpus units); the warm
    // run replays every one of them. Either way, the telemetry per
    // obligation must be byte-identical.
    assert!(
        cold_profiles.iter().any(|(_, cached, _)| !cached),
        "the cold run profiles live prover work"
    );
    assert_eq!(warm_profiles.len(), cold_profiles.len());
    for ((cold_seq, _, cold_stats), (warm_seq, warm_cached, warm_stats)) in
        cold_profiles.iter().zip(&warm_profiles)
    {
        assert_eq!(cold_seq, warm_seq, "profiles pair up by obligation");
        assert!(warm_cached, "warm profiles are marked as replayed");
        assert_eq!(
            cold_stats, warm_stats,
            "obligation {cold_seq}: replayed stats differ from the cold run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing one procedure's modifies clause re-runs exactly the obligations
/// whose VCs depend on it: the edited procedure itself and its callers.
/// Unrelated implementations in the same scope keep their fingerprints and
/// hit the cache.
#[test]
fn modifies_edit_invalidates_only_dependent_impls() {
    let before = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.f := 2 ; r.f := 3 }
         proc caller(r) modifies r.g
         impl caller(r) { q(r) }";
    // Drop q's license: q's own obligation and caller's call-site
    // obligation change; p is untouched.
    let after = before.replace("proc q(r) modifies r.g", "proc q(r)");

    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let cold = engine.check_source("unit", before);
    assert!(cold.all_verified(), "baseline verifies: {:?}", cold.tally());
    assert_eq!(cold.prover_calls, 3);

    let edited = engine.check_source("unit", &after);
    let by_proc = |report: &oolong::engine::BatchReport, name: &str| {
        report
            .obligations
            .iter()
            .find(|o| o.proc_name == name)
            .unwrap_or_else(|| panic!("obligation for {name}"))
            .clone()
    };
    let p = by_proc(&edited, "p");
    assert!(
        p.cache_hit,
        "p's obligation is untouched by q's modifies edit"
    );
    assert_eq!(p.fingerprint, by_proc(&cold, "p").fingerprint);

    let q = by_proc(&edited, "q");
    assert!(!q.cache_hit, "q's own license changed");
    assert_ne!(q.fingerprint, by_proc(&cold, "q").fingerprint);
    assert!(
        !q.verdict.is_verified(),
        "writing r.f without a license is rejected"
    );

    let caller = by_proc(&edited, "caller");
    assert!(!caller.cache_hit, "caller's call-site obligation changed");
    assert_ne!(caller.fingerprint, by_proc(&cold, "caller").fingerprint);

    assert_eq!(edited.cache_hits, 1);
    assert_eq!(edited.prover_calls, 2);
}

/// A changed budget is a changed obligation: warm runs under a different
/// budget do not reuse verdicts.
#[test]
fn budget_change_misses_the_cache() {
    let src = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }";
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let cold = engine.check_source("unit", src);
    assert_eq!(cold.prover_calls, 1);

    let starved = CheckOptions {
        budget: oolong::prover::Budget::tiny(),
        ..CheckOptions::default()
    };
    let engine2 = Engine::new(EngineOptions {
        check: starved,
        ..EngineOptions::default()
    })
    .expect("in-memory engine");
    let other = engine2.check_source("unit", src);
    assert_ne!(
        cold.obligations[0].fingerprint, other.obligations[0].fingerprint,
        "budget participates in the fingerprint"
    );
}

/// Within one batch, obligations whose scope background coincides share
/// one saturated prover context: the pool records a miss for the first
/// and hits for the rest.
#[test]
fn batch_reuses_scope_contexts() {
    let src = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.f := 2 ; r.f := 3 }
         proc caller(r) modifies r.g
         impl caller(r) { q(r) }";
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let report = engine.check_source("unit", src);
    assert_eq!(report.prover_calls, 3);
    let m = engine.contexts().metrics();
    assert_eq!(m.misses, 1, "one context built for the scope");
    assert_eq!(m.hits, 2, "the other obligations reuse it");
    assert_eq!(m.size, 1);

    // A second batch over the same unit hits the verdict cache before it
    // ever needs a context — the pool sees no new traffic.
    let warm = engine.check_source("unit", src);
    assert_eq!(warm.prover_calls, 0);
    let m2 = engine.contexts().metrics();
    assert_eq!((m2.hits, m2.misses), (m.hits, m.misses));
}
