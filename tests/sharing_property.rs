//! Property tests for scope-shared prover contexts.
//!
//! One claim carries the whole scope-sharing design: **reuse is
//! invisible.** A [`ScopeContext`] proves each obligation from private
//! copies of the mutable search state and rolls the shared E-graph back
//! afterwards, so proving an obligation in a context that already served
//! *other* obligations must produce the bit-identical verdict and
//! statistics of a freshly built context — and must leave the shared
//! E-graph's canonical rendering untouched.
//!
//! It is checked against randomly generated programs (including
//! seeded-violation populations, so refutation search paths are exercised
//! too), with obligations proven in randomized interleavings. Its
//! consequence for the checker's worker pool — each worker proves the
//! obligations it claims in its own context, so which worker proved what
//! must not show — is checked by running whole scopes under 1, 2 and 4
//! workers.
//!
//! [`ScopeContext`]: oolong::prover::ScopeContext

use oolong::corpus::{self, generate_seeded_violation_source, generate_source, GenConfig};
use oolong::datagroups::{CheckOptions, Checker, Report, Verdict};
use oolong::prover::{Budget, Stats};
use oolong::syntax::parse_program;
use proptest::prelude::*;

/// A budget small enough for property-test volume but roomy enough that
/// generated obligations regularly close (so the Proved path dominates,
/// not just budget exhaustion).
fn property_budget() -> Budget {
    Budget {
        max_instances: 400,
        max_branches: 400,
        max_rounds: 40,
        ..Budget::tiny()
    }
}

/// Proves every obligation of `source` twice — once through one shared
/// context serving the whole scope (in an order chosen by `rotate`), once
/// through a fresh context per obligation — and asserts the results are
/// bit-identical and the shared E-graph is byte-clean after every proof.
fn assert_reuse_is_invisible(source: &str, rotate: usize) -> Result<(), TestCaseError> {
    let program = parse_program(source).expect("generated source parses");
    let options = CheckOptions {
        budget: property_budget(),
        ..CheckOptions::default()
    };
    let checker = Checker::new(&program, options).expect("generated source analyses");
    let impls: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    let mut vcs: Vec<_> = impls.iter().filter_map(|&id| checker.vc(id).ok()).collect();
    if vcs.is_empty() {
        return Ok(());
    }
    let pivot = rotate % vcs.len();
    vcs.rotate_left(pivot);

    let mut shared = checker.context_for(&vcs[0]);
    let clean = shared.debug_state();
    for vc in &vcs {
        // By the second iteration the shared context has already served
        // unrelated obligations.
        let reused = checker.verdict_for_vc_in(&mut shared, vc);
        prop_assert_eq!(
            shared.debug_state(),
            clean.clone(),
            "proving `{}` dirtied the shared E-graph",
            vc.proc_name
        );
        let fresh = checker.verdict_for_vc(vc);
        prop_assert_eq!(
            reused.label(),
            fresh.label(),
            "`{}`: reused context changed the verdict",
            vc.proc_name
        );
        prop_assert_eq!(
            reused.stats().cloned(),
            fresh.stats().cloned(),
            "`{}`: reused context changed the statistics",
            vc.proc_name
        );
        if let (Verdict::NotVerified(_, a), Verdict::NotVerified(_, b)) = (&reused, &fresh) {
            prop_assert_eq!(&a.labels, &b.labels, "`{}`: refuted labels", vc.proc_name);
        }
    }
    Ok(())
}

/// A report as comparable data: per implementation, the procedure name,
/// verdict, refutation labels and full statistics.
type ReportKey = Vec<(String, &'static str, Option<Vec<u32>>, Option<Stats>)>;

fn report_key(report: &Report) -> ReportKey {
    report
        .impls
        .iter()
        .map(|r| {
            (
                r.proc_name.clone(),
                r.verdict.label(),
                r.verdict
                    .refutation()
                    .map(|refutation| refutation.labels.clone()),
                r.verdict.stats().cloned(),
            )
        })
        .collect()
}

/// Checks every implementation of `source` with 1, 2 and 4 workers and
/// asserts the reports are identical.
fn assert_worker_count_is_invisible(name: &str, source: &str) {
    let program = parse_program(source).expect("source parses");
    let options = CheckOptions {
        budget: property_budget(),
        ..CheckOptions::default()
    };
    let checker = Checker::new(&program, options).expect("source analyses");
    let reference = report_key(&checker.check_all_with_workers(1));
    for workers in [2, 4] {
        assert_eq!(
            report_key(&checker.check_all_with_workers(workers)),
            reference,
            "{name}: {workers} workers report differently from one"
        );
    }
}

#[test]
fn worker_count_is_invisible_on_the_paper_corpus() {
    for p in corpus::all() {
        assert_worker_count_is_invisible(p.name, p.source);
    }
}

#[test]
fn worker_count_is_invisible_on_generated_programs() {
    let cfg = GenConfig::default();
    for seed in 0..12 {
        let source = generate_source(seed, &cfg);
        assert_worker_count_is_invisible(&format!("generated seed {seed}"), &source);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reuse invisibility over plain generated programs.
    #[test]
    fn shared_context_reuse_is_invisible(seed in 0u64..500, rotate in 0usize..8) {
        let source = generate_source(seed, &GenConfig::default());
        assert_reuse_is_invisible(&source, rotate)?;
    }

    /// Reuse invisibility where refutation search actually runs: seeded
    /// violations make the prover close the negated obligation and
    /// extract a counterexample, the deepest rollback path a shared
    /// context has to survive.
    #[test]
    fn shared_context_reuse_survives_refutations(seed in 0u64..300, rotate in 0usize..8) {
        let v = generate_seeded_violation_source(seed);
        assert_reuse_is_invisible(&v.source, rotate)?;
    }
}
