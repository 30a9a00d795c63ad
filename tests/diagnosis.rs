//! Diagnosis accuracy: every rejection over the paper corpus and the
//! seeded-violation population must yield a [`Diagnosis`] that names the
//! ground-truth location and clause kind, with the interpreter replay
//! *confirming* the violation (never demoting it to spurious). A second
//! family of tests checks label transparency: wrapping obligations in
//! position labels must not change any prover outcome or statistic.

use oolong::corpus::{self, SeededBug};
use oolong::datagroups::{CheckOptions, Checker, Vc, Verdict};
use oolong::diagnose::{diagnose_refutation, diagnose_restriction, Diagnosis, Replay};
use oolong::prover::SearchStrategy;
use oolong::syntax::parse_program;

/// Builds the diagnosis for one (rejected) implementation report, the same
/// way the CLI and engine do.
fn diagnosis_for(
    checker: &Checker,
    source: &str,
    rep: &oolong::datagroups::ImplReport,
) -> Option<Diagnosis> {
    match &rep.verdict {
        Verdict::NotVerified(_, refutation) => {
            let vc = checker.vc(rep.impl_id).ok()?;
            diagnose_refutation(checker.scope(), source, &vc, refutation)
        }
        Verdict::RestrictionViolation(violations) => diagnose_restriction(
            checker.scope(),
            source,
            rep.impl_id,
            &rep.proc_name,
            violations,
        ),
        _ => None,
    }
}

fn checker_for(source: &str, strategy: SearchStrategy) -> Checker {
    let program = parse_program(source).expect("parses");
    let options = CheckOptions {
        strategy,
        ..CheckOptions::default()
    };
    Checker::new(&program, options).expect("analyzes")
}

const STRATEGIES: [SearchStrategy; 2] = [SearchStrategy::Trail, SearchStrategy::CloneSearch];

/// Every rejection in the paper corpus diagnoses to a confirmed,
/// source-located violation — and the corpus does contain rejections.
#[test]
fn paper_corpus_rejections_diagnose_confirmed() {
    for strategy in STRATEGIES {
        let mut rejections = 0;
        for p in corpus::all() {
            let checker = checker_for(p.source, strategy);
            for rep in &checker.check_all().impls {
                if !matches!(
                    rep.verdict,
                    Verdict::NotVerified(..) | Verdict::RestrictionViolation(_)
                ) {
                    continue;
                }
                rejections += 1;
                let d = diagnosis_for(&checker, p.source, rep).unwrap_or_else(|| {
                    panic!(
                        "{}/{}: rejection without a diagnosis",
                        p.name, rep.proc_name
                    )
                });
                assert!(
                    matches!(d.replay, Replay::Confirmed { .. }),
                    "{}/{} ({strategy:?}): replay did not confirm: {:?}",
                    p.name,
                    rep.proc_name,
                    d.replay
                );
                assert!(
                    !p.source[d.span.start as usize..d.span.end as usize].is_empty(),
                    "{}/{}: diagnosis points at an empty span",
                    p.name,
                    rep.proc_name
                );
            }
        }
        assert!(
            rejections > 0,
            "the paper corpus must contain at least one rejected implementation"
        );
    }
}

/// The §3.1 bad caller is the paper's own counterexample: pin down its
/// diagnosis precisely (owner-exclusion at the `w(st, st.vec)` call).
#[test]
fn section31_bad_call_diagnosis_names_the_call() {
    let p = corpus::by_name("section31_bad_call").expect("corpus program exists");
    let checker = checker_for(p.source, SearchStrategy::Trail);
    let report = checker.check_all();
    let rep = report
        .impls
        .iter()
        .find(|r| matches!(r.verdict, Verdict::NotVerified(..)))
        .expect("bad_caller is refuted");
    let d = diagnosis_for(&checker, p.source, rep).expect("diagnosis");
    assert_eq!(d.kind.as_str(), "owner-exclusion");
    let snippet = &p.source[d.span.start as usize..d.span.end as usize];
    assert!(
        snippet.contains("w(st"),
        "diagnosis should blame the call, got {snippet:?}"
    );
    assert!(matches!(d.replay, Replay::Confirmed { .. }));
}

/// Seeded-violation population: the diagnosis must name the ground-truth
/// span (exactly for modifies bugs and the invariant declaration, within
/// the injected command for the pivot copy and the uncovered read, whose
/// diagnostics anchor on the offending subexpression) and the expected
/// clause kind, and the replay must confirm.
#[test]
fn seeded_violations_diagnose_to_ground_truth() {
    for strategy in STRATEGIES {
        for seed in 0..15u64 {
            let v = corpus::generate_seeded_violation_source(seed);
            let checker = checker_for(&v.source, strategy);
            let report = checker.check_all();
            let rep = report
                .impls
                .iter()
                .find(|r| r.proc_name == v.proc_name)
                .expect("seeded impl present");
            assert!(
                matches!(
                    rep.verdict,
                    Verdict::NotVerified(..) | Verdict::RestrictionViolation(_)
                ),
                "seed {seed} ({strategy:?}): seeded bug {:?} not rejected: {}",
                v.bug,
                rep.verdict
            );
            let d = diagnosis_for(&checker, &v.source, rep).unwrap_or_else(|| {
                panic!("seed {seed} ({strategy:?}): no diagnosis for {:?}", v.bug)
            });
            assert_eq!(
                d.kind.as_str(),
                v.bug.expected_kind(),
                "seed {seed} ({strategy:?}): wrong clause kind for {:?}",
                v.bug
            );
            match v.bug {
                SeededBug::ForgottenIn
                | SeededBug::MissingClosureMember
                | SeededBug::BrokenInvariant => assert_eq!(
                    (d.span.start, d.span.end),
                    (v.start, v.end),
                    "seed {seed} ({strategy:?}): {:?} blamed {:?}, seeded {:?}",
                    v.bug,
                    &v.source[d.span.start as usize..d.span.end as usize],
                    v.snippet()
                ),
                SeededBug::StrayPivotWrite => assert!(
                    d.span.start >= v.start && d.span.end <= v.end,
                    "seed {seed} ({strategy:?}): pivot diagnosis at {}..{} outside seeded {}..{}",
                    d.span.start,
                    d.span.end,
                    v.start,
                    v.end
                ),
                SeededBug::UncoveredRead => {
                    assert!(
                        d.span.start >= v.start && d.span.end <= v.end,
                        "seed {seed} ({strategy:?}): read diagnosis at {}..{} outside \
                         seeded {}..{}",
                        d.span.start,
                        d.span.end,
                        v.start,
                        v.end
                    );
                    assert_eq!(
                        &v.source[d.span.start as usize..d.span.end as usize],
                        "t.b",
                        "seed {seed} ({strategy:?}): read diagnosis off the dereference"
                    );
                }
            }
            assert!(
                matches!(d.replay, Replay::Confirmed { .. }),
                "seed {seed} ({strategy:?}): {:?} demoted to {:?}",
                v.bug,
                d.replay
            );
        }
    }
}

/// Strips every position label out of a VC, leaving the logical content.
fn strip_vc(vc: &Vc) -> Vc {
    Vc {
        impl_id: vc.impl_id,
        proc_name: vc.proc_name.clone(),
        hypotheses: vc.hypotheses.iter().map(|h| h.strip_labels()).collect(),
        background_hyps: vc.background_hyps,
        goal: vc.goal.strip_labels(),
        labels: Vec::new(),
        shared_continuations: vc.shared_continuations,
    }
}

/// Labels are logically transparent: proving a labelled VC and its
/// stripped twin yields the same outcome *and* the same prover statistics
/// (instantiations, branches) — label bookkeeping must not steer search.
fn assert_labels_transparent(name: &str, source: &str, strategy: SearchStrategy) {
    let checker = checker_for(source, strategy);
    let ids: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    for impl_id in ids {
        let Ok(vc) = checker.vc(impl_id) else {
            continue;
        };
        let labelled = checker.verdict_for_vc(&vc);
        let stripped = checker.verdict_for_vc(&strip_vc(&vc));
        assert_eq!(
            std::mem::discriminant(&labelled),
            std::mem::discriminant(&stripped),
            "{name} ({strategy:?}): labelled {labelled} vs stripped {stripped}"
        );
        assert_eq!(
            labelled.stats(),
            stripped.stats(),
            "{name} ({strategy:?}): label bookkeeping changed prover statistics"
        );
    }
}

#[test]
fn labels_never_change_outcomes_on_corpus() {
    for p in corpus::all() {
        for strategy in STRATEGIES {
            assert_labels_transparent(p.name, p.source, strategy);
        }
    }
}

#[test]
fn labels_never_change_outcomes_on_generated_programs() {
    let cfg = corpus::GenConfig::default();
    for seed in 0..10 {
        let source = corpus::generate_source(seed, &cfg);
        assert_labels_transparent(&format!("generated-{seed}"), &source, SearchStrategy::Trail);
    }
    for seed in 0..15 {
        let v = corpus::generate_seeded_violation_source(seed);
        assert_labels_transparent(&format!("seeded-{seed}"), &v.source, SearchStrategy::Trail);
    }
    for seed in 0..6 {
        let source = corpus::generate_invariant_source(seed);
        assert_labels_transparent(&format!("invariant-{seed}"), &source, SearchStrategy::Trail);
        let source = corpus::generate_read_effect_source(seed);
        assert_labels_transparent(&format!("reads-{seed}"), &source, SearchStrategy::Trail);
    }
}

/// The invariant and read-effect populations are *correct*: every
/// implementation verifies, under both search strategies — the
/// invariant-preserved and read-license obligations they carry are all
/// dischargeable.
#[test]
fn invariant_and_read_effect_populations_verify() {
    for strategy in STRATEGIES {
        for seed in 0..8u64 {
            for (family, source) in [
                ("invariant", corpus::generate_invariant_source(seed)),
                ("reads", corpus::generate_read_effect_source(seed)),
            ] {
                let checker = checker_for(&source, strategy);
                for rep in &checker.check_all().impls {
                    assert!(
                        matches!(rep.verdict, Verdict::Verified(_)),
                        "{family} seed {seed} ({strategy:?}): `{}` did not verify: {}\n{source}",
                        rep.proc_name,
                        rep.verdict
                    );
                }
            }
        }
    }
}
