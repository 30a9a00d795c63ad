//! Differential testing of the prover's backtracking strategy:
//! [`SearchStrategy::Trail`] (the shipped search) against the retained
//! clone-per-branch reference [`SearchStrategy::CloneSearch`].
//!
//! Both strategies execute the same search, so on every verification
//! condition of the paper corpus and of generated program populations
//! (plain, cyclic, branchy, seeded-violation, invariant, read-effect),
//! under a roomy budget and deliberately starved ones, they must report
//! identical outcomes, identical refutation labels, and identical
//! deterministic [`Stats`] up to the trail telemetry counters, which
//! [`Stats::without_trail_counters`] normalizes away. The clone reference
//! itself must report no trail activity.
//!
//! The strategy is passed explicitly through [`CheckOptions`], so the
//! suite is immune to test-harness parallelism.

use oolong::corpus::{self, GenConfig};
use oolong::datagroups::{CheckOptions, Checker, ImplReport, Report};
use oolong::prover::{Budget, SearchStrategy};
use oolong::syntax::parse_program;

fn run(source: &str, budget: &Budget, strategy: SearchStrategy) -> Report {
    let program = parse_program(source).expect("population programs parse");
    let options = CheckOptions {
        budget: budget.clone(),
        strategy,
        ..CheckOptions::default()
    };
    Checker::new(&program, options)
        .expect("population programs analyse")
        .check_all()
}

/// The refutation's labels and primary label id, if the verdict is one.
fn labels(report: &ImplReport) -> Option<(Vec<u32>, Option<u32>)> {
    report.verdict.refutation().map(|refutation| {
        (
            refutation.labels.clone(),
            refutation.primary.as_ref().map(|p| p.id),
        )
    })
}

/// Checks that trail and clone search agree on one program under one
/// budget: verdicts, refutation labels, and normalized statistics.
fn assert_matrix_agrees_under(name: &str, source: &str, budget: &Budget) {
    let trail = run(source, budget, SearchStrategy::Trail);
    let clone = run(source, budget, SearchStrategy::CloneSearch);
    assert_eq!(
        trail.impls.len(),
        clone.impls.len(),
        "{name}: obligation count diverges under {budget:?}"
    );
    for (t, c) in trail.impls.iter().zip(&clone.impls) {
        let proc = &t.proc_name;
        assert_eq!(proc, &c.proc_name, "{name}: order diverges");
        assert_eq!(
            t.verdict.label(),
            c.verdict.label(),
            "{name}: verdict for `{proc}` diverges under {budget:?}"
        );
        assert_eq!(
            labels(t),
            labels(c),
            "{name}: refutation labels for `{proc}` diverge under {budget:?}"
        );
        let (Some(ts), Some(cs)) = (t.verdict.stats(), c.verdict.stats()) else {
            continue;
        };
        assert_eq!(
            ts.without_trail_counters(),
            cs.without_trail_counters(),
            "{name}: strategies diverge on `{proc}` under {budget:?}"
        );
        assert_eq!(cs.pops, 0, "{name}: clone search kept a trail");
        assert_eq!(cs.undone_merges, 0);
        assert_eq!(cs.trail_depth_max, 0);
    }
}

fn assert_matrix_agrees(name: &str, source: &str, budgets: &[Budget]) {
    for budget in budgets {
        assert_matrix_agrees_under(name, source, budget);
    }
}

/// A roomy-but-bounded budget plus deliberately starved ones, so both
/// `Proved` searches and every `Unknown` exhaustion path are compared.
/// The roomy budget is capped like the soundness suite's: an unbounded
/// default budget would let hopeless generated VCs grind for minutes,
/// and a timeout here only moves an outcome to `Unknown` — which both
/// strategies must still agree on.
fn budget_grid() -> Vec<Budget> {
    let roomy = Budget {
        max_instances: 8_000,
        max_branches: 8_000,
        max_rounds: 400,
        ..Budget::default()
    };
    vec![
        roomy.clone(),
        Budget::tiny(),
        // The branch- and depth-starved entries also cap instantiation:
        // once splitting is blocked the search falls back to saturating
        // each stuck branch, and an 8k-instance grind per branch adds
        // nothing to the equivalence claim being tested.
        Budget {
            max_branches: 6,
            max_instances: 600,
            max_rounds: 60,
            ..roomy.clone()
        },
        Budget {
            max_depth: 2,
            max_instances: 600,
            max_rounds: 60,
            ..roomy.clone()
        },
        Budget {
            max_instances: 40,
            max_rounds: 25,
            ..roomy
        },
    ]
}

#[test]
fn matrix_agrees_on_paper_corpus() {
    for p in corpus::all() {
        assert_matrix_agrees(p.name, p.source, &budget_grid());
    }
}

#[test]
fn matrix_agrees_on_generated_programs() {
    let cfg = GenConfig::default();
    for seed in 0..12 {
        let src = corpus::generate_source(seed, &cfg);
        assert_matrix_agrees(&format!("generated seed {seed}"), &src, &budget_grid());
    }
}

#[test]
fn matrix_agrees_on_cyclic_programs() {
    // Cyclic rep inclusions starve the matcher (the paper's §5 third
    // example); both strategies must agree on the Unknown outcomes and on
    // which budget dimension tripped.
    for seed in 0..6 {
        let src = corpus::generate_cyclic_source(seed);
        assert_matrix_agrees(&format!("cyclic seed {seed}"), &src, &budget_grid());
    }
}

#[test]
fn matrix_agrees_on_seeded_violations() {
    // Programs with a known injected bug exercise the refutation path:
    // the prover must actually close the negated obligation, and both
    // strategies must find the same refuting labels while doing so (the
    // populations above are dominated by Proved/Unknown VCs).
    for seed in 0..15 {
        let v = corpus::generate_seeded_violation_source(seed);
        assert_matrix_agrees(
            &format!("seeded violation seed {seed} ({:?})", v.bug),
            &v.source,
            &budget_grid(),
        );
    }
}

#[test]
fn matrix_agrees_on_invariant_programs() {
    // Correct programs carrying invariant-preserved obligations at exits
    // and call boundaries: the newest obligation kind must be just as
    // invisible to the backtracking strategy.
    for seed in 0..6 {
        let src = corpus::generate_invariant_source(seed);
        assert_matrix_agrees(&format!("invariant seed {seed}"), &src, &budget_grid());
    }
}

#[test]
fn matrix_agrees_on_read_effect_programs() {
    // Correct programs whose read licenses discharge through the
    // goal-directed read-frame-inc-reflexive axiom, which arms inside
    // each obligation's frame.
    for seed in 0..6 {
        let src = corpus::generate_read_effect_source(seed);
        assert_matrix_agrees(&format!("read-effect seed {seed}"), &src, &budget_grid());
    }
}

#[test]
fn matrix_agrees_on_branchy_programs() {
    // Branch-heavy choice chains are where the trail actually earns its
    // keep: 2^depth case splits per VC. The VC itself has 2^depth leaves,
    // so the clone-based reference gets slow very fast — a tighter grid
    // (still completing full searches at these depths) keeps the suite
    // within CI time.
    let branchy_grid = vec![
        Budget {
            max_instances: 2_500,
            max_branches: 2_000,
            max_rounds: 200,
            ..Budget::default()
        },
        Budget::tiny(),
        Budget {
            max_branches: 6,
            max_instances: 600,
            max_rounds: 60,
            ..Budget::default()
        },
        Budget {
            max_depth: 2,
            max_instances: 600,
            max_rounds: 60,
            ..Budget::default()
        },
    ];
    for seed in 0..6 {
        let depth = 3 + (seed as usize % 3);
        let src = corpus::generate_branchy_source(seed, depth);
        assert_matrix_agrees(
            &format!("branchy seed {seed} depth {depth}"),
            &src,
            &branchy_grid,
        );
    }
}
