//! Axiom-witness regression corpus.
//!
//! The paper's soundness argument (§4) rests on which background axioms
//! hold. This suite pins, for every background-axiom family with a corpus
//! witness, that the axiom is load-bearing: dropping it from a verified
//! obligation's hypotheses flips the verdict ([`WITNESSES`]). A failing
//! entry names the axiom directly — either the witness went stale (the
//! proof no longer needs it; find a new one) or the axiom stopped
//! reaching the prover.
//!
//! Axiom names come from [`Checker::background_names`], which is
//! index-aligned with `Vc::hypotheses[..background_hyps]`.

use oolong::corpus;
use oolong::datagroups::{CheckOptions, Checker};
use oolong::logic::Formula;
use oolong::prover::Budget;
use oolong::syntax::parse_program;

/// One verdict-flip witness per background-axiom family that has one in
/// the paper corpus: `(program, naive mode, procedure, axiom name)`.
/// Dropping the named axiom from the named obligation's hypotheses makes
/// it stop verifying.
const WITNESSES: &[(&str, bool, &str, &str)] = &[
    ("stack_module", false, "sinit", "select-update-same"),
    ("example3", false, "updateAll", "select-update-other"),
    ("section30_q", false, "q", "new-unallocated"),
    ("section30_q", false, "q", "succ-alive-iff"),
    ("section30_q", false, "q", "succ-preserves-select"),
    ("section30_q", false, "q", "null-is-alive"),
    ("section30_q", false, "q", "reads-are-alive-or-null"),
    ("section30_q", false, "q", "inclusion-connection"),
    ("array_table", false, "touch_direct", "comparisons-are-ints"),
    ("section30_q", false, "q", "pivot-uniqueness"),
    ("section30_q", false, "q", "owner-acyclicity"),
    ("section30_q", false, "q", "pivot-values-are-objects"),
    ("array_table", false, "observer", "slot-values-are-objects"),
    (
        "array_table",
        false,
        "observer",
        "elem-pivot-values-are-objects",
    ),
    ("section30_q", false, "q", "local-inc-enum:cnt"),
    ("section30_q", false, "q", "rep-range:obj"),
    ("example3", false, "updateAll", "rep:g-next>g"),
    (
        "array_table",
        false,
        "touch_direct",
        "rep-elem:state-buckets>bucketstate",
    ),
    ("section30_q", true, "q", "closed-world-rep"),
];

fn witness_budget() -> Budget {
    Budget {
        max_instances: 8_000,
        max_branches: 8_000,
        max_rounds: 400,
        ..Budget::default()
    }
}

fn checker_for(source: &str, naive: bool) -> Checker {
    let program = parse_program(source).expect("corpus program parses");
    let options = CheckOptions {
        budget: witness_budget(),
        naive,
        ..CheckOptions::default()
    };
    // `Checker::new` borrows the program only to analyze it.
    Checker::new(&program, options).expect("corpus program analyses")
}

#[test]
fn dropping_a_needed_axiom_flips_the_verdict() {
    for &(prog, naive, proc, axiom) in WITNESSES {
        let p = corpus::by_name(prog).unwrap_or_else(|| panic!("unknown corpus program {prog}"));
        let checker = checker_for(p.source, naive);
        let names = checker.background_names();
        let idx = names
            .iter()
            .position(|n| n == axiom)
            .unwrap_or_else(|| panic!("{prog}: no background axiom named `{axiom}`"));
        let vc = checker
            .scope()
            .impls()
            .find_map(|(id, _)| checker.vc(id).ok().filter(|vc| vc.proc_name == proc))
            .unwrap_or_else(|| panic!("{prog}: no implementation of `{proc}`"));

        // The obligation verifies with its full background…
        let baseline = checker.verdict_for_vc(&vc);
        assert_eq!(
            baseline.label(),
            "verified",
            "{prog}/{proc}: witness baseline no longer verifies"
        );
        // …and dropping the axiom (replacing it by `true`, which keeps the
        // background index-aligned with its phases) flips the verdict.
        let mut dropped = vc.clone();
        dropped.hypotheses[idx] = Formula::True;
        assert_ne!(
            checker.verdict_for_vc(&dropped).label(),
            "verified",
            "{prog}/{proc}: dropping `{axiom}` no longer flips the verdict — \
             the witness is stale, find a new one"
        );
    }
}
