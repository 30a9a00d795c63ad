//! Content addresses for proof obligations.
//!
//! A proof obligation's verdict is a pure function of three inputs: the
//! clausified verification condition (goal plus hypotheses, which embed the
//! exact background-axiom set of the implementation's scope), and the
//! prover [`Budget`] (a starved budget can turn `Proved` into `Unknown`,
//! so budgets are part of the obligation's identity, not metadata). The
//! [`Fingerprint`] is a stable 128-bit structural hash over exactly those
//! inputs plus a format version.
//!
//! Invalidation is purely fingerprint mismatch: there is no dependency
//! graph to maintain. Editing a declaration (a group, a `modifies` clause,
//! a pivot field) changes the generated hypotheses or goal of exactly the
//! implementations whose scope or license the declaration participates in,
//! so precisely those obligations re-run — the engine-level reflection of
//! the paper's modular-soundness property that a verdict depends only on
//! an implementation's scope.

use datagroups::Vc;
use oolong_logic::{Phase, StableHasher};
use oolong_prover::Budget;
use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

/// Version of the fingerprint recipe. Bump on any change to the hash
/// inputs or the stable-hash algorithm: a bump invalidates every existing
/// cache entry, which is exactly the safe behaviour.
///
/// Version 2: terms and symbols are hash-consed; their `Hash` impls now
/// write precomputed content digests (FNV-1a of the name for symbols, a
/// 128-bit structural digest for terms) instead of hashing the old
/// string-tree representation field by field. The digests are
/// process-stable but differ from the v1 byte streams, so every v1
/// fingerprint is invalid.
///
/// Version 3: the axiom-relevance slice (which background hypotheses the
/// checker keeps) joins the hash inputs. Slicing never changes an
/// outcome, but it does change the recorded statistics (`sliced_axioms`,
/// quantifier counts), and a v2 entry would replay pre-slicing telemetry
/// as if it were current; trigger-pattern annotations were already
/// covered, since declared triggers are part of each hypothesis formula's
/// structural hash. Old entries migrate by miss: the bump makes every v2
/// fingerprint unreachable, and the store simply re-proves and re-caches.
///
/// Version 4: the activation-phase mask (which kept background axioms are
/// goal-directed vs eager, from the declared [`PatternPolicy`] layer)
/// joins the hash inputs. Phase gating never changes an outcome, but it
/// moves instantiations between pre-saturation and the obligation frame,
/// so a v3 entry would replay the goalless-saturation telemetry as if it
/// were current — and flipping `--no-pattern-policies` must re-prove, not
/// hit. Same migration by miss.
///
/// Version 5: the scope background gained the per-field
/// `local-inc-members` axiom (fields have no proper members — a
/// scope-monotone closed form, since `in` targets must be groups in
/// every extension). The axiom is part of each VC's hypothesis set, so
/// v4 entries were proved under a strictly weaker theory: a v4 verdict
/// is still sound, but its refutation search and telemetry no longer
/// match what this build would produce. Same migration by miss.
///
/// Version 6: obligations gained two new kinds (`invariant-preserved`
/// and `reads-violation`): declared object invariants add hypotheses and
/// exit/call-boundary conjuncts to every VC in their scope, declared
/// `reads` clauses add per-dereference licensing conjuncts, and scopes
/// with read frames gain the `read-frame-inc-reflexive` background
/// axiom. For programs using neither feature the VC bytes are unchanged,
/// but a v5 entry could carry a cached diagnosis whose obligation-kind
/// vocabulary this build extends — and label ids are position-sensitive
/// (exit obligations now allocate first), so v5 refutation attributions
/// must not be replayed as current. Same migration by miss.
///
/// Version 7: axiom relevance slicing is gone. Every obligation now
/// proves against its scope's full background, so the keep mask is
/// always all-true, the registration counters (`quants`,
/// `skipped_quants`) count every background quantifier, and the stats
/// record no longer carries `sliced_axioms`. A v6 entry proved under a
/// sliced background would replay the old registration telemetry as if
/// it were current. Same migration by miss.
///
/// Version 8: VCs come from one forward pass instead of the backward
/// substitution `wlp`. Label ids now follow program order (the exit
/// obligations used to allocate first and commands in reverse), so a v7
/// entry's refutation labels would name other obligations. A choice
/// followed by more work now shares that continuation between its arms
/// under join variables, and the prover's split order reads the join
/// marker, so v7 verdicts and telemetry for such bodies are stale. Same
/// migration by miss.
///
/// [`PatternPolicy`]: oolong_logic::PatternPolicy
pub const FINGERPRINT_VERSION: u32 = 8;

/// The content address of one proof obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for Fingerprint {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Fingerprint, Self::Err> {
        u128::from_str_radix(s, 16).map(Fingerprint)
    }
}

/// The fingerprint of the obligation "prove `vc` under `budget`, keeping
/// the background axioms `keep` selects (the engine keeps them all) and
/// scheduling the kept axioms by `phases` (their declared activation
/// phases, index-aligned with the kept axioms)".
pub fn fingerprint_vc(vc: &Vc, budget: &Budget, keep: &[bool], phases: &[Phase]) -> Fingerprint {
    let mut hasher = StableHasher::new();
    FINGERPRINT_VERSION.hash(&mut hasher);
    // The background/Init split is part of the content: the same formula
    // multiset partitioned differently is a different provenance.
    vc.background_hyps.hash(&mut hasher);
    vc.hypotheses.hash(&mut hasher);
    vc.goal.hash(&mut hasher);
    budget.hash(&mut hasher);
    keep.hash(&mut hasher);
    // Hash the phase mask as booleans: bools write one byte each, so the
    // stream stays process-stable regardless of how the enum's derived
    // `Hash` encodes its discriminant.
    let mask: Vec<bool> = phases.iter().map(|&p| p == Phase::GoalDirected).collect();
    mask.hash(&mut hasher);
    Fingerprint(hasher.finish128())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagroups::{CheckOptions, Checker};
    use oolong_syntax::parse_program;

    fn vcs_for(src: &str) -> Vec<Vc> {
        let checker = Checker::new(
            &parse_program(src).expect("parses"),
            CheckOptions::default(),
        )
        .expect("analyses");
        checker
            .scope()
            .impls()
            .map(|(id, _)| checker.vc(id).expect("vc generates"))
            .collect()
    }

    const BASE: &str = "group value
         field num in value
         proc bump(r) modifies r.value
         impl bump(r) { r.num := 3 }";

    /// Fingerprint with every background axiom kept and an all-eager
    /// phase mask.
    fn fp(vc: &Vc, budget: &Budget) -> Fingerprint {
        fingerprint_vc(
            vc,
            budget,
            &vec![true; vc.background_hyps],
            &vec![Phase::Eager; vc.background_hyps],
        )
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = vcs_for(BASE);
        let b = vcs_for(BASE);
        assert_eq!(fp(&a[0], &Budget::default()), fp(&b[0], &Budget::default()));
    }

    #[test]
    fn budget_is_part_of_the_obligation() {
        let vcs = vcs_for(BASE);
        assert_ne!(
            fp(&vcs[0], &Budget::default()),
            fp(&vcs[0], &Budget::tiny())
        );
    }

    #[test]
    fn keep_mask_is_part_of_the_obligation() {
        // The same VC proved against fewer background axioms is a
        // different content address: a cached entry must not be served
        // across background changes.
        let vcs = vcs_for(BASE);
        let mut dropped = vec![true; vcs[0].background_hyps];
        dropped[0] = false;
        assert_ne!(
            fp(&vcs[0], &Budget::default()),
            fingerprint_vc(
                &vcs[0],
                &Budget::default(),
                &dropped,
                &vec![Phase::Eager; vcs[0].background_hyps],
            )
        );
    }

    #[test]
    fn phase_mask_is_part_of_the_obligation() {
        // The same VC under a different activation schedule is a different
        // content address: gating moves instantiations between presat and
        // goal, so a cached entry must not be served across policy changes.
        let vcs = vcs_for(BASE);
        let keep = vec![true; vcs[0].background_hyps];
        let mut phases = vec![Phase::Eager; vcs[0].background_hyps];
        phases[0] = Phase::GoalDirected;
        assert_ne!(
            fp(&vcs[0], &Budget::default()),
            fingerprint_vc(&vcs[0], &Budget::default(), &keep, &phases)
        );
    }

    #[test]
    fn obligation_edit_changes_the_fingerprint() {
        let before = vcs_for(BASE);
        // A second write extends the wlp chain: a different obligation.
        let after = vcs_for(&BASE.replace("r.num := 3", "r.num := 3 ; r.num := 3"));
        assert_ne!(
            fp(&before[0], &Budget::default()),
            fp(&after[0], &Budget::default())
        );
    }

    #[test]
    fn value_only_edit_keeps_the_fingerprint() {
        // The modifies obligation for `r.num := v` does not mention `v`:
        // editing only the stored value is a cache hit, by design.
        let before = vcs_for(BASE);
        let after = vcs_for(&BASE.replace("r.num := 3", "r.num := 4"));
        assert_eq!(
            fp(&before[0], &Budget::default()),
            fp(&after[0], &Budget::default())
        );
    }

    #[test]
    fn display_parses_back() {
        let vcs = vcs_for(BASE);
        let fingerprint = fp(&vcs[0], &Budget::default());
        assert_eq!(
            fingerprint
                .to_string()
                .parse::<Fingerprint>()
                .expect("parses"),
            fingerprint
        );
        assert_eq!(fingerprint.to_string().len(), 32);
    }

    #[test]
    fn fingerprint_bytes_are_stable_across_processes() {
        // Pinned hex: symbols hash by name digest and terms by structural
        // digest, so this value must never depend on interner state or
        // process layout. If this test fails because the recipe changed
        // on purpose, bump FINGERPRINT_VERSION and re-pin — silently
        // shifting bytes would orphan (or worse, mis-serve) disk caches.
        let vcs = vcs_for(BASE);
        let fingerprint = fp(&vcs[0], &Budget::default());
        assert_eq!(fingerprint.to_string(), PINNED_V8);
    }

    const PINNED_V8: &str = "c59d8473a8538492772eb2fea4d51fc3";
}
