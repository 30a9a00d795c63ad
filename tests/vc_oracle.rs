//! Fidelity of the forward VC generator against the paper's
//! substitution-based `wlp` (Figures 2 and 3), kept as a test-time oracle
//! (`Checker::oracle_vc`).
//!
//! Over the paper corpus and every generated population, in full and in
//! naive mode, the two VCs of each implementation must give the same
//! verdict, the same primary-label span on refutations, and the same
//! diagnosis (kind, span, and whether replay confirms it). Where no choice
//! is followed by more work (`Vc::shared_continuations` is zero) the
//! goals must also be α-equivalent (bound names and label ids renamed, the
//! renamed labels carrying the same metadata) and the prover's scalar work
//! counters equal.

use oolong::corpus::{self, GenConfig};
use oolong::datagroups::vcgen::oracle::alpha_equivalent;
use oolong::datagroups::{CheckOptions, Checker, Vc, Verdict};
use oolong::diagnose::diagnose_refutation;
use oolong::syntax::parse_program;

/// How many implementations took each comparison path.
#[derive(Default)]
struct Tally {
    /// Forward goal α-equivalent to the oracle's, counters compared.
    identical: usize,
    /// Forward goal joins a choice; outcomes compared.
    joined: usize,
}

/// The comparable parts of a verdict: its label, the primary label's
/// kind and span, and the diagnosis' kind, span and confirmation.
fn outcome(checker: &Checker, source: &str, vc: &Vc, verdict: &Verdict) -> String {
    let mut out = verdict.label().to_string();
    if let Verdict::NotVerified(_, refutation) = verdict {
        if let Some(primary) = &refutation.primary {
            out += &format!(" primary {} {:?}", primary.kind, primary.span);
        }
        if let Some(d) = diagnose_refutation(checker.scope(), source, vc, refutation) {
            out += &format!(" diagnosis {} {:?} {}", d.kind, d.span, d.confirmed());
        }
    }
    out
}

/// Compares every implementation of `source`. On a divergence, the
/// unit's source is written to the directory `OOLONG_VC_ORACLE_DUMP`
/// names (when set), for `oolong vc` to render in CI.
fn compare(name: &str, source: &str, naive: bool, tally: &mut Tally) {
    if let Err(message) = compare_impls(source, naive, tally) {
        if let Some(dir) = std::env::var_os("OOLONG_VC_ORACLE_DUMP") {
            let file: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let dir = std::path::PathBuf::from(dir);
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(dir.join(format!("{file}.oo")), source);
        }
        panic!("{name} (naive: {naive}): {message}");
    }
}

fn compare_impls(source: &str, naive: bool, tally: &mut Tally) -> Result<(), String> {
    let program = parse_program(source).expect("population programs parse");
    let options = CheckOptions {
        naive,
        ..CheckOptions::default()
    };
    let checker = Checker::new(&program, options).expect("population programs analyse");
    for (impl_id, _) in checker.scope().impls() {
        if !checker.restriction_violations(impl_id).is_empty() {
            continue;
        }
        let forward = checker.vc(impl_id).expect("forward VC generates");
        let oracle = checker.oracle_vc(impl_id).expect("oracle VC generates");
        let proc = &forward.proc_name;
        if forward.hypotheses != oracle.hypotheses
            || forward.background_hyps != oracle.background_hyps
        {
            return Err(format!("`{proc}`: hypotheses differ"));
        }
        if forward.labels.len() != oracle.labels.len() {
            return Err(format!("`{proc}`: label counts differ"));
        }
        let fv = checker.verdict_for_vc(&forward);
        let ov = checker.verdict_for_vc(&oracle);
        let (fo, oo) = (
            outcome(&checker, source, &forward, &fv),
            outcome(&checker, source, &oracle, &ov),
        );
        if fo != oo {
            return Err(format!("`{proc}`: outcomes diverge: {fo} vs {oo}"));
        }
        if forward.shared_continuations > 0 {
            tally.joined += 1;
            continue;
        }
        tally.identical += 1;
        let renaming = alpha_equivalent(&forward.goal, &oracle.goal)
            .ok_or_else(|| format!("`{proc}`: goals are not α-equivalent"))?;
        for (f, o) in renaming {
            let (f, o) = (forward.label(f).unwrap(), oracle.label(o).unwrap());
            if (f.kind, f.span, &f.detail) != (o.kind, o.span, &o.detail) {
                return Err(format!("`{proc}`: renamed labels differ: {f:?} vs {o:?}"));
            }
        }
        if let (Some(fs), Some(os)) = (fv.stats(), ov.stats()) {
            if fs.to_fields() != os.to_fields() {
                return Err(format!(
                    "`{proc}`: prover work differs: {:?} vs {:?}",
                    fs.to_fields(),
                    os.to_fields()
                ));
            }
        }
    }
    Ok(())
}

fn compare_both_modes(name: &str, source: &str, tally: &mut Tally) {
    compare(name, source, false, tally);
    compare(name, source, true, tally);
}

#[test]
fn forward_vc_matches_oracle_on_paper_corpus() {
    let mut tally = Tally::default();
    for p in corpus::all() {
        compare_both_modes(p.name, p.source, &mut tally);
    }
    assert!(tally.identical > 0);
}

#[test]
fn forward_vc_matches_oracle_on_generated_programs() {
    let cfg = GenConfig::default();
    let mut tally = Tally::default();
    for seed in 0..40 {
        let src = corpus::generate_source(seed, &cfg);
        compare_both_modes(&format!("generated seed {seed}"), &src, &mut tally);
    }
    assert!(tally.identical > 0);
}

#[test]
fn forward_vc_matches_oracle_on_invariant_read_effect_and_cyclic_programs() {
    let mut tally = Tally::default();
    for seed in 0..12 {
        let src = corpus::generate_invariant_source(seed);
        compare_both_modes(&format!("invariant seed {seed}"), &src, &mut tally);
        let src = corpus::generate_read_effect_source(seed);
        compare_both_modes(&format!("read-effect seed {seed}"), &src, &mut tally);
        let src = corpus::generate_cyclic_source(seed);
        compare_both_modes(&format!("cyclic seed {seed}"), &src, &mut tally);
    }
    assert!(tally.identical > 0);
}

#[test]
fn forward_vc_matches_oracle_on_seeded_violations() {
    let mut tally = Tally::default();
    for seed in 0..20 {
        let v = corpus::generate_seeded_violation_source(seed);
        compare_both_modes(
            &format!("seeded violation seed {seed} ({:?})", v.bug),
            &v.source,
            &mut tally,
        );
    }
    assert!(tally.identical > 0);
}

#[test]
fn forward_vc_matches_oracle_on_branchy_programs() {
    let mut tally = Tally::default();
    for depth in 3..=8 {
        let src = corpus::generate_branchy_source(depth as u64, depth);
        compare_both_modes(&format!("branchy depth {depth}"), &src, &mut tally);
    }
    assert_eq!(
        tally.identical, 0,
        "every branchy choice has a continuation"
    );
    assert!(tally.joined > 0);
}
