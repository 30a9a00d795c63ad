//! The modular side-effect checker: the user-facing driver tying together
//! scope analysis, the pivot-uniqueness restriction, VC generation, and the
//! theorem prover.

use crate::restrict::check_pivot_uniqueness;
use crate::vcgen::{Background, ObligationKind, ObligationLabel, Vc, VcGen, VcOptions};
use oolong_logic::{Formula, PatternPolicy, Phase};
use oolong_prover::{Budget, CandidateModel, Outcome, ScopeContext, SearchStrategy, Stats};
use oolong_sema::{ImplId, Scope};
use oolong_syntax::{Diagnostic, Diagnostics, Program};
use std::fmt;
use std::sync::OnceLock;

/// Configuration for a [`Checker`].
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Prover resource limits.
    pub budget: Budget,
    /// Run the *naive* baseline: skip the pivot-uniqueness restriction,
    /// owner-exclusion obligations/assumptions, and background axioms (6)
    /// and (7). Used by experiments E2 and E3 to reproduce the unsound
    /// system the paper's restrictions repair.
    pub naive: bool,
    /// Emit `≠ null` definedness conditions (off by default — the paper
    /// elides them).
    pub null_checks: bool,
    /// Check at the arrays language level even when the scope uses no
    /// array features (for linking against arrays-level modules).
    pub force_arrays_level: bool,
    /// How the prover backtracks out of case splits. The default
    /// ([`SearchStrategy::Trail`]) is right for everything except
    /// differential testing and benchmarking of the backtracking mechanism
    /// itself, which select [`SearchStrategy::CloneSearch`] here.
    pub strategy: SearchStrategy,
}

/// Everything the prover reports about a rejected verification condition:
/// the open-branch sketch, the position labels that landed on the refuting
/// branch, the primary (innermost) obligation they identify, and the
/// exported candidate model for counterexample concretization.
#[derive(Debug, Clone, Default)]
pub struct Refutation {
    /// Human-readable sketch of the open branch's determined predicates.
    pub open_branch: Option<Vec<String>>,
    /// Position-label ids asserted on the refuting branch, in assertion
    /// order (deduplicated).
    pub labels: Vec<u32>,
    /// The obligation the branch violates: the last asserted label,
    /// resolved against the VC's label table.
    pub primary: Option<ObligationLabel>,
    /// The exported saturated branch context, when recorded.
    pub model: Option<CandidateModel>,
}

impl Refutation {
    /// Builds a refutation from a prover model, resolving the innermost
    /// label id against the VC's label table.
    pub fn from_proof(
        open_branch: Option<Vec<String>>,
        model: Option<CandidateModel>,
        vc: &Vc,
    ) -> Refutation {
        let labels = model.as_ref().map(|m| m.labels.clone()).unwrap_or_default();
        let primary = labels.last().and_then(|&id| vc.label(id)).cloned();
        Refutation {
            open_branch,
            labels,
            primary,
            model,
        }
    }
}

/// The verdict for one implementation.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The implementation respects its modifies list and no execution goes
    /// wrong.
    Verified(Stats),
    /// The implementation violates the pivot uniqueness restriction.
    RestrictionViolation(Vec<Diagnostic>),
    /// The VC could not be proved: a genuine error or an incompleteness.
    /// Carries the prover's [`Refutation`] evidence (boxed: the candidate
    /// model dwarfs every other variant).
    NotVerified(Stats, Box<Refutation>),
    /// The prover ran out of budget.
    Unknown(Stats),
    /// VC generation failed (unsupported expression form).
    TranslationError(Diagnostic),
}

impl Verdict {
    /// Whether the implementation was verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified(_))
    }

    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Verified(_) => "verified",
            Verdict::RestrictionViolation(_) => "restriction violation",
            Verdict::NotVerified(..) => "not verified",
            Verdict::Unknown(_) => "unknown",
            Verdict::TranslationError(_) => "translation error",
        }
    }

    /// The prover statistics, when a proof was attempted.
    pub fn stats(&self) -> Option<&Stats> {
        match self {
            Verdict::Verified(s) | Verdict::NotVerified(s, _) | Verdict::Unknown(s) => Some(s),
            _ => None,
        }
    }

    /// The open-branch sketch for a rejection, if the prover recorded one:
    /// the satisfiable literal assignment that witnesses why the
    /// verification condition is not derivable.
    pub fn open_branch(&self) -> Option<&[String]> {
        match self {
            Verdict::NotVerified(_, r) => r.open_branch.as_deref(),
            _ => None,
        }
    }

    /// The full refutation evidence for a rejection.
    pub fn refutation(&self) -> Option<&Refutation> {
        match self {
            Verdict::NotVerified(_, r) => Some(r),
            _ => None,
        }
    }

    /// Divergence attribution for an [`Verdict::Unknown`]: the budget
    /// dimension that tripped plus the hottest quantified axioms (see
    /// [`Stats::divergence`]).
    pub fn divergence(&self) -> Option<oolong_prover::Divergence> {
        match self {
            Verdict::Unknown(stats) => stats.divergence(),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())?;
        match self {
            Verdict::RestrictionViolation(ds) => {
                for d in ds {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            Verdict::TranslationError(d) => write!(f, ": {d}"),
            Verdict::Unknown(stats) => {
                // Which budget dimension tripped (recorded by the prover).
                if let Some(reason) = stats.exhausted {
                    write!(f, " ({reason})")?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// The verdict for one implementation, with identification.
#[derive(Debug, Clone)]
pub struct ImplReport {
    /// Which implementation.
    pub impl_id: ImplId,
    /// Name of the implemented procedure.
    pub proc_name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Labeled obligation conjuncts per kind embedded in the VC (empty
    /// when no VC was generated — restriction violations and translation
    /// errors).
    pub kind_counts: Vec<(ObligationKind, u32)>,
}

/// The results of checking every implementation in a scope.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-implementation results, in declaration order.
    pub impls: Vec<ImplReport>,
}

impl Report {
    /// Whether every implementation verified.
    pub fn all_verified(&self) -> bool {
        self.impls.iter().all(|r| r.verdict.is_verified())
    }

    /// The report for the (first) implementation of the named procedure.
    pub fn for_proc(&self, name: &str) -> Option<&ImplReport> {
        self.impls.iter().find(|r| r.proc_name == name)
    }

    /// Count of implementations with each outcome, as
    /// `(verified, rejected, unknown)`.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut v = 0;
        let mut r = 0;
        let mut u = 0;
        for rep in &self.impls {
            match rep.verdict {
                Verdict::Verified(_) => v += 1,
                Verdict::Unknown(_) => u += 1,
                _ => r += 1,
            }
        }
        (v, r, u)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.impls.is_empty() {
            return write!(f, "no implementations to check");
        }
        for (i, rep) in self.impls.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "impl {}: {}", rep.proc_name, rep.verdict)?;
        }
        Ok(())
    }
}

/// The modular side-effect checker for one scope.
#[derive(Debug)]
pub struct Checker {
    scope: Scope,
    options: CheckOptions,
    /// The scope background, built on first use and shared by every VC,
    /// name list, and prover context this checker produces.
    background: OnceLock<Background>,
}

impl Checker {
    /// Analyses `program` as a scope and prepares a checker.
    ///
    /// # Errors
    ///
    /// Returns the scope-analysis diagnostics if the program is ill-formed
    /// (undeclared names, inclusion cycles, parameter mismatches, …).
    pub fn new(program: &Program, options: CheckOptions) -> Result<Checker, Diagnostics> {
        Ok(Checker::from_scope(Scope::analyze(program)?, options))
    }

    /// Wraps an already-analysed scope.
    pub fn from_scope(scope: Scope, options: CheckOptions) -> Checker {
        Checker {
            scope,
            options,
            background: OnceLock::new(),
        }
    }

    /// The underlying scope.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// The options the checker was configured with.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    fn vc_options(&self) -> VcOptions {
        VcOptions {
            null_checks: self.options.null_checks,
            restrictions: !self.options.naive,
            force_arrays_level: self.options.force_arrays_level,
        }
    }

    fn background(&self) -> &Background {
        self.background
            .get_or_init(|| Background::new(&self.scope, &self.vc_options()))
    }

    /// Generates (without proving) the VC for one implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the body uses an unsupported
    /// expression form.
    pub fn vc(&self, impl_id: ImplId) -> Result<Vc, Diagnostic> {
        VcGen::new(&self.scope, self.background(), self.vc_options()).vc_for_impl(impl_id)
    }

    /// The VC of one implementation with its goal built by the paper's
    /// substitution-based `wlp` (Figures 2 and 3): the fidelity oracle
    /// [`Checker::vc`] is tested against. Same hypotheses and label
    /// metadata; see [`crate::vcgen::oracle`].
    ///
    /// # Errors
    ///
    /// As [`Checker::vc`].
    #[cfg(any(test, feature = "oracle"))]
    pub fn oracle_vc(&self, impl_id: ImplId) -> Result<Vc, Diagnostic> {
        VcGen::new(&self.scope, self.background(), self.vc_options()).oracle_vc_for_impl(impl_id)
    }

    /// The pivot-uniqueness violations of one implementation (always
    /// empty in naive mode, which skips the restriction).
    pub fn restriction_violations(&self, impl_id: ImplId) -> Vec<Diagnostic> {
        if self.options.naive {
            Vec::new()
        } else {
            check_pivot_uniqueness(&self.scope, impl_id)
        }
    }

    /// The stable names of the scope-background axioms, index-aligned with
    /// `Vc::hypotheses[..background_hyps]` of every VC this checker
    /// generates (see [`crate::background::named_background`]). Lets tests
    /// and diagnostics refer to background hypotheses by name rather than
    /// position.
    pub fn background_names(&self) -> Vec<String> {
        self.background()
            .axioms()
            .iter()
            .map(|(name, _, _)| name.clone())
            .collect()
    }

    /// The scope-background axioms with their stable names and declared
    /// activation policies, index-aligned with
    /// `Vc::hypotheses[..background_hyps]` exactly like
    /// [`Checker::background_names`].
    pub fn background_policies(&self) -> Vec<(String, Formula, PatternPolicy)> {
        self.background().axioms().to_vec()
    }

    /// The declared scheduling phase of every scope-background axiom,
    /// index-aligned with the VC's background hypotheses.
    pub fn background_phases(&self) -> Vec<Phase> {
        self.background().phases()
    }

    /// Builds a prover context holding a VC's full scope background,
    /// saturated once and reusable across every obligation of this checker
    /// (all its VCs carry the same background). Pre-saturation fires only
    /// the `Eager` axioms; the goal-directed ones arm per obligation inside
    /// its frame.
    pub fn context_for(&self, vc: &Vc) -> ScopeContext {
        ScopeContext::new_with_phases(
            &vc.hypotheses[..vc.background_hyps],
            &self.background_phases(),
            &self.options.budget,
            self.options.strategy,
        )
    }

    /// Proves a verification condition inside `ctx` — which must hold the
    /// VC's scope background — and maps the proof outcome to a
    /// [`Verdict`].
    pub fn verdict_for_vc_in(&self, ctx: &mut ScopeContext, vc: &Vc) -> Verdict {
        let init = &vc.hypotheses[vc.background_hyps..];
        let proof = ctx.prove(init, &vc.goal);
        match proof.outcome {
            Outcome::Proved => Verdict::Verified(proof.stats),
            Outcome::NotProved => Verdict::NotVerified(
                proof.stats,
                Box::new(Refutation::from_proof(proof.open_branch, proof.model, vc)),
            ),
            Outcome::Unknown(_) => Verdict::Unknown(proof.stats),
        }
    }

    /// Proves an already-generated verification condition and maps the
    /// proof outcome to a [`Verdict`].
    ///
    /// Builds a one-shot scope context: the same code path as
    /// [`Checker::check_all`], so outcomes and statistics agree exactly.
    pub fn verdict_for_vc(&self, vc: &Vc) -> Verdict {
        self.verdict_for_vc_in(&mut self.context_for(vc), vc)
    }

    /// Checks a single implementation: pivot uniqueness first (unless
    /// naive), then the verification condition.
    pub fn check_impl(&self, impl_id: ImplId) -> ImplReport {
        self.check_impl_in(&mut None, impl_id)
    }

    /// [`Checker::check_impl`], proving inside `ctx`: built from this
    /// implementation's VC when still empty, reused as it is otherwise.
    fn check_impl_in(&self, ctx: &mut Option<ScopeContext>, impl_id: ImplId) -> ImplReport {
        let proc_name = self
            .scope
            .proc_info(self.scope.impl_info(impl_id).proc)
            .name
            .clone();
        let violations = self.restriction_violations(impl_id);
        if !violations.is_empty() {
            return ImplReport {
                impl_id,
                proc_name,
                verdict: Verdict::RestrictionViolation(violations),
                kind_counts: Vec::new(),
            };
        }
        let vc = match self.vc(impl_id) {
            Ok(vc) => vc,
            Err(d) => {
                return ImplReport {
                    impl_id,
                    proc_name,
                    verdict: Verdict::TranslationError(d),
                    kind_counts: Vec::new(),
                }
            }
        };
        let ctx = ctx.get_or_insert_with(|| self.context_for(&vc));
        ImplReport {
            impl_id,
            proc_name,
            kind_counts: vc.kind_counts(),
            verdict: self.verdict_for_vc_in(ctx, &vc),
        }
    }

    /// Checks every implementation in the scope.
    pub fn check_all(&self) -> Report {
        self.check_all_with_workers(1)
    }

    /// Checks every implementation in the scope across one worker thread
    /// per available core (verification conditions are independent).
    pub fn check_all_parallel(&self) -> Report {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.check_all_with_workers(workers)
    }

    /// Checks every implementation in the scope across `workers` threads.
    /// The report lists implementations in declaration order regardless of
    /// thread interleaving.
    ///
    /// Workers claim implementations one at a time. Each worker builds one
    /// scope context, lazily from the first VC it proves, and proves every
    /// later claim inside a trail frame of it, so a context is only ever
    /// touched by one thread. Reuse is invisible — a proof in a context
    /// that served other obligations reports the verdict and statistics of
    /// a fresh one — so the report does not depend on `workers`.
    pub fn check_all_with_workers(&self, workers: usize) -> Report {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ids: Vec<ImplId> = self.scope.impls().map(|(id, _)| id).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut ctx = None;
            let mut done = Vec::new();
            loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&impl_id) = ids.get(slot) else {
                    return done;
                };
                done.push((slot, self.check_impl_in(&mut ctx, impl_id)));
            }
        };
        let done: Vec<(usize, ImplReport)> = if workers <= 1 || ids.len() <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers.min(ids.len()))
                    .map(|_| scope.spawn(work))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("checker worker panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<ImplReport>> = vec![None; ids.len()];
        for (slot, report) in done {
            slots[slot] = Some(report);
        }
        Report {
            impls: slots
                .into_iter()
                .map(|slot| slot.expect("every implementation got a verdict"))
                .collect(),
        }
    }
}

/// The results of checking a program module by module (the `module`
/// extension): each module's implementations verified against its own
/// import-closure scope.
#[derive(Debug, Clone, Default)]
pub struct ModularReport {
    /// Per-module reports, in declaration order. Top-level implementations
    /// (outside any module) appear under the pseudo-module name `""`.
    pub modules: Vec<(String, Report)>,
}

impl ModularReport {
    /// Whether every implementation of every module verified.
    pub fn all_verified(&self) -> bool {
        self.modules.iter().all(|(_, r)| r.all_verified())
    }

    /// The report for a named module.
    pub fn for_module(&self, name: &str) -> Option<&Report> {
        self.modules.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }
}

impl fmt::Display for ModularReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, report)) in self.modules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let shown = if name.is_empty() { "(top level)" } else { name };
            write!(f, "module {shown}:")?;
            for rep in &report.impls {
                write!(f, "\n  impl {}: {}", rep.proc_name, rep.verdict)?;
            }
            if report.impls.is_empty() {
                write!(f, "\n  (no implementations)")?;
            }
        }
        Ok(())
    }
}

/// Checks a program module by module: each module's implementations are
/// verified against the module's own scope (its declarations plus
/// transitively imported modules plus top-level declarations) — the
/// piecewise checking the paper's modular soundness licenses.
///
/// # Errors
///
/// Returns diagnostics if the module structure is invalid or any module
/// scope fails analysis.
pub fn check_modular(
    program: &Program,
    options: &CheckOptions,
) -> Result<ModularReport, Diagnostics> {
    use oolong_syntax::Decl;
    let infos = oolong_sema::modules::modules(program)?;
    let mut modules = Vec::new();

    // Top-level implementations check against the whole program.
    let top_impls: Vec<&oolong_syntax::ImplDecl> = program
        .decls
        .iter()
        .filter_map(|d| match d {
            Decl::Impl(i) => Some(i),
            _ => None,
        })
        .collect();
    if !top_impls.is_empty() {
        let flat = oolong_sema::flatten(program);
        let checker = Checker::new(&flat, options.clone())?;
        let report = Report {
            impls: checker
                .scope()
                .impls()
                .filter(|(_, info)| {
                    let name = &checker.scope().proc_info(info.proc).name;
                    top_impls
                        .iter()
                        .any(|ti| &ti.name.text == name && ti.body == info.body)
                })
                .map(|(id, _)| checker.check_impl(id))
                .collect(),
        };
        modules.push((String::new(), report));
    }

    for info in infos {
        let visible = oolong_sema::visible_program(program, &info.name)?;
        let checker = Checker::new(&visible, options.clone())?;
        modules.push((info.name, checker.check_all()));
    }
    Ok(ModularReport { modules })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_program;

    fn check(src: &str) -> Report {
        Checker::new(&parse_program(src).unwrap(), CheckOptions::default())
            .unwrap()
            .check_all()
    }

    #[test]
    fn report_on_verifying_program() {
        let report = check(
            "group value
             field num in value
             proc bump(r) modifies r.value
             impl bump(r) { r.num := 3 }",
        );
        assert!(report.all_verified());
        let (v, r, u) = report.tally();
        assert_eq!((v, r, u), (1, 0, 0));
        assert!(report.to_string().contains("impl bump: verified"));
    }

    #[test]
    fn report_on_violating_program() {
        let report = check(
            "field f
             proc sneaky(r)
             impl sneaky(r) { r.f := 3 }",
        );
        assert!(!report.all_verified());
        assert_eq!(
            report.for_proc("sneaky").unwrap().verdict.label(),
            "not verified"
        );
    }

    #[test]
    fn restriction_violations_reported_before_proving() {
        let report = check(
            "group g
             field vec maps g into g
             proc p(st, r) modifies r.g
             field obj in g
             impl p(st, r) { r.obj := st.vec }",
        );
        let rep = report.for_proc("p").unwrap();
        assert_eq!(rep.verdict.label(), "restriction violation");
    }

    #[test]
    fn naive_mode_skips_restriction() {
        let src = "group g
             field vec maps g into g
             proc p(st, r) modifies r.g
             field obj in g
             impl p(st, r) { r.obj := st.vec }";
        let checker = Checker::new(
            &parse_program(src).unwrap(),
            CheckOptions {
                naive: true,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        let report = checker.check_all();
        let rep = report.for_proc("p").unwrap();
        assert_ne!(rep.verdict.label(), "restriction violation");
    }

    #[test]
    fn empty_scope_reports_nothing() {
        let report = check("group g");
        assert!(report.impls.is_empty());
        assert!(report.all_verified());
        assert_eq!(report.to_string(), "no implementations to check");
    }

    const MODULAR: &str = "
module vector_interface {
  group elems
  field cnt in elems
  proc vgrow(v) modifies v.elems
}
module vector_impl imports vector_interface {
  impl vgrow(v) { assume v != null ; v.cnt := v.cnt + 1 }
}
module stack_interface imports vector_interface {
  group contents
  proc push(s, o) modifies s.contents
}
module stack_impl imports stack_interface {
  field vec in contents maps elems into contents
  impl push(s, o) { assume s != null && s.vec != null ; vgrow(s.vec) }
}
";

    #[test]
    fn modular_check_verifies_each_module_in_its_scope() {
        let program = parse_program(MODULAR).unwrap();
        let report = check_modular(&program, &CheckOptions::default()).expect("checks");
        assert!(report.all_verified(), "{report}");
        assert_eq!(report.modules.len(), 4);
        let stack = report.for_module("stack_impl").expect("module exists");
        assert_eq!(stack.impls.len(), 1);
        assert!(report.to_string().contains("module stack_impl:"));
    }

    #[test]
    fn modular_check_catches_module_local_violations() {
        // vector_impl writes a field it has no license for.
        let bad = MODULAR.replace(
            "impl vgrow(v) { assume v != null ; v.cnt := v.cnt + 1 }",
            "field secret
             impl vgrow(v) { assume v != null ; v.secret := 1 }",
        );
        let program = parse_program(&bad).unwrap();
        let report = check_modular(&program, &CheckOptions::default()).expect("checks");
        assert!(!report.all_verified());
        assert!(!report.for_module("vector_impl").unwrap().all_verified());
        assert!(report.for_module("stack_impl").unwrap().all_verified());
    }

    #[test]
    fn whole_program_check_flattens_modules() {
        let program = parse_program(MODULAR).unwrap();
        let report = Checker::new(&program, CheckOptions::default())
            .expect("flattens")
            .check_all();
        assert!(report.all_verified());
        assert_eq!(report.impls.len(), 2);
    }

    #[test]
    fn top_level_impls_report_under_pseudo_module() {
        let program = parse_program(
            "module m { group g }
             field f in g
             proc p(t) modifies t.g
             impl p(t) { assume t != null ; t.f := 1 }",
        )
        .unwrap();
        let report = check_modular(&program, &CheckOptions::default()).expect("checks");
        assert!(report.all_verified(), "{report}");
        assert!(report.for_module("").is_some());
    }

    #[test]
    fn parallel_checking_agrees_with_sequential() {
        let program = parse_program(
            "group g field f in g
             proc p(t) modifies t.g
             impl p(t) { t.f := 1 }
             proc bad(t)
             impl bad(t) { t.f := 1 }",
        )
        .unwrap();
        let checker = Checker::new(&program, CheckOptions::default()).unwrap();
        let seq = checker.check_all();
        let par = checker.check_all_parallel();
        let labels = |r: &Report| -> Vec<(String, &'static str)> {
            r.impls
                .iter()
                .map(|i| (i.proc_name.clone(), i.verdict.label()))
                .collect()
        };
        assert_eq!(labels(&seq), labels(&par));
    }

    #[test]
    fn plain_programs_verify_at_the_arrays_level_too() {
        // force_arrays_level adds the extended axioms; a plain program's
        // verdicts must not change (only the work grows).
        let src = "group g
             field f in g
             proc p(t) modifies t.g
             impl p(t) { assume t != null ; t.f := 1 ; assert t.f = 1 }";
        let program = parse_program(src).unwrap();
        let plain = Checker::new(&program, CheckOptions::default())
            .unwrap()
            .check_all();
        let leveled = Checker::new(
            &program,
            CheckOptions {
                force_arrays_level: true,
                ..CheckOptions::default()
            },
        )
        .unwrap()
        .check_all();
        assert!(plain.all_verified());
        assert!(leveled.all_verified(), "{leveled}");
    }

    #[test]
    fn vcs_share_one_background() {
        let program = parse_program(
            "group g field f in g
             proc p(t) modifies t.g
             impl p(t) { t.f := 1 }
             impl p(t) { assume t != null ; t.f := 2 }",
        )
        .unwrap();
        let checker = Checker::new(&program, CheckOptions::default()).unwrap();
        let ids: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
        let first = checker.vc(ids[0]).unwrap();
        let again = checker.vc(ids[0]).unwrap();
        let second = checker.vc(ids[1]).unwrap();
        let background = |vc: &Vc| vc.hypotheses[..vc.background_hyps].to_vec();
        assert_eq!(first.hypotheses, again.hypotheses);
        assert_eq!(first.goal, again.goal);
        assert_eq!(background(&first), background(&second));
        let policies: Vec<Formula> = checker
            .background_policies()
            .into_iter()
            .map(|(_, f, _)| f)
            .collect();
        assert_eq!(background(&first), policies);
        assert_eq!(checker.background_names().len(), first.background_hyps);
        assert_eq!(checker.background_phases().len(), first.background_hyps);
    }

    #[test]
    fn ill_formed_program_is_an_error() {
        assert!(Checker::new(
            &parse_program("impl nope() { skip }").unwrap(),
            CheckOptions::default()
        )
        .is_err());
    }
}
