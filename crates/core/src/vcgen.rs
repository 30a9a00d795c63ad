//! Verification-condition generation: the per-implementation VC of
//! formula (1):
//!
//! ```text
//! UBP ∧ BP_D ∧ Init(m) ⇒ wlp_{w,$0}(C, true)
//! ```
//!
//! The goal is built by one forward pass over the desugared body (see
//! DESIGN.md, "VC generation"). The pass carries a [`State`]: the term the
//! store `$` and each assigned local hold at the current point. An
//! assignment, heap write, allocation, or call's post store updates that
//! state in O(1); each obligation is translated once, under the state at
//! its program point, and appended to the innermost open frame (an
//! assumption, a quantifier, or a choice's join). Nothing substitutes into
//! the goal built so far. At a choice both arms start from the same state;
//! every local (and `$`) the arms leave different gets a fresh join
//! variable, defined by one equation per arm, and the continuation is
//! generated once under the disjunction of the arms' exit conditions — the
//! shared continuation of Flanagan & Saxe's passive form.
//!
//! On bodies without a choice followed by more work, the result equals
//! the paper's substitution-based `wlp` (Figures 2 and 3), which survives
//! only as the test-time oracle in `vcgen::oracle`, up to the names of bound
//! variables and label ids, with the same conjunct order.

use crate::effects::{ModEntry, ModList};
use crate::translate::{tr_formula, tr_value, State};
use oolong_logic::transform::FreshGen;
use oolong_logic::{
    Atom, Formula, Pattern, PatternPolicy, Phase, Symbol, Term, Trigger, JOIN_LABEL, STORE,
};
use oolong_sema::{ImplId, Scope};
use oolong_syntax::{Cmd, Diagnostic, Expr, Span};
use std::fmt;

#[cfg(any(test, feature = "oracle"))]
pub mod oracle;

/// The kind of proof obligation a position label marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObligationKind {
    /// A `mod(X·A, w, $0)` license for a field/slot write, or a caller's
    /// license covering a callee's modifies entry.
    ModifiesViolation,
    /// An `ownExcl` clause for an argument at a call site.
    OwnerExclusion,
    /// An `assert E` command's condition.
    Assert,
    /// The syntactic pivot-uniqueness restriction (checked outside the
    /// prover; never appears on a VC label, but shares the vocabulary).
    PivotUniqueness,
    /// A declared object invariant may not hold at a procedure exit or a
    /// call boundary.
    InvariantPreserved,
    /// A heap read not licensed by the procedure's declared `reads` frame,
    /// or a caller's read frame failing to cover a callee's reads entry.
    ReadsViolation,
}

impl ObligationKind {
    /// Every kind, in a fixed order (used for stable per-kind tallies).
    pub const ALL: [ObligationKind; 6] = [
        ObligationKind::ModifiesViolation,
        ObligationKind::OwnerExclusion,
        ObligationKind::Assert,
        ObligationKind::PivotUniqueness,
        ObligationKind::InvariantPreserved,
        ObligationKind::ReadsViolation,
    ];

    /// Stable machine-readable name (used in JSON output and caches).
    pub fn as_str(self) -> &'static str {
        match self {
            ObligationKind::ModifiesViolation => "modifies-violation",
            ObligationKind::OwnerExclusion => "owner-exclusion",
            ObligationKind::Assert => "assert",
            ObligationKind::PivotUniqueness => "pivot-uniqueness",
            ObligationKind::InvariantPreserved => "invariant-preserved",
            ObligationKind::ReadsViolation => "reads-violation",
        }
    }

    /// Inverse of [`ObligationKind::as_str`].
    pub fn parse(s: &str) -> Option<ObligationKind> {
        match s {
            "modifies-violation" => Some(ObligationKind::ModifiesViolation),
            "owner-exclusion" => Some(ObligationKind::OwnerExclusion),
            "assert" => Some(ObligationKind::Assert),
            "pivot-uniqueness" => Some(ObligationKind::PivotUniqueness),
            "invariant-preserved" => Some(ObligationKind::InvariantPreserved),
            "reads-violation" => Some(ObligationKind::ReadsViolation),
            _ => None,
        }
    }
}

impl fmt::Display for ObligationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One position label (`lblpos`-style): the source command and obligation
/// kind a labelled VC conjunct stands for. The prover treats the label as
/// logically transparent but reports which labels land on a refuting
/// branch, letting diagnostics point back at the offending command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationLabel {
    /// The label id embedded in the formula ([`Formula::Labeled`]).
    pub id: u32,
    /// What kind of obligation the conjunct is.
    pub kind: ObligationKind,
    /// Source span of the offending command.
    pub span: Span,
    /// Human-readable description of the obligation.
    pub detail: String,
}

/// Options controlling VC generation.
#[derive(Debug, Clone)]
pub struct VcOptions {
    /// Emit `≠ null` well-definedness side conditions for dereferences.
    /// Default `false`, matching the paper (which elides them "for
    /// brevity" and whose examples require the elision — e.g. §3.0's `q`
    /// reads `v.cnt` for a `v` whose non-nullness is unknown).
    pub null_checks: bool,
    /// Apply the paper's alias-confinement machinery: owner-exclusion
    /// obligations at call sites, owner-exclusion assumptions on entry,
    /// and the background axioms (6) and (7). Setting this to `false`
    /// yields the *naive* checker used as the unsound baseline in
    /// experiments E2 and E3.
    pub restrictions: bool,
    /// Check at the arrays language level even if the scope itself uses no
    /// array features. Needed when a plain module will be linked together
    /// with arrays-level modules (see `DESIGN.md`, extensions).
    pub force_arrays_level: bool,
}

impl Default for VcOptions {
    fn default() -> Self {
        VcOptions {
            null_checks: false,
            restrictions: true,
            force_arrays_level: false,
        }
    }
}

/// A generated verification condition.
#[derive(Debug, Clone)]
pub struct Vc {
    /// Which implementation this VC belongs to (provenance for caching
    /// and event logs).
    pub impl_id: ImplId,
    /// Name of the implemented procedure.
    pub proc_name: String,
    /// `UBP ∧ BP_D ∧ Init(m)`, as separate hypotheses.
    pub hypotheses: Vec<Formula>,
    /// How many leading entries of `hypotheses` are scope-level background
    /// axioms (`UBP ∧ BP_D`, plus the closed-world axioms in naive mode);
    /// the rest are the per-implementation `Init(m)` facts. This is the
    /// "axiom set for its scope" component of a VC's content address.
    pub background_hyps: usize,
    /// `wlp_{w,$0}(C, true)`.
    pub goal: Formula,
    /// The position labels embedded in `goal`, indexed by label id.
    pub labels: Vec<ObligationLabel>,
    /// Choices whose (non-empty) continuation the goal shares between
    /// both arms instead of repeating it per arm. Zero exactly when the
    /// goal equals the paper's `wlp` up to bound names and label ids.
    pub shared_continuations: usize,
}

impl Vc {
    /// Looks up a label by its id.
    pub fn label(&self, id: u32) -> Option<&ObligationLabel> {
        self.labels.iter().find(|l| l.id == id)
    }

    /// Tally of labeled obligation conjuncts per kind, in the fixed
    /// [`ObligationKind::ALL`] order, zero-count kinds omitted.
    pub fn kind_counts(&self) -> Vec<(ObligationKind, u32)> {
        ObligationKind::ALL
            .iter()
            .filter_map(|&kind| {
                let n = self.labels.iter().filter(|l| l.kind == kind).count() as u32;
                (n > 0).then_some((kind, n))
            })
            .collect()
    }
}

impl Vc {
    /// Total formula size (hypotheses plus goal), for statistics. Labels
    /// are transparent to [`Formula::size`], so this matches the
    /// unlabelled VC.
    pub fn size(&self) -> usize {
        self.hypotheses.iter().map(Formula::size).sum::<usize>() + self.goal.size()
    }
}

/// The scope-level part shared by every VC of one scope: the named
/// background axioms (`UBP ∧ BP_D`, plus the closed-world additions in
/// naive mode) with their declared activation policies. Built once per
/// scope and [`VcOptions`]; [`crate::Checker`] keeps one.
#[derive(Debug, Clone)]
pub struct Background {
    axioms: Vec<(String, Formula, PatternPolicy)>,
    /// Whether the scope is checked at the *arrays* language level
    /// (declares `maps elem` clauses or uses index syntax): selects the
    /// extended axiom (4), the slot axioms, and the elementwise
    /// owner-exclusion clauses.
    arrays: bool,
    /// The fresh-name generator after building the axioms. Every VC
    /// continues from this state, so its names never clash with the
    /// axioms' binders and are the same whichever VC is generated first.
    fresh: FreshGen,
}

impl Background {
    /// Builds the background of `scope` under `options`.
    pub fn new(scope: &Scope, options: &VcOptions) -> Background {
        let arrays = options.force_arrays_level || scope_uses_arrays(scope);
        let mut fresh = FreshGen::new();
        let axioms = crate::background::named_background_policies(
            scope,
            options.restrictions,
            arrays,
            &mut fresh,
        );
        Background {
            axioms,
            arrays,
            fresh,
        }
    }

    /// The axioms with their stable names and declared policies, in
    /// hypothesis order.
    pub fn axioms(&self) -> &[(String, Formula, PatternPolicy)] {
        &self.axioms
    }

    /// The declared scheduling phase of every axiom, in hypothesis order.
    pub fn phases(&self) -> Vec<Phase> {
        self.axioms.iter().map(|(_, _, p)| p.phase).collect()
    }
}

/// Verification-condition generator for one scope.
#[derive(Debug)]
pub struct VcGen<'s> {
    scope: &'s Scope,
    background: &'s Background,
    options: VcOptions,
    fresh: FreshGen,
    /// Position labels allocated while generating the current VC's goal;
    /// drained into [`Vc::labels`] by [`VcGen::vc_for_impl`].
    labels: Vec<ObligationLabel>,
    /// The current implementation's declared read frame, when its
    /// procedure carries a `reads` clause: every heap `select` the body
    /// performs is licensed against it. `None` leaves reads unconstrained.
    reads: Option<ModList>,
}

/// The parts of a VC that do not depend on the body: hypotheses and the
/// implementation's modifies list.
struct Entry {
    proc_name: String,
    w: ModList,
    hypotheses: Vec<Formula>,
    background_hyps: usize,
}

/// What one primitive command contributes to the VC, translated in the
/// state before it.
struct Step {
    /// Conjuncts that must hold before the command, in order: read
    /// licenses, definedness conditions, then the command's own labelled
    /// obligations.
    checks: Vec<Formula>,
    /// How the command changes the state the continuation is read in.
    effect: Effect,
}

enum Effect {
    /// None (`assert`).
    Nothing,
    /// The continuation runs only where the formula holds (`assume`).
    Assume(Formula),
    /// Simultaneous assignment to locals and the store (named `$`).
    Assign(Vec<(Symbol, Term)>),
    /// A call (Figure 3): the continuation sits under
    /// `∀ args :: equalities ⇒ (obligations ∧ ∀ post :: frame ⇒ …)` and
    /// reads the store `post`.
    Call {
        args: Vec<Symbol>,
        equalities: Formula,
        obligations: Vec<Formula>,
        post: Symbol,
        frame: Formula,
    },
}

/// One open scope of the goal under construction: everything appended
/// after it was opened, continuation included, lands inside it.
struct Frame {
    guard: Guard,
    conjuncts: Vec<Formula>,
    /// Conjuncts the enclosing frame receives right after this frame's
    /// formula: a choice's second arm follows the shared continuation,
    /// the order in which `wlp`'s `wlp(C₀, Q) ∧ wlp(C₁, Q)` first meets
    /// each obligation.
    trailer: Vec<Formula>,
}

enum Guard {
    /// The outermost frame of the body or of a choice arm.
    Top,
    /// `A₁ ∧ … ∧ Aₙ ⇒ …`. Assumptions with nothing between them share
    /// one frame, so a run of `assume`s nests one level, not one per
    /// command; the prover's normal form is the same either way.
    Assume(Vec<Formula>),
    /// `∀ x₁ … xₙ :: …` (a `var` block, or a call's arguments or post
    /// store).
    Forall(Vec<Symbol>),
    /// The shared continuation of a choice:
    /// `∀ joins :: (exit₀ ∨ exit₁) ∧ A₁ ∧ … ⇒ …`. Vanishes when the
    /// continuation is empty; is just the continuation when the arms end
    /// in the same state under no assumption.
    Join {
        vars: Vec<Symbol>,
        guards: Vec<Formula>,
    },
}

impl Frame {
    fn new(guard: Guard) -> Frame {
        Frame {
            guard,
            conjuncts: Vec::new(),
            trailer: Vec::new(),
        }
    }

    /// The frame as one formula around its conjuncts, counting a join
    /// with a non-empty continuation in `shared`.
    fn close(self, shared: &mut usize) -> Formula {
        let body = Formula::and(self.conjuncts);
        match self.guard {
            Guard::Top => body,
            Guard::Assume(guards) => guard(Formula::and(guards), body),
            Guard::Forall(vars) => Formula::forall(vars, Vec::new(), body),
            Guard::Join { vars, guards } => {
                if body == Formula::True {
                    Formula::True
                } else {
                    *shared += 1;
                    Formula::forall(vars, Vec::new(), guard(Formula::and(guards), body))
                }
            }
        }
    }
}

/// `p ⇒ q`, folding an implication `q = (a ⇒ b)` into `p ∧ a ⇒ b`, so a
/// run of assumptions nests one level however it arose (the prover's
/// normal form of both shapes is the same).
fn guard(p: Formula, q: Formula) -> Formula {
    match q {
        Formula::Implies(a, b) => Formula::implies(Formula::and(vec![p, *a]), *b),
        q => Formula::implies(p, q),
    }
}

/// The forward pass's position: the open frames, innermost last, and the
/// term every local and the store hold here.
struct Pass {
    frames: Vec<Frame>,
    state: State,
    /// Joins closed so far with a non-empty continuation.
    shared: usize,
}

impl Pass {
    fn top(&mut self) -> &mut Frame {
        self.frames
            .last_mut()
            .expect("the top frame is never closed early")
    }

    fn push(&mut self, conjunct: Formula) {
        if conjunct != Formula::True {
            self.top().conjuncts.push(conjunct);
        }
    }

    fn open(&mut self, guard: Guard) {
        self.frames.push(Frame::new(guard));
    }

    fn assume(&mut self, guard: Formula) {
        let top = self.top();
        if top.conjuncts.is_empty() {
            if let Guard::Assume(guards) | Guard::Join { guards, .. } = &mut top.guard {
                guards.push(guard);
                return;
            }
        }
        self.open(Guard::Assume(vec![guard]));
    }

    fn apply(&mut self, step: Step) {
        for check in step.checks {
            self.push(check);
        }
        match step.effect {
            Effect::Nothing => {}
            Effect::Assume(guard) => self.assume(guard),
            Effect::Assign(pairs) => {
                for (name, value) in pairs {
                    self.state.assign(name, value);
                }
            }
            Effect::Call {
                args,
                equalities,
                obligations,
                post,
                frame,
            } => {
                self.open(Guard::Forall(args));
                self.open(Guard::Assume(vec![equalities]));
                for obligation in obligations {
                    self.push(obligation);
                }
                self.open(Guard::Forall(vec![post]));
                self.open(Guard::Assume(vec![frame]));
                self.state.store = Term::var(post);
            }
        }
    }
}

/// Folds frames, innermost last, into one formula (see [`Frame::close`]).
fn close_all(mut frames: Vec<Frame>, shared: &mut usize) -> Formula {
    let mut inner = frames.pop().expect("at least one frame");
    while let Some(mut outer) = frames.pop() {
        let trailer = std::mem::take(&mut inner.trailer);
        let formula = inner.close(shared);
        outer.conjuncts.extend(
            std::iter::once(formula)
                .chain(trailer)
                .filter(|f| *f != Formula::True),
        );
        inner = outer;
    }
    inner.close(shared)
}

/// The condition under which a choice arm, whose frames are `frames`,
/// reaches its end with the join equations `joins` holding: the arm's
/// assumptions, with its bound variables existentially closed.
fn exit_condition(frames: &[Frame], joins: Vec<Formula>) -> Formula {
    let mut exit = Formula::and(joins);
    for frame in frames.iter().rev() {
        exit = match &frame.guard {
            Guard::Top => exit,
            Guard::Assume(guards) => Formula::and(guards.iter().cloned().chain([exit]).collect()),
            Guard::Forall(vars) if exit != Formula::True => Formula::exists(vars.clone(), exit),
            Guard::Forall(_) => exit,
            Guard::Join { vars, guards } => {
                let inner = Formula::and(guards.iter().cloned().chain([exit]).collect());
                if inner == Formula::True {
                    inner
                } else {
                    Formula::exists(vars.clone(), inner)
                }
            }
        };
    }
    exit
}

impl<'s> VcGen<'s> {
    /// Creates a generator over `scope`, whose background `background`
    /// must have been built from the same scope and options.
    pub fn new(scope: &'s Scope, background: &'s Background, options: VcOptions) -> Self {
        VcGen {
            scope,
            background,
            options,
            fresh: background.fresh.clone(),
            labels: Vec::new(),
            reads: None,
        }
    }

    /// Wraps an obligation conjunct in a fresh position label and records
    /// the label's source metadata. Constant formulas pass through
    /// unlabelled (there is nothing to report about them).
    fn label(
        &mut self,
        kind: ObligationKind,
        span: Span,
        detail: impl Into<String>,
        f: Formula,
    ) -> Formula {
        // A statically-false obligation (e.g. `assert false`) still needs
        // a label to be blamed; represent it as an inert contradiction
        // *literal* — a bare `False` would dissolve during NNF conversion
        // before the prover could stamp the branch.
        let f = if matches!(f, Formula::False) {
            Formula::eq(Term::int(0), Term::int(1))
        } else {
            f
        };
        match Formula::labeled(self.labels.len() as u32, f) {
            Formula::Labeled(id, body) => {
                self.labels.push(ObligationLabel {
                    id,
                    kind,
                    span,
                    detail: detail.into(),
                });
                Formula::Labeled(id, body)
            }
            other => other,
        }
    }

    /// One declared invariant as a closed formula over `store`:
    ///
    /// ```text
    /// ∀o :: alive(store, o) ∧ o ≠ null ⇒ tr(E)[this := o]
    /// ```
    ///
    /// In hypothesis position the quantifier triggers on the aliveness
    /// atom; in goal position it is skolemized away, so no trigger is
    /// declared. Well-definedness side conditions of the body are elided,
    /// matching the paper's treatment of dereferences.
    fn invariant_clause(
        &mut self,
        expr: &Expr,
        store: &Term,
        hypothesis: bool,
    ) -> Result<Formula, Diagnostic> {
        let tr = tr_formula(expr, &State::at(*store))?;
        let o = self.fresh.fresh("invO");
        let body = tr.formula.subst(&[("this".into(), Term::var(o))]);
        let alive = Atom::Alive(*store, Term::var(o));
        let triggers = if hypothesis {
            vec![Trigger(vec![Pattern::Atom(alive)])]
        } else {
            Vec::new()
        };
        Ok(Formula::forall(
            vec![o],
            triggers,
            Formula::implies(
                Formula::and(vec![
                    Formula::Atom(alive),
                    Formula::neq(Term::var(o), Term::null()),
                ]),
                body,
            ),
        ))
    }

    /// Read-frame licenses for every heap `select` the expressions
    /// perform in `state`, against the current implementation's declared
    /// `reads` frame. Empty when the procedure declares no frame.
    fn read_licenses(&mut self, exprs: &[&Expr], state: &State) -> Vec<Formula> {
        let Some(reads) = self.reads.clone() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for expr in exprs {
            for read in crate::translate::heap_reads(expr, state) {
                out.push(self.label(
                    ObligationKind::ReadsViolation,
                    read.span,
                    format!("read of `{}` not covered by reads clause", read.desc),
                    reads.modifiable(&read.obj, &read.attr, &Term::store0()),
                ));
            }
        }
        out
    }

    fn defined(&self, conditions: Vec<Formula>) -> impl Iterator<Item = Formula> {
        let keep = self.options.null_checks;
        conditions.into_iter().filter(move |_| keep)
    }

    /// Hypotheses and modifies list of one implementation: the scope
    /// background, then `Init(m)`.
    fn entry(&mut self, impl_id: ImplId) -> Result<Entry, Diagnostic> {
        let info = self.scope.impl_info(impl_id);
        let proc = self.scope.proc_info(info.proc);
        let params: Vec<Term> = proc.params.iter().map(Term::var).collect();
        let w = ModList::new(self.scope, &proc.modifies, &params);
        self.reads = proc
            .reads
            .as_ref()
            .map(|r| ModList::new(self.scope, r, &params));
        self.fresh = self.background.fresh.clone();
        self.labels.clear();

        let mut hypotheses: Vec<Formula> = self
            .background
            .axioms
            .iter()
            .map(|(_, f, _)| f.clone())
            .collect();
        let background_hyps = hypotheses.len();
        // Init(m): $ = $0, plus ownExcl and alive for each formal (5).
        hypotheses.push(Formula::eq(Term::store(), Term::store0()));
        // Fieldwise reflexivity, pre-derived: every modifies entry's own
        // location includes itself (axiom (4) local case + reflexive ⊒).
        // Saves one matching generation on every license obligation.
        for entry in w.entries() {
            let (obj, attr) = entry.location(&Term::store0());
            hypotheses.push(Formula::Atom(Atom::Inc {
                store: Term::store0(),
                obj,
                attr,
                obj2: obj,
                attr2: attr,
            }));
        }
        for p in &params {
            if self.options.restrictions {
                hypotheses.push(w.own_excl_leveled(
                    p,
                    &Term::store0(),
                    self.background.arrays,
                    &mut self.fresh,
                ));
            }
            hypotheses.push(Formula::Atom(Atom::Alive(Term::store0(), *p)));
        }
        // Declared object invariants hold on entry: assumed at $0 for every
        // alive object, triggered by the aliveness atom.
        let scope = self.scope;
        for inv in scope.invariants() {
            let clause = self.invariant_clause(&inv.expr, &Term::store0(), true)?;
            hypotheses.push(clause);
        }
        Ok(Entry {
            proc_name: proc.name.clone(),
            w,
            hypotheses,
            background_hyps,
        })
    }

    /// The exit obligations in final store `store`: every invariant holds
    /// again.
    fn exit_obligations(&mut self, store: &Term) -> Result<Vec<Formula>, Diagnostic> {
        let scope = self.scope;
        let mut post = Vec::new();
        for inv in scope.invariants() {
            let clause = self.invariant_clause(&inv.expr, store, false)?;
            post.push(self.label(
                ObligationKind::InvariantPreserved,
                inv.span,
                "object invariant may not be preserved at procedure exit",
                clause,
            ));
        }
        Ok(post)
    }

    /// Generates the verification condition for one implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] if the body uses an expression form the
    /// translation does not support (a boolean operator in value
    /// position).
    pub fn vc_for_impl(&mut self, impl_id: ImplId) -> Result<Vc, Diagnostic> {
        let entry = self.entry(impl_id)?;
        let body = self.scope.impl_info(impl_id).body.desugared();
        let mut pass = Pass {
            frames: vec![Frame::new(Guard::Top)],
            state: State::initial(),
            shared: 0,
        };
        self.forward(&body, &mut pass, &entry.w)?;
        let store = pass.state.store;
        for obligation in self.exit_obligations(&store)? {
            pass.push(obligation);
        }
        Ok(Vc {
            impl_id,
            proc_name: entry.proc_name,
            hypotheses: entry.hypotheses,
            background_hyps: entry.background_hyps,
            goal: close_all(pass.frames, &mut pass.shared),
            labels: std::mem::take(&mut self.labels),
            shared_continuations: pass.shared,
        })
    }

    /// The forward pass over a desugared command: appends its obligations
    /// to `pass` and leaves `pass` at the command's end. Recursion follows
    /// block and choice nesting; a sequence is a loop.
    fn forward(&mut self, cmd: &Cmd, pass: &mut Pass, w: &ModList) -> Result<(), Diagnostic> {
        match cmd {
            Cmd::Seq(cmds) => {
                for c in cmds {
                    self.forward(c, pass, w)?;
                }
            }
            Cmd::Var(x, body, _) => {
                let name = Symbol::intern(&x.text);
                pass.open(Guard::Forall(vec![name]));
                let outer = pass.state.unbind(name);
                self.forward(body, pass, w)?;
                pass.state.rebind(name, outer);
            }
            Cmd::Choice(a, b) => self.choice(a, b, pass, w)?,
            primitive => {
                let step = self.step(primitive, &pass.state, w)?;
                pass.apply(step);
            }
        }
        Ok(())
    }

    /// `C₀ [] C₁`: both arms start from the same state and their
    /// obligations are appended once each. Every local (and `$`) they
    /// leave different gets a fresh join variable, defined on each arm's
    /// exit by one equation, and the continuation is generated once,
    /// under `exit₀ ∨ exit₁`. The disjunction carries [`JOIN_LABEL`], so
    /// the prover splits it only once none of the goal's own clauses is
    /// open.
    fn choice(&mut self, a: &Cmd, b: &Cmd, pass: &mut Pass, w: &ModList) -> Result<(), Diagnostic> {
        let start = pass.state.clone();
        let base = pass.frames.len();
        let mut run_arm = |arm: &Cmd, pass: &mut Pass| {
            pass.state = start.clone();
            pass.open(Guard::Top);
            self.forward(arm, pass, w)?;
            Ok::<_, Diagnostic>((pass.frames.split_off(base), pass.state.clone()))
        };
        let arms = [run_arm(a, pass)?, run_arm(b, pass)?];
        let [(frames0, end0), (frames1, end1)] = &arms;

        let mut joined = end0.clone();
        let (mut vars, mut eqs0, mut eqs1) = (Vec::new(), Vec::new(), Vec::new());
        let store = (Symbol::intern(STORE), end0.store, end1.store);
        let locals = end0
            .assigned_locals(end1)
            .into_iter()
            .map(|name| (name, end0.local(name), end1.local(name)));
        for (name, v0, v1) in std::iter::once(store).chain(locals) {
            if v0 != v1 {
                let join = self.fresh.fresh(&format!("join_{name}"));
                vars.push(join);
                eqs0.push(Formula::eq(Term::var(join), v0));
                eqs1.push(Formula::eq(Term::var(join), v1));
                joined.assign(name, Term::var(join));
            }
        }
        let exits = Formula::or(vec![
            exit_condition(frames0, eqs0),
            exit_condition(frames1, eqs1),
        ]);

        let [first, second] = arms.map(|(frames, _)| close_all(frames, &mut pass.shared));
        pass.push(first);
        pass.state = joined;
        pass.open(Guard::Join {
            vars,
            guards: vec![Formula::labeled(JOIN_LABEL, exits)],
        });
        pass.top().trailer.push(second);
        Ok(())
    }

    /// The contribution of one primitive command (not a sequence, block,
    /// or choice), translated in `state`: Figure 2's rules, with
    /// Figure 3's for calls.
    fn step(&mut self, cmd: &Cmd, state: &State, w: &ModList) -> Result<Step, Diagnostic> {
        match cmd {
            Cmd::Assert(e, span) => {
                let tr = tr_formula(e, state)?;
                let mut checks = self.read_licenses(&[e], state);
                checks.extend(self.defined(tr.defined));
                checks.push(self.label(
                    ObligationKind::Assert,
                    *span,
                    "assert condition may not hold",
                    tr.formula,
                ));
                Ok(Step {
                    checks,
                    effect: Effect::Nothing,
                })
            }
            Cmd::Assume(e, _) => {
                let tr = tr_formula(e, state)?;
                let mut checks = self.read_licenses(&[e], state);
                checks.extend(self.defined(tr.defined));
                Ok(Step {
                    checks,
                    effect: Effect::Assume(tr.formula),
                })
            }
            Cmd::Assign { lhs, rhs, span } => self.assign(lhs, rhs, state, w, *span),
            Cmd::AssignNew { lhs, span } => self.assign_new(lhs, state, w, *span),
            Cmd::Call { proc, args, span } => self.call(proc, args, state, w, *span),
            Cmd::Seq(_) | Cmd::Var(..) | Cmd::Choice(..) | Cmd::Skip(_) | Cmd::If { .. } => {
                unreachable!("step is applied to desugared primitive commands only")
            }
        }
    }

    fn assign(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        state: &State,
        w: &ModList,
        span: Span,
    ) -> Result<Step, Diagnostic> {
        let r = tr_value(rhs, state)?;
        match lhs {
            // x := E  —  Q[x := tr(E)].
            Expr::Id(x) => {
                let mut checks = self.read_licenses(&[rhs], state);
                checks.extend(self.defined(r.defined));
                Ok(Step {
                    checks,
                    effect: Effect::Assign(vec![(Symbol::intern(&x.text), r.term)]),
                })
            }
            // E0.f := E1 — mod(tr(E0)·f, w, $0) ∧ Q[$ := $(tr(E0)·f := tr(E1))].
            Expr::Select { base, attr, .. } => {
                let b = tr_value(base, state)?;
                let attr_term = Term::attr(attr.text.clone());
                let mut checks = self.read_licenses(&[base, rhs], state);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    format!(
                        "write to field `{}` not covered by modifies list",
                        attr.text
                    ),
                    w.modifiable(&b.term, &attr_term, &Term::store0()),
                );
                let updated = Term::update(state.store, b.term, attr_term, r.term);
                let mut defined: Vec<Formula> = b.defined.into_iter().chain(r.defined).collect();
                defined.push(Formula::neq(b.term, Term::null()));
                checks.extend(self.defined(defined));
                checks.push(license);
                Ok(Step {
                    checks,
                    effect: Effect::Assign(vec![(Symbol::intern(STORE), updated)]),
                })
            }
            // E0[I] := E1 — the slot analogue: mod(tr(E0)·tr(I), w, $0).
            Expr::Index { base, index, .. } => {
                let b = tr_value(base, state)?;
                let idx = tr_value(index, state)?;
                let mut checks = self.read_licenses(&[base, index, rhs], state);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    "slot write not covered by modifies list",
                    w.modifiable(&b.term, &idx.term, &Term::store0()),
                );
                let updated = Term::update(state.store, b.term, idx.term, r.term);
                let mut defined: Vec<Formula> = b
                    .defined
                    .into_iter()
                    .chain(idx.defined)
                    .chain(r.defined)
                    .collect();
                defined.push(Formula::neq(b.term, Term::null()));
                checks.extend(self.defined(defined));
                checks.push(license);
                Ok(Step {
                    checks,
                    effect: Effect::Assign(vec![(Symbol::intern(STORE), updated)]),
                })
            }
            other => Err(Diagnostic::error(
                "assignment target must be a variable or designator",
                other.span(),
            ))
            .map_err(|d: Diagnostic| d.with_note("while generating wlp", span)),
        }
    }

    fn assign_new(
        &mut self,
        lhs: &Expr,
        state: &State,
        w: &ModList,
        span: Span,
    ) -> Result<Step, Diagnostic> {
        let store = state.store;
        match lhs {
            // x := new()  —  Q[x := new($), $ := $⁺] (parallel).
            Expr::Id(x) => Ok(Step {
                checks: Vec::new(),
                effect: Effect::Assign(vec![
                    (Symbol::intern(&x.text), Term::new_obj(store)),
                    (Symbol::intern(STORE), Term::succ(store)),
                ]),
            }),
            // E.f := new() — mod(tr(E)·f, w, $0) ∧ Q[$ := $⁺(tr(E)·f := new($))].
            Expr::Select { base, attr, .. } => {
                let b = tr_value(base, state)?;
                let attr_term = Term::attr(attr.text.clone());
                let mut checks = self.read_licenses(&[base], state);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    format!(
                        "allocation into field `{}` not covered by modifies list",
                        attr.text
                    ),
                    w.modifiable(&b.term, &attr_term, &Term::store0()),
                );
                let updated =
                    Term::update(Term::succ(store), b.term, attr_term, Term::new_obj(store));
                let mut defined = b.defined;
                defined.push(Formula::neq(b.term, Term::null()));
                checks.extend(self.defined(defined));
                checks.push(license);
                Ok(Step {
                    checks,
                    effect: Effect::Assign(vec![(Symbol::intern(STORE), updated)]),
                })
            }
            // E[I] := new() — the slot analogue.
            Expr::Index { base, index, .. } => {
                let b = tr_value(base, state)?;
                let idx = tr_value(index, state)?;
                let mut checks = self.read_licenses(&[base, index], state);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    "allocation into slot not covered by modifies list",
                    w.modifiable(&b.term, &idx.term, &Term::store0()),
                );
                let updated =
                    Term::update(Term::succ(store), b.term, idx.term, Term::new_obj(store));
                let mut defined: Vec<Formula> = b.defined.into_iter().chain(idx.defined).collect();
                defined.push(Formula::neq(b.term, Term::null()));
                checks.extend(self.defined(defined));
                checks.push(license);
                Ok(Step {
                    checks,
                    effect: Effect::Assign(vec![(Symbol::intern(STORE), updated)]),
                })
            }
            other => Err(Diagnostic::error(
                "allocation target must be a variable or designator",
                other.span(),
            ))
            .map_err(|d: Diagnostic| d.with_note("while generating wlp", span)),
        }
    }

    /// The method-call rule (Figure 3).
    fn call(
        &mut self,
        proc: &oolong_syntax::Ident,
        args: &[Expr],
        state: &State,
        w: &ModList,
        span: Span,
    ) -> Result<Step, Diagnostic> {
        let Some(callee_id) = self.scope.proc(&proc.text) else {
            return Err(Diagnostic::error(
                format!("call to undeclared procedure `{}`", proc.text),
                span,
            ));
        };
        let store = state.store;
        let callee = self.scope.proc_info(callee_id).clone();
        // Caller's read frame licenses the evaluation of the actuals.
        let mut checks = self.read_licenses(&args.iter().collect::<Vec<_>>(), state);

        // Fresh sᵢ bound to the actuals.
        let si: Vec<Symbol> = callee
            .params
            .iter()
            .map(|p| self.fresh.fresh(&format!("s_{p}")))
            .collect();
        let si_terms: Vec<Term> = si.iter().copied().map(Term::var).collect();
        let mut equalities = Vec::new();
        let mut defined = Vec::new();
        for (s, arg) in si_terms.iter().zip(args.iter()) {
            let a = tr_value(arg, state)?;
            defined.extend(a.defined);
            equalities.push(Formula::eq(*s, a.term));
        }
        checks.extend(self.defined(defined));
        // ws: the callee's modifies list with formals replaced by sᵢ.
        let ws = ModList::new(self.scope, &callee.modifies, &si_terms);

        // Caller's license covers every callee target (evaluated in the
        // current store, against w evaluated in $0).
        let mut obligations = Vec::new();
        for (target, entry) in callee.modifies.iter().zip(ws.entries()) {
            let (obj, attr) = entry.location(&store);
            let license = self.label(
                ObligationKind::ModifiesViolation,
                span,
                format!(
                    "call to `{}` requires license for its modifies entry `{}`",
                    proc.text,
                    entry_desc(&callee.params, target, entry),
                ),
                w.modifiable(&obj, &attr, &Term::store0()),
            );
            obligations.push(license);
        }
        // Caller's read frame covers every *declared* callee reads entry.
        // A callee without a `reads` clause is unconstrained and imposes
        // nothing here (see DESIGN.md: declaring a frame on the caller
        // only pays off once its callees declare theirs).
        if let (Some(reads), Some(callee_reads)) = (self.reads.clone(), callee.reads.as_ref()) {
            let rs = ModList::new(self.scope, callee_reads, &si_terms);
            for (target, entry) in callee_reads.iter().zip(rs.entries()) {
                let (obj, attr) = entry.location(&store);
                let license = self.label(
                    ObligationKind::ReadsViolation,
                    span,
                    format!(
                        "call to `{}` requires read license for its reads entry `{}`",
                        proc.text,
                        entry_desc(&callee.params, target, entry),
                    ),
                    reads.modifiable(&obj, &attr, &Term::store0()),
                );
                obligations.push(license);
            }
        }
        // Every declared invariant holds when control transfers to the
        // callee (the callee assumes it on entry, as this VC did at $0).
        let scope = self.scope;
        for inv in scope.invariants() {
            let clause = self.invariant_clause(&inv.expr, &store, false)?;
            obligations.push(self.label(
                ObligationKind::InvariantPreserved,
                span,
                format!(
                    "call to `{}` may observe a broken object invariant",
                    proc.text
                ),
                clause,
            ));
        }
        // Owner exclusion for every parameter value.
        if self.options.restrictions {
            for (i, s) in si_terms.iter().enumerate() {
                let own_excl =
                    ws.own_excl_leveled(s, &store, self.background.arrays, &mut self.fresh);
                obligations.push(self.label(
                    ObligationKind::OwnerExclusion,
                    span,
                    format!(
                        "argument `{}` of call to `{}` may be an owned pivot value",
                        callee.params.get(i).map(String::as_str).unwrap_or("?"),
                        proc.text,
                    ),
                    own_excl,
                ));
            }
        }

        // Frame: alive-monotone ∧ per-location change license ∧ the
        // callee's preserved invariants, over the post store.
        let post_store = self.fresh.fresh("post");
        let post = Term::var(post_store);
        let xv = self.fresh.fresh("frX");
        let alive_pre = Atom::Alive(store, Term::var(xv));
        let alive_post = Atom::Alive(post, Term::var(xv));
        let alive_mono = Formula::forall(
            vec![xv],
            vec![
                Trigger(vec![Pattern::Atom(alive_pre)]),
                Trigger(vec![Pattern::Atom(alive_post)]),
            ],
            Formula::implies(Formula::Atom(alive_pre), Formula::Atom(alive_post)),
        );
        let xv2 = self.fresh.fresh("frX");
        let fv = self.fresh.fresh("frF");
        let pre_read = Term::select(store, Term::var(xv2), Term::var(fv));
        let post_read = Term::select(post, Term::var(xv2), Term::var(fv));
        let change_licensed = Formula::forall(
            vec![xv2, fv],
            vec![
                Trigger(vec![Pattern::Term(pre_read)]),
                Trigger(vec![Pattern::Term(post_read)]),
            ],
            Formula::or(vec![
                Formula::eq(pre_read, post_read),
                ws.modifiable(&Term::var(xv2), &Term::var(fv), &store),
            ]),
        );
        // The callee preserved every declared invariant: assume them in the
        // post store (mirroring the exit obligation its own VC carries).
        let mut frame = vec![alive_mono, change_licensed];
        for inv in scope.invariants() {
            frame.push(self.invariant_clause(&inv.expr, &post, true)?);
        }
        Ok(Step {
            checks,
            effect: Effect::Call {
                args: si,
                equalities: Formula::and(equalities),
                obligations,
                post: post_store,
                frame: Formula::and(frame),
            },
        })
    }
}

/// Renders a callee's modifies entry as written (`param.path`), for label
/// details at call sites.
fn entry_desc(params: &[String], target: &oolong_sema::ModTarget, entry: &ModEntry) -> String {
    let root = params.get(target.param).map(String::as_str).unwrap_or("?");
    format!("{root}.{}", entry.path.join("."))
}

/// Whether the scope opts into the arrays language level: it declares an
/// elementwise rep inclusion or some implementation uses index syntax.
fn scope_uses_arrays(scope: &Scope) -> bool {
    if !scope.rep_elem_triples().is_empty() {
        return true;
    }
    scope.impls().any(|(_, info)| {
        let mut found = false;
        info.body.walk(&mut |c| {
            let mut check = |e: &oolong_syntax::Expr| {
                e.walk(&mut |sub| {
                    if matches!(sub, oolong_syntax::Expr::Index { .. }) {
                        found = true;
                    }
                })
            };
            match c {
                Cmd::Assert(e, _) | Cmd::Assume(e, _) => check(e),
                Cmd::Assign { lhs, rhs, .. } => {
                    check(lhs);
                    check(rhs);
                }
                Cmd::AssignNew { lhs, .. } => check(lhs),
                Cmd::Call { args, .. } => args.iter().for_each(&mut check),
                Cmd::If { cond, .. } => check(cond),
                _ => {}
            }
        });
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_prover::{prove, Budget, Outcome};
    use oolong_sema::Scope;
    use oolong_syntax::parse_program;

    fn check_src(src: &str, proc_name: &str) -> Outcome {
        check_src_with(src, proc_name, VcOptions::default(), &Budget::default())
    }

    fn check_src_with(src: &str, proc_name: &str, opts: VcOptions, budget: &Budget) -> Outcome {
        let program = parse_program(src).expect("parses");
        let scope = Scope::analyze(&program).expect("analyses");
        let background = Background::new(&scope, &opts);
        let mut gen = VcGen::new(&scope, &background, opts);
        let (impl_id, _) = scope
            .impls()
            .find(|(_, i)| scope.proc_info(i.proc).name == proc_name)
            .expect("impl exists");
        let vc = gen.vc_for_impl(impl_id).expect("vc generates");
        prove(&vc.hypotheses, &vc.goal, budget).outcome
    }

    #[test]
    fn trivial_impl_verifies() {
        assert_eq!(
            check_src("proc p(t) impl p(t) { skip }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn assert_true_verifies_and_assert_false_fails() {
        assert_eq!(
            check_src("proc p(t) impl p(t) { assert true }", "p"),
            Outcome::Proved
        );
        assert_eq!(
            check_src("proc p(t) impl p(t) { assert false }", "p"),
            Outcome::NotProved
        );
    }

    #[test]
    fn assume_false_blocks_everything() {
        assert_eq!(
            check_src("proc p(t) impl p(t) { assume false ; assert false }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn local_assignment_tracks_values() {
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in x := 3 ; assert x = 3 end }",
                "p"
            ),
            Outcome::Proved
        );
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in x := 3 ; assert x = 4 end }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn field_update_requires_license() {
        // p has no modifies list: writing t.f is rejected.
        assert_eq!(
            check_src("field f proc p(t) impl p(t) { t.f := 3 }", "p"),
            Outcome::NotProved
        );
        // With the license, it verifies.
        assert_eq!(
            check_src("field f proc p(t) modifies t.f impl p(t) { t.f := 3 }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn group_license_covers_member_field() {
        assert_eq!(
            check_src(
                "group g field f in g proc p(t) modifies t.g impl p(t) { t.f := 3 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn license_does_not_leak_to_other_objects() {
        // modifies t.f gives no license on u.f (u a different parameter).
        assert_eq!(
            check_src(
                "field f proc p(t, u) modifies t.f impl p(t, u) { u.f := 3 }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn fresh_objects_are_freely_modifiable() {
        assert_eq!(
            check_src(
                "field f proc p(t) impl p(t) { var x in x := new() ; x.f := 3 end }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn field_read_after_write() {
        assert_eq!(
            check_src(
                "field f proc p(t) modifies t.f
                 impl p(t) { t.f := 3 ; assert t.f = 3 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn choice_requires_both_arms() {
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in { x := 1 [] x := 2 } ; assert x = 1 end }",
                "p"
            ),
            Outcome::NotProved
        );
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in { x := 1 [] x := 1 } ; assert x = 1 end }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn if_sugar_flows_conditions() {
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) {
                   var x in
                     if t = null then x := 1 else x := 2 end ;
                     assert x = 1 || x = 2
                   end
                 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn call_requires_callers_license() {
        // callee modifies u.f; caller q has no license at all.
        assert_eq!(
            check_src(
                "field f proc callee(u) modifies u.f
                 proc q(t) impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::NotProved
        );
        // With a covering license it verifies.
        assert_eq!(
            check_src(
                "field f proc callee(u) modifies u.f
                 proc q(t) modifies t.f impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn call_frame_preserves_unrelated_fields() {
        // callee may change t.f but not t.other.
        assert_eq!(
            check_src(
                "field f field other proc callee(u) modifies u.f
                 proc q(t) modifies t.f
                 impl q(t) { var n in n := t.other ; callee(t) ; assert n = t.other end }",
                "q"
            ),
            Outcome::Proved
        );
        // The modified field itself is not preserved.
        assert_eq!(
            check_src(
                "field f proc callee(u) modifies u.f
                 proc q(t) modifies t.f
                 impl q(t) { var n in n := t.f ; callee(t) ; assert n = t.f end }",
                "q"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn null_checks_flag_rejects_unguarded_deref() {
        let src = "field f proc p(t) impl p(t) { var x in x := t.f end }";
        assert_eq!(
            check_src_with(
                src,
                "p",
                VcOptions {
                    null_checks: true,
                    ..VcOptions::default()
                },
                &Budget::default()
            ),
            Outcome::NotProved
        );
        // Guarded by an assumption, it verifies.
        let guarded = "field f proc p(t) impl p(t) { assume t != null ; var x in x := t.f end }";
        assert_eq!(
            check_src_with(
                guarded,
                "p",
                VcOptions {
                    null_checks: true,
                    ..VcOptions::default()
                },
                &Budget::default()
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn slot_write_requires_elem_license() {
        // Writing a slot of a fresh array is fine without any license.
        assert_eq!(
            check_src(
                "group g
                 field arr in g maps elem g into g
                 proc p(t)
                 impl p(t) { var a in a := new() ; a[0] := null end }",
                "p"
            ),
            Outcome::Proved
        );
        // Writing a slot of an elem-licensed array verifies.
        assert_eq!(
            check_src(
                "group g
                 field arr in g maps elem g into g
                 proc p(t) modifies t.g
                 impl p(t) { assume t != null && t.arr != null ; t.arr[0] := null }",
                "p"
            ),
            Outcome::Proved
        );
        // Without the license it is rejected.
        assert_ne!(
            check_src(
                "group g
                 field arr in g maps elem g into g
                 proc p(t)
                 impl p(t) { assume t != null && t.arr != null ; t.arr[0] := null }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn reads_clause_licenses_dereferences() {
        // Reading t.f with `reads t.g` (f in g) verifies.
        assert_eq!(
            check_src(
                "group g field f in g proc p(t) reads t.g
                 impl p(t) { var x in x := t.f end }",
                "p"
            ),
            Outcome::Proved
        );
        // Reflexive frame: reading exactly the declared field.
        assert_eq!(
            check_src(
                "field f proc p(t) reads t.f
                 impl p(t) { var x in x := t.f end }",
                "p"
            ),
            Outcome::Proved
        );
        // An undeclared read is rejected.
        assert_eq!(
            check_src(
                "field f field h proc p(t) reads t.f
                 impl p(t) { var x in x := t.h end }",
                "p"
            ),
            Outcome::NotProved
        );
        // No clause at all leaves reads unconstrained.
        assert_eq!(
            check_src("field f proc p(t) impl p(t) { var x in x := t.f end }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn reads_frame_does_not_leak_to_other_objects() {
        assert_eq!(
            check_src(
                "field f proc p(t, u) reads t.f
                 impl p(t, u) { var x in x := u.f end }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn call_requires_callers_read_license() {
        // callee reads u.f; caller's frame does not cover it.
        assert_eq!(
            check_src(
                "field f field h proc callee(u) reads u.f
                 proc q(t) reads t.h impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::NotProved
        );
        // A covering frame verifies.
        assert_eq!(
            check_src(
                "field f proc callee(u) reads u.f
                 proc q(t) reads t.f impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::Proved
        );
        // A caller without a reads clause is unconstrained.
        assert_eq!(
            check_src(
                "field f proc callee(u) reads u.f
                 proc q(t) impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn invariant_preserved_at_exit() {
        // Writing a value that re-establishes the invariant verifies.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc p(t) modifies t.g impl p(t) { t.f := 0 }",
                "p"
            ),
            Outcome::Proved
        );
        // Writing a violating value is rejected.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc p(t) modifies t.g impl p(t) { t.f := 1 }",
                "p"
            ),
            Outcome::NotProved
        );
        // A body that never touches invariant state preserves it.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc p(t) impl p(t) { skip }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn invariant_checked_at_call_boundary() {
        // The invariant is broken when control transfers to the callee.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc callee(u)
                 proc p(t) modifies t.g
                 impl p(t) { t.f := 1 ; callee(t) ; t.f := 0 }",
                "p"
            ),
            Outcome::NotProved
        );
        // Restoring it before the call verifies.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc callee(u)
                 proc p(t) modifies t.g
                 impl p(t) { t.f := 1 ; t.f := 0 ; callee(t) }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn invariant_assumed_after_call() {
        // After the call the invariant may be assumed again: the assert
        // cannot be discharged by the frame (t.g is modifiable) but
        // follows from the callee's preservation obligation.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc callee(u) modifies u.g
                 proc p(t) modifies t.g
                 impl p(t) { assume t != null ; callee(t) ; assert t.f = 0 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn vc_seeds_reflexive_inclusions() {
        let program = parse_program("group g proc p(t) modifies t.g impl p(t) { skip }").unwrap();
        let scope = Scope::analyze(&program).unwrap();
        let background = Background::new(&scope, &VcOptions::default());
        let mut gen = VcGen::new(&scope, &background, VcOptions::default());
        let (impl_id, _) = scope.impls().next().unwrap();
        let vc = gen.vc_for_impl(impl_id).unwrap();
        let reflexive = Formula::Atom(Atom::Inc {
            store: Term::store0(),
            obj: Term::var("t"),
            attr: Term::attr("g"),
            obj2: Term::var("t"),
            attr2: Term::attr("g"),
        });
        assert!(vc.hypotheses.contains(&reflexive));
    }

    #[test]
    fn vc_size_is_positive() {
        let program = parse_program("proc p(t) impl p(t) { skip }").unwrap();
        let scope = Scope::analyze(&program).unwrap();
        let background = Background::new(&scope, &VcOptions::default());
        let mut gen = VcGen::new(&scope, &background, VcOptions::default());
        let (impl_id, _) = scope.impls().next().unwrap();
        let vc = gen.vc_for_impl(impl_id).unwrap();
        assert!(vc.size() > 10);
        assert_eq!(vc.proc_name, "p");
    }

    /// The forward and oracle VCs of the (single) implementation in `src`.
    fn both_vcs(src: &str) -> (Vc, Vc) {
        let program = parse_program(src).expect("parses");
        let scope = Scope::analyze(&program).expect("analyses");
        let background = Background::new(&scope, &VcOptions::default());
        let (impl_id, _) = scope.impls().next().expect("one impl");
        let forward = VcGen::new(&scope, &background, VcOptions::default())
            .vc_for_impl(impl_id)
            .unwrap();
        let oracle = VcGen::new(&scope, &background, VcOptions::default())
            .oracle_vc_for_impl(impl_id)
            .unwrap();
        (forward, oracle)
    }

    #[test]
    fn choice_free_body_matches_the_oracle() {
        let (forward, oracle) = both_vcs(
            "group g field f in g invariant this.f = 0
             proc callee(u) modifies u.g
             proc p(t) modifies t.g
             impl p(t) {
               assume t != null ; assume t.f = 0 ;
               var x in x := t.f ; t.f := x + 1 ; x := new() ; callee(t) ;
                 assume x != null ; t.f := 0
               end
             }",
        );
        assert_eq!(forward.shared_continuations, 0);
        assert_eq!(forward.hypotheses, oracle.hypotheses);
        let renaming = oracle::alpha_equivalent(&forward.goal, &oracle.goal)
            .expect("forward goal is the oracle's up to renaming");
        assert_eq!(renaming.len(), forward.labels.len());
        // Labels number in program order: the exit obligation comes last.
        let last = forward.labels.last().unwrap();
        assert_eq!(last.kind, ObligationKind::InvariantPreserved);

        // A choice with nothing after it joins nothing.
        let (forward, oracle) = both_vcs(
            "group g field f in g proc p(t) modifies t.g
             impl p(t) { assume t != null ; { t.f := 1 [] assume t.f = 2 ; t.f := 3 } }",
        );
        assert_eq!(forward.shared_continuations, 0);
        assert!(oracle::alpha_equivalent(&forward.goal, &oracle.goal).is_some());
    }

    /// How many labelled subformulas `f` contains.
    fn labelled(f: &Formula) -> usize {
        match f {
            Formula::Labeled(_, body) => 1 + labelled(body),
            Formula::Not(p) => labelled(p),
            Formula::And(ps) | Formula::Or(ps) => ps.iter().map(labelled).sum(),
            Formula::Implies(p, q) | Formula::Iff(p, q) => labelled(p) + labelled(q),
            Formula::Forall(_, _, b) | Formula::Exists(_, _, b) => labelled(b),
            Formula::True | Formula::False | Formula::Atom(_) => 0,
        }
    }

    #[test]
    fn choice_with_continuation_shares_it() {
        let src = "proc p(t) impl p(t) {
                     var x in { x := 1 [] x := 2 } ; assert x > 0 ; assert x > 0 end
                   }";
        let (forward, oracle) = both_vcs(src);
        assert_eq!(forward.shared_continuations, 1);
        // The oracle repeats the two asserts once per arm; the forward
        // goal states them once, plus the join's exit disjunction.
        assert_eq!(labelled(&oracle.goal), 4);
        assert_eq!(labelled(&forward.goal), 3);
        assert_eq!(check_src(src, "p"), Outcome::Proved);
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) {
                   var x in { x := 1 [] x := 2 } ; assert x = 2 end
                 }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn join_keeps_arm_assumptions() {
        // Only the `then` arm assumes t != null; the continuation's assert
        // needs it on that path and gets x = 0 on the other.
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) {
                   var x in
                     if t = null then x := 0 else x := 1 end ;
                     assert x = 0 || t != null
                   end
                 }",
                "p"
            ),
            Outcome::Proved
        );
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) {
                   var x in
                     if t = null then x := 0 else x := 1 end ;
                     assert x = 0
                   end
                 }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn sequential_choices_grow_the_goal_linearly() {
        let source = |k: usize| {
            let mut body = String::from("assume t != null");
            for i in 0..k {
                body += &format!(" ; {{ t.f := {i} [] t.f := {} }}", i + 1);
            }
            format!("group g field f in g proc p(t) modifies t.g impl p(t) {{ {body} ; assert t.f > 0 }}")
        };
        let goal = |k| both_vcs(&source(k)).0.goal.size();
        let (g8, g16) = (goal(8), goal(16));
        assert!(
            g16 <= 2 * g8 + 8,
            "goal size {g8} at k = 8, {g16} at k = 16"
        );
    }
}
