//! The paper's substitution-based `wlp` (Figures 2 and 3), kept as the
//! fidelity oracle for the forward pass of [`VcGen`]. It is compiled only
//! for tests and under the crate's `oracle` feature; no production path
//! calls it.
//!
//! Each rule substitutes into the postcondition built so far, so this
//! generator is quadratic in heap writes and copies the continuation at
//! every choice. Both generators share the per-command translation
//! (`VcGen::step`), so they allocate the same obligations; only the way
//! the continuation is threaded differs.
//!
//! One reading note: Figure 2 writes the allocation rule as
//! `Q[x := new($)][$ := $⁺]`. Read literally as sequential substitution
//! this would rewrite the just-introduced `new($)` into `new($⁺)` —
//! allocating one object and assigning a different one. We read the
//! substitution pairs as *parallel* (`Q[x := new($), $ := $⁺]`), which
//! matches the operational semantics: `x` receives `new(S_pre)` and the
//! store advances to `S_pre⁺`. The field-allocation rule is treated
//! correspondingly: the final store is `$⁺(tr(E)·f := new($))`.

use super::{guard, Effect, ModList, State, Vc, VcGen};
use oolong_logic::{Formula, Pattern, Symbol, Term, TermNode, Trigger, STORE};
use oolong_sema::ImplId;
use oolong_syntax::{Cmd, Diagnostic};
use std::collections::HashMap;

impl VcGen<'_> {
    /// The VC of one implementation with its goal built by [`VcGen::wlp`]
    /// instead of the forward pass. Exit obligations allocate their labels
    /// first and the body's commands label in reverse order, as the
    /// backward recursion visits them.
    ///
    /// # Errors
    ///
    /// As [`VcGen::vc_for_impl`].
    pub fn oracle_vc_for_impl(&mut self, impl_id: ImplId) -> Result<Vc, Diagnostic> {
        let entry = self.entry(impl_id)?;
        let body = self.scope.impl_info(impl_id).body.desugared();
        let post = self.exit_obligations(&Term::store())?;
        let goal = self.wlp(&body, Formula::and(post), &entry.w)?;
        Ok(Vc {
            impl_id,
            proc_name: entry.proc_name,
            hypotheses: entry.hypotheses,
            background_hyps: entry.background_hyps,
            goal,
            labels: std::mem::take(&mut self.labels),
            shared_continuations: 0,
        })
    }

    /// The weakest liberal precondition `wlp_{w,$0}(cmd, q)` (Figure 2).
    ///
    /// # Errors
    ///
    /// As [`VcGen::vc_for_impl`].
    pub fn wlp(&mut self, cmd: &Cmd, q: Formula, w: &ModList) -> Result<Formula, Diagnostic> {
        match cmd {
            Cmd::Seq(cmds) => {
                let mut q = q;
                for c in cmds.iter().rev() {
                    q = self.wlp(c, q, w)?;
                }
                Ok(q)
            }
            Cmd::Var(x, body, _) => {
                let inner = self.wlp(body, q, w)?;
                Ok(Formula::forall(vec![x.text.as_str().into()], vec![], inner))
            }
            Cmd::Choice(c0, c1) => {
                let w0 = self.wlp(c0, q.clone(), w)?;
                let w1 = self.wlp(c1, q, w)?;
                Ok(Formula::and(vec![w0, w1]))
            }
            primitive => {
                let step = self.step(primitive, &State::initial(), w)?;
                let rest = match step.effect {
                    Effect::Nothing => q,
                    Effect::Assume(condition) => guard(condition, q),
                    Effect::Assign(pairs) => q.subst(&pairs),
                    // Frame: ∀$' :: alive-monotone ∧ per-location change
                    // license ⇒ Q[$ := $'].
                    Effect::Call {
                        args,
                        equalities,
                        obligations,
                        post,
                        frame,
                    } => {
                        let q_post = q.subst(&[(Symbol::intern(STORE), Term::var(post))]);
                        let framed = Formula::forall(vec![post], vec![], guard(frame, q_post));
                        Formula::forall(
                            args,
                            vec![],
                            guard(
                                equalities,
                                Formula::and(obligations.into_iter().chain([framed]).collect()),
                            ),
                        )
                    }
                };
                Ok(Formula::and(
                    step.checks.into_iter().chain([rest]).collect(),
                ))
            }
        }
    }
}

/// Whether `a` and `b` are equal up to a consistent renaming of bound
/// variables and of label ids. On success returns the label renaming
/// (ids of `a` to ids of `b`), so callers can compare the labels'
/// metadata.
pub fn alpha_equivalent(a: &Formula, b: &Formula) -> Option<HashMap<u32, u32>> {
    let mut eq = AlphaEq::default();
    eq.formula(a, b).then_some(eq.labels)
}

#[derive(Default)]
struct AlphaEq {
    /// Bound variables of `a` in scope, with their `b` counterparts.
    bound: Vec<(Symbol, Symbol)>,
    labels: HashMap<u32, u32>,
    labels_back: HashMap<u32, u32>,
}

impl AlphaEq {
    fn formula(&mut self, a: &Formula, b: &Formula) -> bool {
        match (a, b) {
            (Formula::True, Formula::True) | (Formula::False, Formula::False) => true,
            (Formula::Atom(x), Formula::Atom(y)) => {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                x.for_each_term(&mut |t| xs.push(*t));
                y.for_each_term(&mut |t| ys.push(*t));
                std::mem::discriminant(x) == std::mem::discriminant(y)
                    && xs.len() == ys.len()
                    && xs.iter().zip(&ys).all(|(s, t)| self.term(*s, *t))
            }
            (Formula::Not(x), Formula::Not(y)) => self.formula(x, y),
            (Formula::And(xs), Formula::And(ys)) | (Formula::Or(xs), Formula::Or(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| self.formula(x, y))
            }
            (Formula::Implies(x0, x1), Formula::Implies(y0, y1))
            | (Formula::Iff(x0, x1), Formula::Iff(y0, y1)) => {
                self.formula(x0, y0) && self.formula(x1, y1)
            }
            (Formula::Forall(xv, xt, xb), Formula::Forall(yv, yt, yb))
            | (Formula::Exists(xv, xt, xb), Formula::Exists(yv, yt, yb)) => {
                if xv.len() != yv.len() || xt.len() != yt.len() {
                    return false;
                }
                let depth = self.bound.len();
                self.bound
                    .extend(xv.iter().copied().zip(yv.iter().copied()));
                let same =
                    xt.iter().zip(yt).all(|(s, t)| self.trigger(s, t)) && self.formula(xb, yb);
                self.bound.truncate(depth);
                same
            }
            (Formula::Labeled(x, xb), Formula::Labeled(y, yb)) => {
                let forward = *self.labels.entry(*x).or_insert(*y) == *y;
                let backward = *self.labels_back.entry(*y).or_insert(*x) == *x;
                forward && backward && self.formula(xb, yb)
            }
            _ => false,
        }
    }

    fn trigger(&mut self, a: &Trigger, b: &Trigger) -> bool {
        a.0.len() == b.0.len()
            && a.0.iter().zip(&b.0).all(|pair| match pair {
                (Pattern::Term(s), Pattern::Term(t)) => self.term(*s, *t),
                (Pattern::Atom(x), Pattern::Atom(y)) => {
                    self.formula(&Formula::Atom(*x), &Formula::Atom(*y))
                }
                _ => false,
            })
    }

    fn term(&mut self, a: Term, b: Term) -> bool {
        match (a.node(), b.node()) {
            (TermNode::Var(x), TermNode::Var(y)) => {
                match self.bound.iter().rev().find(|(bx, by)| bx == x || by == y) {
                    Some((bx, by)) => bx == x && by == y,
                    None => x == y,
                }
            }
            (TermNode::Const(x), TermNode::Const(y)) => x == y,
            (TermNode::App(f, xs), TermNode::App(g, ys)) => {
                f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(s, t)| self.term(*s, *t))
            }
            _ => false,
        }
    }
}
