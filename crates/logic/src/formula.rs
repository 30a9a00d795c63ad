//! First-order formulas over the object-store term language.

use crate::intern::Symbol;
use crate::term::{SubstMemo, Term};
use std::fmt;

/// An atomic formula. Atoms hold only hash-consed [`Term`] handles, so
/// they are `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Atom {
    /// `t = u` — equality on values (also used for stores).
    Eq(Term, Term),
    /// `alive(S, X)` — object `X` has been allocated in store `S`.
    Alive(Term, Term),
    /// `A ⊒ B` — the reflexive-transitive local inclusion relation on
    /// attributes (from `in` clauses).
    LocalInc(Term, Term),
    /// `A →F B` — the rep inclusion relation: some declaration
    /// `field F maps B into A` exists in the eventual program.
    RepInc {
        group: Term,
        pivot: Term,
        mapped: Term,
    },
    /// `A ⇉F B` — the *elementwise* rep inclusion relation (array
    /// dependencies, the paper's §6 future work): some declaration
    /// `field F maps elem B into A` exists in the eventual program, making
    /// every integer slot of the array referenced by `F`, and attribute
    /// `B` of every element stored in those slots, part of `A`.
    RepIncElem {
        group: Term,
        pivot: Term,
        mapped: Term,
    },
    /// `S ⊨ X·A ≽ Y·B` — the main inclusion relation on locations.
    Inc {
        store: Term,
        obj: Term,
        attr: Term,
        obj2: Term,
        attr2: Term,
    },
    /// `t < u` on integers.
    Lt(Term, Term),
    /// `t ≤ u` on integers.
    Le(Term, Term),
    /// `isObj(t)` — `t` is an object reference (not `null`, an integer, or
    /// a boolean). Interpreted: constants evaluate it directly.
    IsObj(Term),
    /// `isInt(t)` — `t` is an integer (an array slot key). Interpreted:
    /// constants evaluate it directly.
    IsInt(Term),
    /// A term of boolean sort used as a proposition (e.g. a program
    /// expression of boolean type).
    BoolTerm(Term),
}

impl Atom {
    /// Simultaneously substitutes variables by terms in all arguments.
    #[must_use]
    pub fn subst(&self, map: &[(Symbol, Term)]) -> Atom {
        self.subst_memo(map, &mut SubstMemo::new())
    }

    pub(crate) fn subst_memo(&self, map: &[(Symbol, Term)], memo: &mut SubstMemo) -> Atom {
        let mut s = |t: &Term| t.subst_memo(map, memo);
        match self {
            Atom::Eq(a, b) => Atom::Eq(s(a), s(b)),
            Atom::Alive(st, x) => Atom::Alive(s(st), s(x)),
            Atom::LocalInc(a, b) => Atom::LocalInc(s(a), s(b)),
            Atom::RepInc {
                group,
                pivot,
                mapped,
            } => Atom::RepInc {
                group: s(group),
                pivot: s(pivot),
                mapped: s(mapped),
            },
            Atom::RepIncElem {
                group,
                pivot,
                mapped,
            } => Atom::RepIncElem {
                group: s(group),
                pivot: s(pivot),
                mapped: s(mapped),
            },
            Atom::Inc {
                store,
                obj,
                attr,
                obj2,
                attr2,
            } => Atom::Inc {
                store: s(store),
                obj: s(obj),
                attr: s(attr),
                obj2: s(obj2),
                attr2: s(attr2),
            },
            Atom::Lt(a, b) => Atom::Lt(s(a), s(b)),
            Atom::Le(a, b) => Atom::Le(s(a), s(b)),
            Atom::IsObj(t) => Atom::IsObj(s(t)),
            Atom::IsInt(t) => Atom::IsInt(s(t)),
            Atom::BoolTerm(t) => Atom::BoolTerm(s(t)),
        }
    }

    /// Collects free variables of all argument terms (deduplicated,
    /// first-occurrence order).
    pub fn free_vars(&self, out: &mut Vec<Symbol>) {
        self.for_each_term(&mut |t| t.free_vars(out));
    }

    /// Applies `f` to each argument term.
    pub fn for_each_term(&self, f: &mut impl FnMut(&Term)) {
        match self {
            Atom::Eq(a, b)
            | Atom::LocalInc(a, b)
            | Atom::Lt(a, b)
            | Atom::Le(a, b)
            | Atom::Alive(a, b) => {
                f(a);
                f(b);
            }
            Atom::RepInc {
                group,
                pivot,
                mapped,
            }
            | Atom::RepIncElem {
                group,
                pivot,
                mapped,
            } => {
                f(group);
                f(pivot);
                f(mapped);
            }
            Atom::Inc {
                store,
                obj,
                attr,
                obj2,
                attr2,
            } => {
                f(store);
                f(obj);
                f(attr);
                f(obj2);
                f(attr2);
            }
            Atom::BoolTerm(t) | Atom::IsObj(t) | Atom::IsInt(t) => f(t),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Eq(a, b) => write!(f, "{a} = {b}"),
            Atom::Alive(s, x) => write!(f, "alive({s}, {x})"),
            Atom::LocalInc(a, b) => write!(f, "{a} ⊒ {b}"),
            Atom::RepInc {
                group,
                pivot,
                mapped,
            } => write!(f, "{group} →{pivot} {mapped}"),
            Atom::RepIncElem {
                group,
                pivot,
                mapped,
            } => write!(f, "{group} ⇉{pivot} {mapped}"),
            Atom::Inc {
                store,
                obj,
                attr,
                obj2,
                attr2,
            } => {
                write!(f, "{store} ⊨ {obj}·{attr} ≽ {obj2}·{attr2}")
            }
            Atom::Lt(a, b) => write!(f, "{a} < {b}"),
            Atom::Le(a, b) => write!(f, "{a} ≤ {b}"),
            Atom::IsObj(t) => write!(f, "isObj({t})"),
            Atom::IsInt(t) => write!(f, "isInt({t})"),
            Atom::BoolTerm(t) => write!(f, "{t}"),
        }
    }
}

/// One pattern in a matching trigger: either a term shape or an atom shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Match a term in the E-graph.
    Term(Term),
    /// Match an asserted (or denied) atom.
    Atom(Atom),
}

impl Pattern {
    pub(crate) fn subst_memo(&self, map: &[(Symbol, Term)], memo: &mut SubstMemo) -> Pattern {
        match self {
            Pattern::Term(t) => Pattern::Term(t.subst_memo(map, memo)),
            Pattern::Atom(a) => Pattern::Atom(a.subst_memo(map, memo)),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Term(t) => write!(f, "{t}"),
            Pattern::Atom(a) => write!(f, "{a}"),
        }
    }
}

/// A multi-pattern trigger for quantifier instantiation: every pattern must
/// match (with a consistent assignment) for the quantifier to fire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Trigger(pub Vec<Pattern>);

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

fn subst_triggers(
    triggers: &[Trigger],
    map: &[(Symbol, Term)],
    memo: &mut SubstMemo,
) -> Vec<Trigger> {
    triggers
        .iter()
        .map(|t| Trigger(t.0.iter().map(|p| p.subst_memo(map, memo)).collect()))
        .collect()
}

/// The position label reserved for the exit disjunction of a choice whose
/// arms join before one shared continuation. It marks no obligation: the
/// prover never records it on a branch, and it defers splitting a
/// disjunction whose arms carry it while any of the goal's own clauses is
/// still open, so a branch that closes on an obligation never enumerates
/// the paths leading to it.
pub const JOIN_LABEL: u32 = u32::MAX;

/// A first-order formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// An atomic formula.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction (empty = true).
    And(Vec<Formula>),
    /// N-ary disjunction (empty = false).
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Bi-implication.
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification with optional matching triggers.
    Forall(Vec<Symbol>, Vec<Trigger>, Box<Formula>),
    /// Existential quantification. The triggers apply when the quantifier
    /// flips to a universal under negation (refutation of a `¬∃` branch).
    Exists(Vec<Symbol>, Vec<Trigger>, Box<Formula>),
    /// A position label (the `lblpos` marker of ESC-lineage checkers):
    /// logically transparent, but literals derived from the wrapped
    /// subformula carry the label id so a refuting prover branch can be
    /// traced back to the proof obligation it violates.
    Labeled(u32, Box<Formula>),
}

impl Formula {
    /// Builds `a = b`.
    pub fn eq(a: Term, b: Term) -> Formula {
        Formula::Atom(Atom::Eq(a, b))
    }

    /// Builds `a ≠ b`.
    pub fn neq(a: Term, b: Term) -> Formula {
        Formula::Not(Box::new(Formula::eq(a, b)))
    }

    /// Builds a conjunction, flattening nested `And`s and dropping `True`.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// Builds a disjunction, flattening nested `Or`s and dropping `False`.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Builds `p ⇒ q`, simplifying trivial cases.
    pub fn implies(p: Formula, q: Formula) -> Formula {
        match (&p, &q) {
            (Formula::True, _) => q,
            (Formula::False, _) => Formula::True,
            (_, Formula::True) => Formula::True,
            _ => Formula::Implies(Box::new(p), Box::new(q)),
        }
    }

    /// Builds `¬p`, collapsing double negation and constants.
    // An associated constructor, not an operator method.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Formula) -> Formula {
        match p {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Builds `∀ vars :: body` with explicit triggers (empty `vars` returns
    /// the body unchanged).
    pub fn forall(vars: Vec<Symbol>, triggers: Vec<Trigger>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Forall(vars, triggers, Box::new(body))
        }
    }

    /// Builds `∃ vars :: body` (empty `vars` returns the body unchanged).
    pub fn exists(vars: Vec<Symbol>, body: Formula) -> Formula {
        Formula::exists_with_triggers(vars, vec![], body)
    }

    /// Builds `∃ vars :: body` with triggers for the negated (universal)
    /// reading.
    pub fn exists_with_triggers(
        vars: Vec<Symbol>,
        triggers: Vec<Trigger>,
        body: Formula,
    ) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, triggers, Box::new(body))
        }
    }

    /// Wraps `body` in a position label. Constants are not worth labelling:
    /// they produce no literals for the prover to record.
    pub fn labeled(id: u32, body: Formula) -> Formula {
        match body {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            other => Formula::Labeled(id, Box::new(other)),
        }
    }

    /// Strips every position label, returning the logically identical
    /// unlabelled formula. The join marker [`JOIN_LABEL`] is kept: it
    /// names no obligation, and the prover's split order reads it.
    #[must_use]
    pub fn strip_labels(&self) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(*a),
            Formula::Not(p) => Formula::Not(Box::new(p.strip_labels())),
            Formula::And(ps) => Formula::And(ps.iter().map(Formula::strip_labels).collect()),
            Formula::Or(ps) => Formula::Or(ps.iter().map(Formula::strip_labels).collect()),
            Formula::Implies(p, q) => {
                Formula::Implies(Box::new(p.strip_labels()), Box::new(q.strip_labels()))
            }
            Formula::Iff(p, q) => {
                Formula::Iff(Box::new(p.strip_labels()), Box::new(q.strip_labels()))
            }
            Formula::Forall(vars, triggers, body) => Formula::Forall(
                vars.clone(),
                triggers.clone(),
                Box::new(body.strip_labels()),
            ),
            Formula::Exists(vars, triggers, body) => Formula::Exists(
                vars.clone(),
                triggers.clone(),
                Box::new(body.strip_labels()),
            ),
            Formula::Labeled(JOIN_LABEL, body) => {
                Formula::Labeled(JOIN_LABEL, Box::new(body.strip_labels()))
            }
            Formula::Labeled(_, body) => body.strip_labels(),
        }
    }

    /// Simultaneously substitutes variables by terms.
    ///
    /// Substitution does **not** rename binders; the workspace generates
    /// globally fresh bound-variable names, so capture cannot occur. The
    /// method enforces this with a debug assertion. Because binders are
    /// fresh, they almost never shadow the domain, so the common path
    /// reuses the map (and its memo) untouched instead of rebuilding a
    /// filtered copy at every quantifier.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a bound variable occurs in the free
    /// variables of an image (which would capture).
    #[must_use]
    pub fn subst(&self, map: &[(Symbol, Term)]) -> Formula {
        self.subst_memo(map, &mut SubstMemo::new())
    }

    fn subst_memo(&self, map: &[(Symbol, Term)], memo: &mut SubstMemo) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(a.subst_memo(map, memo)),
            Formula::Not(p) => Formula::Not(Box::new(p.subst_memo(map, memo))),
            Formula::And(ps) => Formula::And(ps.iter().map(|p| p.subst_memo(map, memo)).collect()),
            Formula::Or(ps) => Formula::Or(ps.iter().map(|p| p.subst_memo(map, memo)).collect()),
            Formula::Implies(p, q) => Formula::Implies(
                Box::new(p.subst_memo(map, memo)),
                Box::new(q.subst_memo(map, memo)),
            ),
            Formula::Iff(p, q) => Formula::Iff(
                Box::new(p.subst_memo(map, memo)),
                Box::new(q.subst_memo(map, memo)),
            ),
            Formula::Forall(vars, triggers, body) => {
                debug_assert!(no_capture(vars, map), "bound variable capture in subst");
                if vars.iter().any(|v| map.iter().any(|(d, _)| d == v)) {
                    // Shadowed: filter the domain and start a fresh memo
                    // for the narrowed map.
                    let inner: Vec<(Symbol, Term)> = map
                        .iter()
                        .filter(|(v, _)| !vars.contains(v))
                        .copied()
                        .collect();
                    let mut inner_memo = SubstMemo::new();
                    let triggers = subst_triggers(triggers, &inner, &mut inner_memo);
                    Formula::Forall(
                        vars.clone(),
                        triggers,
                        Box::new(body.subst_memo(&inner, &mut inner_memo)),
                    )
                } else {
                    let triggers = subst_triggers(triggers, map, memo);
                    Formula::Forall(vars.clone(), triggers, Box::new(body.subst_memo(map, memo)))
                }
            }
            Formula::Exists(vars, triggers, body) => {
                debug_assert!(no_capture(vars, map), "bound variable capture in subst");
                if vars.iter().any(|v| map.iter().any(|(d, _)| d == v)) {
                    let inner: Vec<(Symbol, Term)> = map
                        .iter()
                        .filter(|(v, _)| !vars.contains(v))
                        .copied()
                        .collect();
                    let mut inner_memo = SubstMemo::new();
                    let triggers = subst_triggers(triggers, &inner, &mut inner_memo);
                    Formula::Exists(
                        vars.clone(),
                        triggers,
                        Box::new(body.subst_memo(&inner, &mut inner_memo)),
                    )
                } else {
                    let triggers = subst_triggers(triggers, map, memo);
                    Formula::Exists(vars.clone(), triggers, Box::new(body.subst_memo(map, memo)))
                }
            }
            Formula::Labeled(id, body) => {
                Formula::Labeled(*id, Box::new(body.subst_memo(map, memo)))
            }
        }
    }

    /// Collects free variables, sorted by name (deterministic across
    /// runs even though symbol ids are not).
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.free_vars_into(&mut out);
        out.sort_by_key(|s| s.as_str());
        out
    }

    fn free_vars_into(&self, out: &mut Vec<Symbol>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => a.free_vars(out),
            Formula::Not(p) => p.free_vars_into(out),
            Formula::And(ps) | Formula::Or(ps) => {
                for p in ps {
                    p.free_vars_into(out);
                }
            }
            Formula::Implies(p, q) | Formula::Iff(p, q) => {
                p.free_vars_into(out);
                q.free_vars_into(out);
            }
            Formula::Forall(vars, _, body) | Formula::Exists(vars, _, body) => {
                let mut inner = Vec::new();
                body.free_vars_into(&mut inner);
                for v in inner {
                    if !vars.contains(&v) && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            Formula::Labeled(_, body) => body.free_vars_into(out),
        }
    }

    /// Number of nodes in the formula tree (atoms count their terms).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Atom(a) => {
                let mut n = 1;
                a.for_each_term(&mut |t| n += t.size());
                n
            }
            Formula::Not(p) => 1 + p.size(),
            Formula::And(ps) | Formula::Or(ps) => 1 + ps.iter().map(Formula::size).sum::<usize>(),
            Formula::Implies(p, q) | Formula::Iff(p, q) => 1 + p.size() + q.size(),
            Formula::Forall(_, _, body) | Formula::Exists(_, _, body) => 1 + body.size(),
            Formula::Labeled(_, body) => body.size(),
        }
    }
}

fn no_capture(bound: &[Symbol], map: &[(Symbol, Term)]) -> bool {
    for (v, image) in map {
        if bound.contains(v) {
            continue; // shadowed — handled by filtering, not capture
        }
        let mut image_vars = Vec::new();
        image.free_vars(&mut image_vars);
        if bound.iter().any(|b| image_vars.contains(b)) {
            return false;
        }
    }
    true
}

fn write_vars(f: &mut fmt::Formatter<'_>, vars: &[Symbol]) -> fmt::Result {
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    Ok(())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(p) => write!(f, "¬({p})"),
            Formula::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Implies(p, q) => write!(f, "({p} ⇒ {q})"),
            Formula::Iff(p, q) => write!(f, "({p} ⇔ {q})"),
            Formula::Forall(vars, triggers, body) => {
                write!(f, "(∀ ")?;
                write_vars(f, vars)?;
                for t in triggers {
                    write!(f, " {t}")?;
                }
                write!(f, " :: {body})")
            }
            Formula::Exists(vars, _, body) => {
                write!(f, "(∃ ")?;
                write_vars(f, vars)?;
                write!(f, " :: {body})")
            }
            Formula::Labeled(JOIN_LABEL, body) => write!(f, "⟨join: {body}⟩"),
            Formula::Labeled(id, body) => write!(f, "⟨L{id}: {body}⟩"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::STORE;

    #[test]
    fn and_flattens_and_short_circuits() {
        let a = Formula::eq(Term::var("x"), Term::int(1));
        let b = Formula::eq(Term::var("y"), Term::int(2));
        let nested = Formula::and(vec![
            a.clone(),
            Formula::and(vec![b.clone(), Formula::True]),
        ]);
        assert_eq!(nested, Formula::And(vec![a.clone(), b.clone()]));
        assert_eq!(
            Formula::and(vec![a.clone(), Formula::False]),
            Formula::False
        );
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::and(vec![a.clone()]), a);
    }

    #[test]
    fn or_flattens_and_short_circuits() {
        let a = Formula::eq(Term::var("x"), Term::int(1));
        assert_eq!(Formula::or(vec![a.clone(), Formula::True]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::or(vec![Formula::False, a.clone()]), a);
    }

    #[test]
    fn not_collapses_double_negation() {
        let a = Formula::eq(Term::var("x"), Term::int(1));
        assert_eq!(Formula::not(Formula::not(a.clone())), a);
        assert_eq!(Formula::not(Formula::True), Formula::False);
    }

    #[test]
    fn subst_respects_binders() {
        // (∀ v :: v = x)[x := 3] = ∀ v :: v = 3
        let body = Formula::eq(Term::var("v"), Term::var("x"));
        let q = Formula::forall(vec!["v".into()], vec![], body);
        let subbed = q.subst(&[("x".into(), Term::int(3))]);
        assert_eq!(
            subbed,
            Formula::forall(
                vec!["v".into()],
                vec![],
                Formula::eq(Term::var("v"), Term::int(3))
            )
        );
        // Substituting the bound variable itself is a no-op inside.
        let same = q.subst(&[("v".into(), Term::int(7))]);
        assert_eq!(same, q);
    }

    #[test]
    fn free_vars_excludes_bound() {
        let body = Formula::eq(
            Term::select(Term::store(), Term::var("v"), Term::attr("f")),
            Term::var("x"),
        );
        let q = Formula::forall(vec!["v".into()], vec![], body);
        let fv = q.free_vars();
        assert!(fv.iter().any(|s| *s == "x"));
        assert!(fv.iter().any(|s| *s == STORE));
        assert!(!fv.iter().any(|s| *s == "v"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "capture")]
    fn capture_is_detected() {
        // (∀ v :: x = v)[x := v] would capture v.
        let q = Formula::forall(
            vec!["v".into()],
            vec![],
            Formula::eq(Term::var("x"), Term::var("v")),
        );
        let _ = q.subst(&[("x".into(), Term::var("v"))]);
    }

    #[test]
    fn display_round_trips_structure() {
        let a = Formula::Atom(Atom::Inc {
            store: Term::store(),
            obj: Term::var("st"),
            attr: Term::attr("contents"),
            obj2: Term::var("v"),
            attr2: Term::attr("cnt"),
        });
        assert_eq!(a.to_string(), "$ ⊨ st·#contents ≽ v·#cnt");
    }

    #[test]
    fn labels_are_logically_transparent() {
        let a = Formula::eq(Term::var("x"), Term::int(1));
        let labelled = Formula::labeled(3, a.clone());
        assert_eq!(labelled.strip_labels(), a);
        assert_eq!(labelled.size(), a.size());
        assert_eq!(labelled.free_vars(), a.free_vars());
        // Constants are never labelled.
        assert_eq!(Formula::labeled(0, Formula::True), Formula::True);
        assert_eq!(Formula::labeled(0, Formula::False), Formula::False);
        // Substitution preserves the label.
        let subbed = labelled.subst(&[("x".into(), Term::var("y"))]);
        assert_eq!(
            subbed,
            Formula::labeled(3, Formula::eq(Term::var("y"), Term::int(1)))
        );
        assert_eq!(labelled.to_string(), "⟨L3: x = 1⟩");
    }

    #[test]
    fn join_marker_survives_label_stripping() {
        let exit = Formula::or(vec![
            Formula::eq(Term::var("j"), Term::int(1)),
            Formula::eq(Term::var("j"), Term::int(2)),
        ]);
        let joined = Formula::implies(
            Formula::labeled(JOIN_LABEL, exit.clone()),
            Formula::labeled(0, Formula::eq(Term::var("j"), Term::var("k"))),
        );
        assert_eq!(
            joined.strip_labels(),
            Formula::implies(
                Formula::labeled(JOIN_LABEL, exit),
                Formula::eq(Term::var("j"), Term::var("k"))
            )
        );
        assert!(joined.to_string().starts_with("(⟨join: "));
    }

    #[test]
    fn size_counts_atoms_and_terms() {
        let f = Formula::and(vec![
            Formula::eq(Term::var("x"), Term::int(1)),
            Formula::eq(Term::var("y"), Term::int(2)),
        ]);
        assert_eq!(f.size(), 7);
    }

    #[test]
    fn shared_subtrees_substitute_once() {
        // A formula with the same big subterm twice: after substitution
        // both occurrences must still be the same hash-consed id.
        let big = Term::select(Term::store(), Term::var("o"), Term::attr("f"));
        let f = Formula::and(vec![
            Formula::eq(big, Term::int(1)),
            Formula::eq(big, Term::var("z")),
        ]);
        let g = f.subst(&[("o".into(), Term::var("p"))]);
        match g {
            Formula::And(parts) => {
                let first = match &parts[0] {
                    Formula::Atom(Atom::Eq(a, _)) => *a,
                    other => panic!("unexpected shape: {other:?}"),
                };
                let second = match &parts[1] {
                    Formula::Atom(Atom::Eq(a, _)) => *a,
                    other => panic!("unexpected shape: {other:?}"),
                };
                assert_eq!(first.id(), second.id());
                assert_eq!(
                    first,
                    Term::select(Term::store(), Term::var("p"), Term::attr("f"))
                );
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }
}
