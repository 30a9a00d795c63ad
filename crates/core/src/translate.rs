//! The translation `tr` of oolong expressions into logic (Figure 2).
//!
//! `tr(c) = c`, `tr(x) = x`, `tr(E.f) = $(tr(E)·f)`, and `tr` is
//! homomorphic on operators. Dereferences `E.f` additionally produce the
//! well-definedness side condition `tr(E) ≠ null`, which the paper elides
//! "for brevity"; collection of these conditions is optional (see
//! [`CheckOptions::null_checks`](crate::CheckOptions)).
//!
//! Boolean-valued operators translate to formulas; oolong is untyped, but
//! storing the *result* of a comparison in a variable or field is not
//! something the paper's examples ever do, so expressions in *value*
//! position must be object/integer shaped (constants, variables,
//! designators, arithmetic). Violations are reported as translation errors.

use oolong_logic::{Atom, Formula, Symbol, Term, STORE};
use oolong_syntax::{BinOp, Diagnostic, Expr, UnaryOp};
use std::collections::HashMap;

/// The program state a translation reads: the term standing for the
/// current store and the term each assigned local currently holds. An
/// identifier without an entry (a parameter, or a local not assigned
/// since its `var`) translates to itself.
#[derive(Debug, Clone)]
pub struct State {
    /// The current store, `$` on entry.
    pub store: Term,
    locals: HashMap<Symbol, Term>,
}

impl State {
    /// The state on entry: store `$`, every identifier denoting itself.
    pub fn initial() -> State {
        State::at(Term::store())
    }

    /// The state with current store `store` and no assigned locals.
    pub fn at(store: Term) -> State {
        State {
            store,
            locals: HashMap::new(),
        }
    }

    /// The term identifier `name` denotes.
    pub fn local(&self, name: Symbol) -> Term {
        self.locals
            .get(&name)
            .copied()
            .unwrap_or_else(|| Term::var(name))
    }

    /// Binds `name` (the store when it is `$`) to `value`.
    pub fn assign(&mut self, name: Symbol, value: Term) {
        if name == STORE {
            self.store = value;
        } else {
            self.locals.insert(name, value);
        }
    }

    /// Makes `name` denote itself again (entering its `var` block),
    /// returning the entry it had.
    pub fn unbind(&mut self, name: Symbol) -> Option<Term> {
        self.locals.remove(&name)
    }

    /// Restores an entry returned by [`State::unbind`] (leaving the block).
    pub fn rebind(&mut self, name: Symbol, entry: Option<Term>) {
        match entry {
            Some(value) => self.locals.insert(name, value),
            None => self.locals.remove(&name),
        };
    }

    /// The locals with an entry in `self` or `other`, sorted by name so
    /// callers iterate them in a process-independent order.
    pub fn assigned_locals(&self, other: &State) -> Vec<Symbol> {
        let mut names: Vec<Symbol> = self.locals.keys().copied().collect();
        names.extend(other.locals.keys().filter(|k| !self.locals.contains_key(k)));
        names.sort_by_key(|s| s.as_str());
        names
    }
}

/// A translated value expression: its term and the accumulated
/// well-definedness conditions (one `≠ null` per dereference).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrValue {
    /// The logical term denoting the expression's value.
    pub term: Term,
    /// Non-null side conditions for every dereference performed.
    pub defined: Vec<Formula>,
}

/// A translated boolean expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrFormula {
    /// The logical formula denoting the expression's truth.
    pub formula: Formula,
    /// Non-null side conditions for every dereference performed.
    pub defined: Vec<Formula>,
}

/// Translates an expression in *value* position, reading object attributes
/// from `state`'s store and identifiers from its locals.
///
/// # Errors
///
/// Returns a [`Diagnostic`] if the expression uses a boolean operator in
/// value position.
pub fn tr_value(expr: &Expr, state: &State) -> Result<TrValue, Diagnostic> {
    let mut defined = Vec::new();
    let term = tr_value_inner(expr, state, &mut defined)?;
    Ok(TrValue { term, defined })
}

fn tr_value_inner(
    expr: &Expr,
    state: &State,
    defined: &mut Vec<Formula>,
) -> Result<Term, Diagnostic> {
    match expr {
        Expr::Const(c, _) => Ok(match c {
            oolong_syntax::Const::Null => Term::null(),
            oolong_syntax::Const::Bool(b) => Term::boolean(*b),
            oolong_syntax::Const::Int(n) => Term::int(*n),
        }),
        Expr::Id(id) => Ok(state.local(Symbol::intern(&id.text))),
        Expr::Select { base, attr, .. } => {
            let base_term = tr_value_inner(base, state, defined)?;
            defined.push(Formula::neq(base_term, Term::null()));
            Ok(Term::select(
                state.store,
                base_term,
                Term::attr(attr.text.clone()),
            ))
        }
        Expr::Index { base, index, .. } => {
            // tr(E[I]) = $(tr(E)·tr(I)) — the store is untyped in its key
            // position, so integer slots reuse `select` directly.
            let base_term = tr_value_inner(base, state, defined)?;
            let index_term = tr_value_inner(index, state, defined)?;
            defined.push(Formula::neq(base_term, Term::null()));
            Ok(Term::select(state.store, base_term, index_term))
        }
        Expr::Binary { op, lhs, rhs, span } => {
            let l = tr_value_inner(lhs, state, defined)?;
            let r = tr_value_inner(rhs, state, defined)?;
            match op {
                BinOp::Add => Ok(Term::add(l, r)),
                BinOp::Sub => Ok(Term::sub(l, r)),
                BinOp::Mul => Ok(Term::mul(l, r)),
                _ => Err(Diagnostic::error(
                    format!("operator `{op}` yields a boolean and cannot appear in value position"),
                    *span,
                )),
            }
        }
        Expr::Unary { op, operand, span } => {
            let o = tr_value_inner(operand, state, defined)?;
            match op {
                UnaryOp::Neg => Ok(Term::neg(o)),
                UnaryOp::Not => Err(Diagnostic::error(
                    "operator `!` yields a boolean and cannot appear in value position",
                    *span,
                )),
            }
        }
    }
}

/// One heap read performed by an expression: a dereference `E.f` (or slot
/// read `E[I]`) with the object and attribute as terms evaluated in the
/// collection store, plus the dereference's source rendering and span for
/// obligation labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapRead {
    /// The read object, `tr(E)`.
    pub obj: Term,
    /// The read attribute (`Term::attr` for fields, `tr(I)` for slots).
    pub attr: Term,
    /// The dereference as written, e.g. `t.cnt`.
    pub desc: String,
    /// Span of the dereference expression.
    pub span: oolong_syntax::Span,
}

/// Collects every heap read `expr` performs, innermost first, translated
/// in `state`. Expressions that fail value translation contribute no reads
/// (the caller's own `tr_*` call reports the error).
pub fn heap_reads(expr: &Expr, state: &State) -> Vec<HeapRead> {
    let mut out = Vec::new();
    collect_heap_reads(expr, state, &mut out);
    out
}

fn collect_heap_reads(expr: &Expr, state: &State, out: &mut Vec<HeapRead>) {
    match expr {
        Expr::Select { base, attr, .. } => {
            collect_heap_reads(base, state, out);
            if let Ok(b) = tr_value(base, state) {
                out.push(HeapRead {
                    obj: b.term,
                    attr: Term::attr(attr.text.clone()),
                    desc: oolong_syntax::pretty::print_expr(expr),
                    span: expr.span(),
                });
            }
        }
        Expr::Index { base, index, .. } => {
            collect_heap_reads(base, state, out);
            collect_heap_reads(index, state, out);
            if let (Ok(b), Ok(i)) = (tr_value(base, state), tr_value(index, state)) {
                out.push(HeapRead {
                    obj: b.term,
                    attr: i.term,
                    desc: oolong_syntax::pretty::print_expr(expr),
                    span: expr.span(),
                });
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_heap_reads(lhs, state, out);
            collect_heap_reads(rhs, state, out);
        }
        Expr::Unary { operand, .. } => collect_heap_reads(operand, state, out),
        Expr::Const(..) | Expr::Id(_) => {}
    }
}

/// Translates an expression in *formula* position (an `assert`/`assume`
/// condition or `if` guard).
///
/// Non-boolean expressions (a variable, a field read) are interpreted as
/// propositions via `BoolTerm`, i.e. they hold when the value is `true`.
///
/// # Errors
///
/// Returns a [`Diagnostic`] if arithmetic appears where only a proposition
/// makes sense in a way that cannot be interpreted (currently arithmetic is
/// always interpretable as a `BoolTerm`, so this only propagates inner
/// errors).
pub fn tr_formula(expr: &Expr, state: &State) -> Result<TrFormula, Diagnostic> {
    let mut defined = Vec::new();
    let formula = tr_formula_inner(expr, state, &mut defined)?;
    Ok(TrFormula { formula, defined })
}

fn tr_formula_inner(
    expr: &Expr,
    state: &State,
    defined: &mut Vec<Formula>,
) -> Result<Formula, Diagnostic> {
    match expr {
        Expr::Const(oolong_syntax::Const::Bool(true), _) => Ok(Formula::True),
        Expr::Const(oolong_syntax::Const::Bool(false), _) => Ok(Formula::False),
        Expr::Binary { op, lhs, rhs, .. } if op.is_predicate() => match op {
            BinOp::And => Ok(Formula::and(vec![
                tr_formula_inner(lhs, state, defined)?,
                tr_formula_inner(rhs, state, defined)?,
            ])),
            BinOp::Or => Ok(Formula::or(vec![
                tr_formula_inner(lhs, state, defined)?,
                tr_formula_inner(rhs, state, defined)?,
            ])),
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = tr_value_inner(lhs, state, defined)?;
                let r = tr_value_inner(rhs, state, defined)?;
                Ok(match op {
                    BinOp::Eq => Formula::eq(l, r),
                    BinOp::Ne => Formula::neq(l, r),
                    BinOp::Lt => Formula::Atom(Atom::Lt(l, r)),
                    BinOp::Le => Formula::Atom(Atom::Le(l, r)),
                    BinOp::Gt => Formula::Atom(Atom::Lt(r, l)),
                    BinOp::Ge => Formula::Atom(Atom::Le(r, l)),
                    _ => unreachable!("comparison ops handled above"),
                })
            }
            _ => unreachable!("is_predicate covers exactly these"),
        },
        Expr::Unary {
            op: UnaryOp::Not,
            operand,
            ..
        } => Ok(Formula::not(tr_formula_inner(operand, state, defined)?)),
        other => {
            // A value used as a proposition: holds when it equals `true`.
            let term = tr_value_inner(other, state, defined)?;
            Ok(Formula::Atom(Atom::BoolTerm(term)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_expr;

    fn value(src: &str) -> TrValue {
        tr_value(&parse_expr(src).expect("parses"), &State::initial()).expect("translates")
    }

    fn formula(src: &str) -> TrFormula {
        tr_formula(&parse_expr(src).expect("parses"), &State::initial()).expect("translates")
    }

    #[test]
    fn constants_translate_directly() {
        assert_eq!(value("null").term, Term::null());
        assert_eq!(value("42").term, Term::int(42));
        assert_eq!(value("true").term, Term::boolean(true));
    }

    #[test]
    fn dereference_chain_builds_selects() {
        let v = value("t.c.d");
        let inner = Term::select(Term::store(), Term::var("t"), Term::attr("c"));
        assert_eq!(v.term, Term::select(Term::store(), inner, Term::attr("d")));
        // Two dereferences, two definedness conditions.
        assert_eq!(v.defined.len(), 2);
        assert_eq!(v.defined[0], Formula::neq(Term::var("t"), Term::null()));
        assert_eq!(v.defined[1], Formula::neq(inner, Term::null()));
    }

    #[test]
    fn arithmetic_is_homomorphic() {
        let v = value("t.value + 1");
        assert_eq!(
            v.term,
            Term::add(
                Term::select(Term::store(), Term::var("t"), Term::attr("value")),
                Term::int(1)
            )
        );
    }

    #[test]
    fn boolean_op_in_value_position_rejected() {
        let e = parse_expr("a = b").unwrap();
        assert!(tr_value(&e, &State::initial()).is_err());
        let e2 = parse_expr("!a").unwrap();
        assert!(tr_value(&e2, &State::initial()).is_err());
    }

    #[test]
    fn equality_formula() {
        let f = formula("n = v.cnt");
        assert_eq!(
            f.formula,
            Formula::eq(
                Term::var("n"),
                Term::select(Term::store(), Term::var("v"), Term::attr("cnt"))
            )
        );
        assert_eq!(f.defined.len(), 1);
    }

    #[test]
    fn connectives_and_negation() {
        let f = formula("!(a = null) && (b = null || c = null)");
        match &f.formula {
            Formula::And(parts) => {
                assert!(matches!(parts[0], Formula::Not(_)));
                assert!(matches!(parts[1], Formula::Or(_)));
            }
            other => panic!("expected conjunction, got {other}"),
        }
    }

    #[test]
    fn comparisons_normalise_gt_to_lt() {
        let f = formula("a > b");
        assert_eq!(
            f.formula,
            Formula::Atom(Atom::Lt(Term::var("b"), Term::var("a")))
        );
        let g = formula("a >= b");
        assert_eq!(
            g.formula,
            Formula::Atom(Atom::Le(Term::var("b"), Term::var("a")))
        );
    }

    #[test]
    fn variable_as_proposition() {
        let f = formula("flag");
        assert_eq!(f.formula, Formula::Atom(Atom::BoolTerm(Term::var("flag"))));
    }

    #[test]
    fn heap_reads_collects_dereferences_innermost_first() {
        let e = parse_expr("t.c.d + u.f").unwrap();
        let reads = heap_reads(&e, &State::initial());
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[0].desc, "t.c");
        assert_eq!(reads[0].obj, Term::var("t"));
        assert_eq!(reads[0].attr, Term::attr("c"));
        assert_eq!(reads[1].desc, "t.c.d");
        assert_eq!(
            reads[1].obj,
            Term::select(Term::store(), Term::var("t"), Term::attr("c"))
        );
        assert_eq!(reads[2].desc, "u.f");
        // Slot reads use the translated index as the attribute.
        let s = heap_reads(&parse_expr("a[i].f").unwrap(), &State::initial());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].attr, Term::var("i"));
    }

    #[test]
    fn custom_store_is_threaded() {
        let v = tr_value(&parse_expr("t.f").unwrap(), &State::at(Term::store0())).unwrap();
        assert_eq!(
            v.term,
            Term::select(Term::store0(), Term::var("t"), Term::attr("f"))
        );
    }

    #[test]
    fn assigned_locals_translate_to_their_terms() {
        let mut state = State::initial();
        state.assign(Symbol::intern("x"), Term::int(3));
        state.assign(Symbol::intern(STORE), Term::store0());
        let v = tr_value(&parse_expr("x + t.f").unwrap(), &state).unwrap();
        assert_eq!(
            v.term,
            Term::add(
                Term::int(3),
                Term::select(Term::store0(), Term::var("t"), Term::attr("f"))
            )
        );
        let entry = state.unbind(Symbol::intern("x"));
        assert_eq!(state.local(Symbol::intern("x")), Term::var("x"));
        state.rebind(Symbol::intern("x"), entry);
        assert_eq!(state.local(Symbol::intern("x")), Term::int(3));
    }
}
