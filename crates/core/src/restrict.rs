//! The pivot uniqueness restriction (Section 3.0) — a purely syntactic
//! check on procedure implementations.
//!
//! The restriction confines the values of pivot fields so that, except for
//! copies in formal parameters on the call stack, a non-null pivot value is
//! referenced only by its pivot field:
//!
//! 1. an assignment whose left operand is `e.f` with `f` a pivot field may
//!    only have `new()` or `null` as its right operand;
//! 2. a right operand of the form `e.f` must not have `f` a pivot field,
//!    and an operator right operand must not return an object (none of
//!    oolong's operators do);
//! 3. a right operand that is an identifier must not be a formal parameter
//!    (assignments *to* formal parameters are already banned by the
//!    grammar/sema).

use oolong_sema::{ImplId, Scope};
use oolong_syntax::{Cmd, Const, Diagnostic, Expr};

/// Checks one implementation against the pivot uniqueness restriction,
/// returning all violations.
pub fn check_pivot_uniqueness(scope: &Scope, impl_id: ImplId) -> Vec<Diagnostic> {
    let info = scope.impl_info(impl_id);
    let params = &scope.proc_info(info.proc).params;
    let mut diags = Vec::new();
    walk(scope, params, &info.body, &mut diags);
    diags
}

fn is_pivot_attr(scope: &Scope, name: &str) -> bool {
    scope.attr(name).is_some_and(|id| scope.is_pivot(id))
}

fn walk(scope: &Scope, params: &[String], cmd: &Cmd, diags: &mut Vec<Diagnostic>) {
    match cmd {
        Cmd::Assign { lhs, rhs, .. } => {
            // Rule 1: pivot targets take only new() (handled by AssignNew)
            // or null.
            if let Expr::Select { attr, .. } = lhs {
                if is_pivot_attr(scope, &attr.text) && !matches!(rhs, Expr::Const(Const::Null, _)) {
                    diags.push(Diagnostic::error(
                        format!(
                            "pivot uniqueness: pivot field `{}` may only be assigned `new()` or `null`",
                            attr.text
                        ),
                        lhs.span(),
                    ));
                }
            }
            // Slot discipline (array-dependencies extension): slots take
            // only new() or null.
            if matches!(lhs, Expr::Index { .. }) && !matches!(rhs, Expr::Const(Const::Null, _)) {
                diags.push(Diagnostic::error(
                    "pivot uniqueness: array slots may only be assigned `new()` or `null`",
                    lhs.span(),
                ));
            }
            check_rhs(scope, params, rhs, diags);
        }
        Cmd::AssignNew { .. } => {}
        Cmd::Var(_, body, _) => walk(scope, params, body, diags),
        Cmd::Seq(cs) => {
            for c in cs {
                walk(scope, params, c, diags);
            }
        }
        Cmd::Choice(a, b) => {
            walk(scope, params, a, diags);
            walk(scope, params, b, diags);
        }
        Cmd::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk(scope, params, then_branch, diags);
            walk(scope, params, else_branch, diags);
        }
        Cmd::Assert(..) | Cmd::Assume(..) | Cmd::Skip(_) | Cmd::Call { .. } => {}
    }
}

fn check_rhs(scope: &Scope, params: &[String], rhs: &Expr, diags: &mut Vec<Diagnostic>) {
    match rhs {
        // Rule 2: the right operand must not read a pivot field.
        Expr::Select { attr, .. } => {
            if is_pivot_attr(scope, &attr.text) {
                diags.push(Diagnostic::error(
                    format!(
                        "pivot uniqueness: the value of pivot field `{}` may not be copied",
                        attr.text
                    ),
                    rhs.span(),
                ));
            }
        }
        // Rule 3: the right operand must not be a formal parameter.
        Expr::Id(id) => {
            if params.iter().any(|p| p == &id.text) {
                diags.push(Diagnostic::error(
                    format!(
                        "pivot uniqueness: formal parameter `{}` may not be copied into a variable or field",
                        id.text
                    ),
                    rhs.span(),
                ));
            }
        }
        // Rule 2 (operators): an operator right operand must not return an
        // object. None of oolong's operators do, so nothing to flag; the
        // hook is kept in case object-returning operators are added.
        Expr::Binary { op, .. } => {
            if op.may_return_object() {
                diags.push(Diagnostic::error(
                    format!("pivot uniqueness: operator `{op}` may return an object"),
                    rhs.span(),
                ));
            }
        }
        // Slot discipline: slot values may not be copied.
        Expr::Index { .. } => {
            diags.push(Diagnostic::error(
                "pivot uniqueness: the value of an array slot may not be copied",
                rhs.span(),
            ));
        }
        Expr::Unary { .. } | Expr::Const(..) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_program;

    fn violations(src: &str) -> Vec<String> {
        let program = parse_program(src).expect("parses");
        let scope = Scope::analyze(&program).expect("analyses");
        scope
            .impls()
            .flat_map(|(id, _)| check_pivot_uniqueness(&scope, id))
            .map(|d| d.message)
            .collect()
    }

    const PRELUDE: &str = "group contents
group elems
field cnt in elems
field obj
field vec maps elems into contents
";

    #[test]
    fn clean_implementation_passes() {
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st) modifies st.contents
             impl p(st) {{ st.vec := new() ; st.vec := null ; var x in x := st.cnt end }}"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rejects_pivot_assigned_expression() {
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st, o) modifies st.contents
             impl p(st, o) {{ var x in x := new() ; st.vec := x end }}"
        ));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("may only be assigned"));
    }

    #[test]
    fn allows_pivot_assigned_null_and_new() {
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st) modifies st.contents
             impl p(st) {{ st.vec := null ; st.vec := new() }}"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rejects_reading_pivot_into_variable() {
        // The paper's §3.0 scenario: impl m(st, r) { r.obj := st.vec }.
        let v = violations(&format!(
            "{PRELUDE}
             proc m(st, r) modifies r.obj
             impl m(st, r) {{ r.obj := st.vec }}"
        ));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("may not be copied"), "{v:?}");
    }

    #[test]
    fn rejects_copying_formal_parameter() {
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st) modifies st.contents
             impl p(st) {{ var x in x := st end }}"
        ));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("formal parameter"), "{v:?}");
    }

    #[test]
    fn local_to_local_copy_is_fine() {
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st) modifies st.contents
             impl p(st) {{ var x in var y in x := new() ; y := x end end }}"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reading_through_pivot_is_fine() {
        // x := st.vec.cnt dereferences the pivot without copying its value.
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st) modifies st.contents
             impl p(st) {{ var x in x := st.vec.cnt end }}"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn passing_pivot_as_argument_is_not_a_pivot_uniqueness_violation() {
        // Passing st.vec to a callee is owner exclusion's business, not
        // pivot uniqueness's.
        let v = violations(&format!(
            "{PRELUDE}
             proc vhelper(v) modifies v.elems
             proc p(st) modifies st.contents
             impl p(st) {{ vhelper(st.vec) }}"
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violations_found_in_branches() {
        let v = violations(&format!(
            "{PRELUDE}
             proc p(st, o) modifies st.contents
             impl p(st, o) {{ skip [] {{ var x in x := st.vec end }} }}"
        ));
        assert_eq!(v.len(), 1);
    }
}
