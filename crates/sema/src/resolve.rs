//! Validation of implementation bodies.
//!
//! Enforces the rule of self-contained names inside commands (every
//! attribute and procedure mentioned is declared in the scope), the
//! language's binding rules, and the structural restrictions Figure 1
//! implies:
//!
//! * the left operand of an assignment is a local variable or a designator
//!   `E.f` — never a formal parameter or constant;
//! * data groups are not allowed in commands (they exist only for
//!   specifying side effects), so every selected attribute in a command
//!   must be a *field*;
//! * calls pass the declared number of arguments;
//! * local variables do not shadow parameters or other locals (a
//!   simplification relative to the paper, which is silent on shadowing;
//!   shadowed programs can always be alpha-renamed).

use crate::scope::Scope;
use crate::symbols::{AttrKind, ImplId};
use oolong_syntax::{Cmd, Diagnostics, Expr};

/// Validates the body of one implementation, appending diagnostics.
pub fn validate_impl(scope: &Scope, impl_id: ImplId, diags: &mut Diagnostics) {
    let info = scope.impl_info(impl_id);
    let params = &scope.proc_info(info.proc).params;
    let mut env = Env {
        scope,
        params,
        locals: Vec::new(),
        diags,
    };
    env.cmd(&info.body);
}

struct Env<'a> {
    scope: &'a Scope,
    params: &'a [String],
    locals: Vec<String>,
    diags: &'a mut Diagnostics,
}

impl Env<'_> {
    fn is_bound(&self, name: &str) -> bool {
        self.params.iter().any(|p| p == name) || self.locals.iter().any(|l| l == name)
    }

    fn cmd(&mut self, cmd: &Cmd) {
        match cmd {
            Cmd::Assert(e, _) | Cmd::Assume(e, _) => self.expr(e),
            Cmd::Skip(_) => {}
            Cmd::Var(x, body, _) => {
                if self.is_bound(&x.text) {
                    self.diags.error(
                        format!("local variable `{}` shadows an existing binding", x.text),
                        x.span,
                    );
                }
                self.locals.push(x.text.clone());
                self.cmd(body);
                self.locals.pop();
            }
            Cmd::Seq(cs) => {
                for c in cs {
                    self.cmd(c);
                }
            }
            Cmd::Choice(a, b) => {
                self.cmd(a);
                self.cmd(b);
            }
            Cmd::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.expr(cond);
                self.cmd(then_branch);
                self.cmd(else_branch);
            }
            Cmd::Assign { lhs, rhs, .. } => {
                self.lhs(lhs);
                self.expr(rhs);
            }
            Cmd::AssignNew { lhs, .. } => self.lhs(lhs),
            Cmd::Call { proc, args, span } => {
                match self.scope.proc(&proc.text) {
                    None => {
                        self.diags.error(
                            format!("call to undeclared procedure `{}`", proc.text),
                            proc.span,
                        );
                    }
                    Some(pid) => {
                        let declared = self.scope.proc_info(pid).params.len();
                        if declared != args.len() {
                            self.diags.error(
                                format!(
                                    "procedure `{}` expects {} argument(s) but {} were supplied",
                                    proc.text,
                                    declared,
                                    args.len()
                                ),
                                *span,
                            );
                        }
                    }
                }
                for arg in args {
                    self.expr(arg);
                }
            }
        }
    }

    fn lhs(&mut self, lhs: &Expr) {
        match lhs {
            Expr::Id(id) => {
                if self.params.iter().any(|p| p == &id.text) {
                    self.diags.error(
                        format!("cannot assign to formal parameter `{}`", id.text),
                        id.span,
                    );
                } else if !self.locals.iter().any(|l| l == &id.text) {
                    self.diags.error(
                        format!("assignment to unbound variable `{}`", id.text),
                        id.span,
                    );
                }
            }
            Expr::Select { base, attr, .. } => {
                self.expr(base);
                self.check_field_attr(attr);
            }
            Expr::Index { base, index, .. } => {
                self.expr(base);
                self.expr(index);
            }
            other => {
                self.diags.error(
                    "assignment target must be a local variable, a designator `E.f`, or a slot `E[I]`",
                    other.span(),
                );
            }
        }
    }

    fn check_field_attr(&mut self, attr: &oolong_syntax::Ident) {
        match self.scope.attr(&attr.text) {
            None => {
                self.diags
                    .error(format!("undeclared attribute `{}`", attr.text), attr.span);
            }
            Some(id) => {
                if self.scope.attr_info(id).kind == AttrKind::Group {
                    self.diags.error(
                        format!(
                            "data group `{}` cannot appear in a command (groups exist only in specifications)",
                            attr.text
                        ),
                        attr.span,
                    );
                }
            }
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Const(..) => {}
            Expr::Id(id) => {
                if !self.is_bound(&id.text) {
                    self.diags
                        .error(format!("unbound variable `{}`", id.text), id.span);
                }
            }
            Expr::Select { base, attr, .. } => {
                self.expr(base);
                self.check_field_attr(attr);
            }
            Expr::Index { base, index, .. } => {
                self.expr(base);
                self.expr(index);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Unary { operand, .. } => self.expr(operand),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scope::Scope;
    use oolong_syntax::parse_program;

    fn errs(src: &str) -> String {
        Scope::analyze(&parse_program(src).expect("parses"))
            .unwrap_err()
            .to_string()
    }

    fn ok(src: &str) {
        Scope::analyze(&parse_program(src).expect("parses")).expect("analyses");
    }

    #[test]
    fn accepts_well_formed_body() {
        ok("field f
            proc p(t)
            impl p(t) { var x in x := t.f ; x.f := 3 ; assert x != null end }");
    }

    #[test]
    fn rejects_unbound_variable() {
        assert!(errs("proc p(t) impl p(t) { assert y = null }").contains("unbound variable `y`"));
    }

    #[test]
    fn rejects_assignment_to_parameter() {
        assert!(
            errs("proc p(t) impl p(t) { t := null }").contains("cannot assign to formal parameter")
        );
    }

    #[test]
    fn rejects_assignment_to_unbound() {
        assert!(
            errs("proc p(t) impl p(t) { x := null }").contains("assignment to unbound variable")
        );
    }

    #[test]
    fn rejects_group_in_command() {
        assert!(errs("group g proc p(t) impl p(t) { assert t.g = null }")
            .contains("cannot appear in a command"));
    }

    #[test]
    fn rejects_group_as_assignment_target() {
        assert!(errs("group g proc p(t) impl p(t) { t.g := null }")
            .contains("cannot appear in a command"));
    }

    #[test]
    fn rejects_undeclared_attribute_in_command() {
        assert!(errs("proc p(t) impl p(t) { assert t.zap = null }")
            .contains("undeclared attribute `zap`"));
    }

    #[test]
    fn rejects_call_to_undeclared_procedure() {
        assert!(errs("proc p(t) impl p(t) { helper(t) }").contains("undeclared procedure `helper`"));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(errs("proc q(a, b) proc p(t) impl p(t) { q(t) }").contains("expects 2 argument(s)"));
    }

    #[test]
    fn rejects_shadowing() {
        assert!(errs("proc p(t) impl p(t) { var t in skip end }").contains("shadows"));
        assert!(errs("proc p(t) impl p(t) { var x in var x in skip end end }").contains("shadows"));
    }

    #[test]
    fn rejects_constant_assignment_target() {
        assert!(errs("proc p(t) impl p(t) { 3 := 4 }").contains("assignment target"));
    }

    #[test]
    fn locals_leave_scope_after_end() {
        assert!(
            errs("proc p(t) impl p(t) { { var x in skip end } ; assert x = null }")
                .contains("unbound variable `x`")
        );
    }

    #[test]
    fn if_condition_validated() {
        assert!(errs("proc p(t) impl p(t) { if zz = null then skip end }")
            .contains("unbound variable `zz`"));
    }
}
