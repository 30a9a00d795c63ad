//! Pretty-printer producing canonical oolong concrete syntax.
//!
//! The output of [`print_program`] re-parses to an equal AST (modulo spans);
//! this round-trip property is exercised both by unit tests here and by
//! property tests in the workspace test suite.

use crate::ast::*;
use std::fmt::Write as _;

/// Pretty-prints a whole program.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, decl) in program.decls.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&print_decl(decl));
    }
    out
}

/// Pretty-prints a single declaration.
pub fn print_decl(decl: &Decl) -> String {
    let mut out = String::new();
    match decl {
        Decl::Group(g) => {
            let _ = write!(out, "group {}", g.name);
            if !g.includes.is_empty() {
                let _ = write!(out, " in {}", comma(&g.includes));
            }
        }
        Decl::Field(f) => {
            let _ = write!(out, "field {}", f.name);
            if !f.includes.is_empty() {
                let _ = write!(out, " in {}", comma(&f.includes));
            }
            for m in &f.maps {
                let kw = if m.elementwise { "maps elem" } else { "maps" };
                let _ = write!(out, " {kw} {} into {}", m.mapped, comma(&m.into));
            }
        }
        Decl::Proc(p) => {
            let _ = write!(out, "proc {}({})", p.name, comma(&p.params));
            if !p.modifies.is_empty() {
                let targets: Vec<String> = p.modifies.iter().map(print_expr).collect();
                let _ = write!(out, " modifies {}", targets.join(", "));
            }
            if let Some(reads) = &p.reads {
                let targets: Vec<String> = reads.iter().map(print_expr).collect();
                let _ = write!(out, " reads {}", targets.join(", "));
            }
        }
        Decl::Invariant(v) => {
            let _ = write!(out, "invariant {}", print_expr(&v.expr));
        }
        Decl::Impl(i) => {
            let _ = writeln!(out, "impl {}({}) {{", i.name, comma(&i.params));
            print_cmd_indented(&i.body, 1, &mut out);
            out.push_str("\n}");
        }
        Decl::Module(m) => {
            let _ = write!(out, "module {}", m.name);
            if !m.imports.is_empty() {
                let _ = write!(out, " imports {}", comma(&m.imports));
            }
            out.push_str(" {\n");
            for (i, d) in m.decls.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&print_decl(d));
            }
            out.push_str("\n}");
        }
    }
    out
}

fn comma(ids: &[Ident]) -> String {
    ids.iter()
        .map(|i| i.text.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_cmd_indented(cmd: &Cmd, level: usize, out: &mut String) {
    match cmd {
        Cmd::Seq(parts) => {
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" ;\n");
                }
                print_cmd_indented(part, level, out);
            }
        }
        Cmd::Choice(a, b) => {
            // The whole choice is wrapped in braces: `[]` binds looser
            // than `;`, so an unbraced choice inside a sequence would
            // re-associate on reparse.
            indent(level, out);
            out.push_str("{\n");
            indent(level + 1, out);
            out.push_str("{\n");
            print_cmd_indented(a, level + 2, out);
            out.push('\n');
            indent(level + 1, out);
            out.push_str("} [] {\n");
            print_cmd_indented(b, level + 2, out);
            out.push('\n');
            indent(level + 1, out);
            out.push_str("}\n");
            indent(level, out);
            out.push('}');
        }
        Cmd::Var(x, body, _) => {
            indent(level, out);
            let _ = writeln!(out, "var {x} in");
            print_cmd_indented(body, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push_str("end");
        }
        Cmd::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            indent(level, out);
            let _ = writeln!(out, "if {} then", print_expr(cond));
            print_cmd_indented(then_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push_str("else\n");
            print_cmd_indented(else_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push_str("end");
        }
        Cmd::Assert(e, _) => {
            indent(level, out);
            let _ = write!(out, "assert {}", print_expr(e));
        }
        Cmd::Assume(e, _) => {
            indent(level, out);
            let _ = write!(out, "assume {}", print_expr(e));
        }
        Cmd::Assign { lhs, rhs, .. } => {
            indent(level, out);
            let _ = write!(out, "{} := {}", print_expr(lhs), print_expr(rhs));
        }
        Cmd::AssignNew { lhs, .. } => {
            indent(level, out);
            let _ = write!(out, "{} := new()", print_expr(lhs));
        }
        Cmd::Call { proc, args, .. } => {
            indent(level, out);
            let args: Vec<String> = args.iter().map(print_expr).collect();
            let _ = write!(out, "{}({})", proc, args.join(", "));
        }
        Cmd::Skip(_) => {
            indent(level, out);
            out.push_str("skip");
        }
    }
}

/// Pretty-prints a command (single line indentation starts at zero).
pub fn print_cmd(cmd: &Cmd) -> String {
    let mut out = String::new();
    print_cmd_indented(cmd, 0, &mut out);
    out
}

/// Binding strength for parenthesisation decisions.
fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul => 5,
    }
}

/// Pretty-prints an expression with minimal parentheses.
pub fn print_expr(expr: &Expr) -> String {
    print_expr_prec(expr, 0)
}

fn print_expr_prec(expr: &Expr, min_prec: u8) -> String {
    match expr {
        Expr::Const(c, _) => c.to_string(),
        Expr::Id(id) => id.text.clone(),
        Expr::Select { base, attr, .. } => {
            format!("{}.{}", print_expr_prec(base, 7), attr)
        }
        Expr::Index { base, index, .. } => {
            format!("{}[{}]", print_expr_prec(base, 7), print_expr(index))
        }
        Expr::Unary { op, operand, .. } => {
            format!("{}{}", op, print_expr_prec(operand, 6))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let prec = bin_prec(*op);
            // Comparisons are non-associative; arithmetic and logical
            // operators are printed left-associatively.
            let (lmin, rmin) = if prec == 3 {
                (prec + 1, prec + 1)
            } else {
                (prec, prec + 1)
            };
            let s = format!(
                "{} {} {}",
                print_expr_prec(lhs, lmin),
                op,
                print_expr_prec(rhs, rmin)
            );
            if prec < min_prec {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_command, parse_expr, parse_program};

    /// Spans differ after a round-trip; compare via a second print instead.
    fn roundtrip_program(src: &str) {
        let p1 = parse_program(src).expect("first parse");
        let printed = print_program(&p1);
        let p2 =
            parse_program(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(print_program(&p2), printed, "printing is not a fixpoint");
    }

    #[test]
    fn roundtrips_declarations() {
        roundtrip_program(
            "group contents
             group value in contents
             field cnt in value
             field vec in value maps cnt into contents maps value into contents
             proc push(st, o) modifies st.contents
             proc q()",
        );
    }

    #[test]
    fn roundtrips_implementation() {
        roundtrip_program(
            "proc w(st, v) modifies st.contents
             group contents
             field cnt
             proc push(st, o) modifies st.contents
             impl w(st, v) {
               var n in n := v.cnt ; push(st, 3) ; assert n = v.cnt end
             }",
        );
    }

    #[test]
    fn expression_printing_minimises_parens() {
        let e = parse_expr("(a + b) * c").unwrap();
        assert_eq!(print_expr(&e), "(a + b) * c");
        let e2 = parse_expr("a + b * c").unwrap();
        assert_eq!(print_expr(&e2), "a + b * c");
        let e3 = parse_expr("a = b && c = d").unwrap();
        assert_eq!(print_expr(&e3), "a = b && c = d");
    }

    #[test]
    fn printed_choice_preserves_structure() {
        let c = parse_command("skip ; skip [] assert true").unwrap();
        let printed = print_cmd(&c);
        let c2 = parse_command(&printed).expect("reparse");
        assert_eq!(print_cmd(&c2), printed);
        assert!(matches!(c2, Cmd::Choice(..)));
    }

    #[test]
    fn if_prints_and_reparses() {
        let c = parse_command("if x = null then skip else x.f := 1 end").unwrap();
        let printed = print_cmd(&c);
        assert!(printed.contains("if x = null then"));
        let c2 = parse_command(&printed).expect("reparse");
        assert!(matches!(c2, Cmd::If { .. }));
    }

    #[test]
    fn arrays_roundtrip() {
        roundtrip_program(
            "group state
             field buckets in state maps elem state into state
             proc p(t) modifies t.state
             impl p(t) { t.buckets := new() ; t.buckets[0] := new() ; t.buckets[1] := null }",
        );
        let e = parse_expr("a[i + 1].f").unwrap();
        assert_eq!(print_expr(&e), "a[i + 1].f");
    }

    #[test]
    fn invariants_and_reads_roundtrip() {
        roundtrip_program(
            "group value
             field num in value
             invariant this.num >= 0
             proc peek(r) reads r.value
             proc bump(r) modifies r.value reads r.value",
        );
        // `reads` with a single entry survives the trip distinctly from no
        // clause at all.
        let p = parse_program("proc peek(r) reads r.value").unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("reads r.value"), "{printed}");
        let p2 = parse_program(&printed).unwrap();
        assert!(p2.procs().next().unwrap().reads.is_some());
    }

    #[test]
    fn modules_roundtrip() {
        roundtrip_program(
            "module a { group g field f in g }
             module b imports a {
               proc p(t) modifies t.g
               impl p(t) { t.f := 1 }
             }
             group top",
        );
    }

    #[test]
    fn selection_binds_tightest() {
        let e = parse_expr("t.value + 1").unwrap();
        assert_eq!(print_expr(&e), "t.value + 1");
        let neg = parse_expr("!x.f").unwrap();
        assert_eq!(print_expr(&neg), "!x.f");
    }
}
