//! Deterministic scaling checks of VC generation (work counters and sizes,
//! no wall clock):
//!
//! - the VC of `n` straight-line heap writes grows linearly (at most 2.1×
//!   per doubling of `n`, from 1k to 64k writes);
//! - `k` sequential two-armed choices of licensed writes verify with O(k)
//!   case splits, since the arms share one continuation instead of
//!   doubling it;
//! - 100k-statement bodies of heap writes, local assignments, or
//!   assumptions get an answer from the `oolong` binary instead of
//!   aborting on a stack overflow.

use oolong::datagroups::{CheckOptions, Checker, Verdict};
use oolong::syntax::parse_program;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// `n` straight-line writes under one group license.
fn writes_source(n: usize) -> String {
    let mut out =
        String::from("group g\nfield f in g\nfield h in g\nproc w(x) modifies x.g\nimpl w(x) {\n  assume x != null");
    for i in 0..n {
        let field = if i % 2 == 0 { "f" } else { "h" };
        let _ = write!(out, " ;\n  x.{field} := {}", i % 89);
    }
    out.push_str("\n}\n");
    out
}

/// `k` sequential two-armed choices, each arm a licensed write.
fn choices_source(k: usize) -> String {
    let mut out = String::from(
        "group g\nfield f in g\nproc c(x) modifies x.g\nimpl c(x) {\n  assume x != null",
    );
    for i in 0..k {
        let _ = write!(out, " ;\n  {{ x.f := {} [] x.f := {} }}", 2 * i, 2 * i + 1);
    }
    out.push_str("\n}\n");
    out
}

fn checker(source: &str) -> Checker {
    let program = parse_program(source).expect("parses");
    Checker::new(&program, CheckOptions::default()).expect("analyses")
}

#[test]
fn vc_size_is_linear_in_heap_writes() {
    let mut previous = None;
    for n in [1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000] {
        let checker = checker(&writes_source(n));
        let (impl_id, _) = checker.scope().impls().next().expect("one impl");
        let size = checker.vc(impl_id).expect("vc generates").size();
        if let Some(smaller) = previous {
            let growth = size as f64 / smaller as f64;
            assert!(
                growth <= 2.1,
                "VC size grew {growth:.2}x from n/2 to n = {n}"
            );
        }
        previous = Some(size);
    }
}

#[test]
fn sequential_choices_verify_with_linear_branching() {
    let k = 64;
    let checker = checker(&choices_source(k));
    let report = checker.check_all();
    let rep = &report.impls[0];
    let Verdict::Verified(stats) = &rep.verdict else {
        panic!("{k} sequential choices: {}", rep.verdict);
    };
    assert!(
        stats.branches <= 4 * k as u64,
        "{k} sequential choices took {} case splits",
        stats.branches
    );
    let vc = checker.vc(rep.impl_id).expect("vc generates");
    assert_eq!(vc.shared_continuations, k - 1);
}

/// The `oolong` binary of this checkout, built on demand.
fn oolong_binary() -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "build",
            "--quiet",
            "--offline",
            "-p",
            "oolong-cli",
            "--bin",
            "oolong",
            "--message-format=json",
        ])
        .output()
        .expect("runs cargo build");
    assert!(
        output.status.success(),
        "building oolong failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let messages = String::from_utf8(output.stdout).expect("cargo prints UTF-8");
    let line = messages
        .lines()
        .find(|l| l.contains("\"executable\":\"") && l.contains("\"name\":\"oolong\""))
        .expect("cargo reports the oolong executable");
    let start = line.find("\"executable\":\"").expect("has executable") + "\"executable\":\"".len();
    let end = start + line[start..].find('"').expect("terminated");
    PathBuf::from(&line[start..end])
}

#[test]
fn hundred_thousand_statements_get_an_answer() {
    let n = 100_000;
    let mut local = String::from("proc l(x)\nimpl l(x) {\n  var y in\n    y := 0");
    let mut assumes = String::from("field f\nproc a(x)\nimpl a(x) {\n  assume x != null");
    for i in 0..n {
        let _ = write!(local, " ;\n    y := {}", i % 7);
        let _ = write!(assumes, " ;\n  assume x.f != {i}");
    }
    local.push_str("\n  end\n}\n");
    assumes.push_str("\n}\n");

    let binary = oolong_binary();
    let dir = std::env::temp_dir().join(format!("oolong-vc-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    for (name, source) in [
        ("writes", writes_source(n)),
        ("locals", local),
        ("assumes", assumes),
    ] {
        let file = dir.join(format!("{name}.oo"));
        std::fs::write(&file, source).expect("writes the program");
        let output = Command::new(&binary)
            .arg("check")
            .arg(&file)
            .output()
            .expect("runs oolong check");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            matches!(output.status.code(), Some(0 | 1)),
            "{name}: exit {:?}\n{stderr}",
            output.status
        );
        assert!(
            stdout.contains("verified") || stdout.contains("unknown"),
            "{name}: no verdict in\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
