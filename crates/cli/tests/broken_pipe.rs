//! A reader that closes the pipe early (`oolong vc FILE | head -1`) must
//! end the CLI quietly, not with a panic (exit status 101) and a
//! backtrace.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!("oolong-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    // A VC listing far larger than a pipe buffer, so the CLI is still
    // writing when the reader goes away.
    let mut source = String::from(
        "group g\nfield f in g\nproc w(x) modifies x.g\nimpl w(x) {\n  assume x != null",
    );
    for i in 0..3_000 {
        let _ = write!(source, " ;\n  x.f := {}", i % 7);
    }
    source.push_str("\n}\n");
    let file = dir.join("writes.oo");
    std::fs::write(&file, source).expect("writes the program");

    let mut child = Command::new(env!("CARGO_BIN_EXE_oolong"))
        .arg("vc")
        .arg(&file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns the oolong binary");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("reads one line");
    assert!(first.starts_with("=== VC for impl w"), "{first}");
    // The reader is dropped here: the pipe is closed.
    let output = child.wait_with_output().expect("the CLI exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
