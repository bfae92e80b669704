//! Every report binary reads its command line through
//! `reach_bench::args`: a flag it does not declare stops it at once
//! with exit status 1, the error naming the flag and the usage line,
//! and no panic.

use std::process::Command;

#[test]
fn undeclared_flags_stop_every_report_binary_without_a_panic() {
    for (binary, flag) in [
        (env!("CARGO_BIN_EXE_claims"), "--dynamc"),
        (env!("CARGO_BIN_EXE_figure1"), "--x"),
        (env!("CARGO_BIN_EXE_sweep"), "--bogus"),
        (env!("CARGO_BIN_EXE_table1"), "--bogus"),
        (env!("CARGO_BIN_EXE_table2"), "--bogus"),
        (env!("CARGO_BIN_EXE_throughput"), "--bogus"),
    ] {
        let out = Command::new(binary).arg(flag).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{binary}: {stderr}");
        assert!(out.stdout.is_empty(), "{binary} ran before failing");
        let mut lines = stderr.lines();
        assert_eq!(
            lines.next(),
            Some(&*format!("error: unknown flag {flag:?}"))
        );
        assert!(
            lines.next().is_some_and(|l| l.starts_with("usage: ")),
            "{stderr}"
        );
        assert_eq!(lines.next(), None, "{stderr}");
    }
}
