//! Binary-level tests of the `experiments` tools: what a shell sees of
//! `sdsim` and `run_experiments`, beyond what their library calls
//! return.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("experiments_cli_{name}_{}", std::process::id()))
}

/// Run `child` to its end with nobody reading its standard output: the
/// read end of the pipe is closed before the child can have written.
fn run_unread(mut child: Child) -> Output {
    drop(child.stdout.take());
    child.wait_with_output().unwrap()
}

fn assert_clean_exit(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{what}: {:?}\n{stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

/// `sdsim … | head`: a reader that goes away costs the text on stdout
/// and nothing else — exit 0 and the same report file as an undisturbed
/// run.
#[test]
fn a_closed_stdout_costs_sdsim_its_text_and_nothing_else() {
    let dir = tmp("pipe");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let sdsim = |report: &Path| {
        Command::new(env!("CARGO_BIN_EXE_sdsim"))
            .args(["--queries", "3", "--seed", "7", "--quiet", "--timeline"])
            .arg("--report-json")
            .arg(report)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let (read, unread) = (dir.join("read.json"), dir.join("unread.json"));

    let out = sdsim(&read).wait_with_output().unwrap();
    assert_clean_exit(&out, "undisturbed run");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("SDchecker analysis"), "{text}");

    let out = run_unread(sdsim(&unread));
    assert_clean_exit(&out, "unread run");
    let report = fs::read(&unread).expect("the report is written all the same");
    assert!(!report.is_empty());
    assert_eq!(report, fs::read(&read).unwrap());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_survives_a_closed_stdout() {
    for bin in [
        env!("CARGO_BIN_EXE_sdsim"),
        env!("CARGO_BIN_EXE_run_experiments"),
    ] {
        let help = || {
            Command::new(bin)
                .arg("--help")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        };
        let out = help().wait_with_output().unwrap();
        assert_clean_exit(&out, bin);
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("usage: "),
            "{bin}"
        );
        assert_clean_exit(&run_unread(help()), bin);
    }
}
