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

/// Run `bin` with `args`: a usage error exits 2, and the first line of
/// stderr names what was wrong with the command line.
fn assert_usage_error(bin: &str, args: &[&str], names: &str) -> String {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(names), "{args:?}: {first}");
    stderr
}

#[test]
fn rejects_bad_usage() {
    let sdsim = env!("CARGO_BIN_EXE_sdsim");
    for (args, names) in [
        (&["--bogus"][..], "--bogus"),
        (&["--queries"], "--queries"),
        (&["--queries", "many"], "--queries"),
        (&["--scheduler", "fifo"], "--scheduler"),
        (&["--arrivals", "steady"], "--arrivals"),
        (&["--rate", "-1"], "--rate"),
        (&["--stream-flush-every", "0"], "--stream-flush-every"),
    ] {
        assert_usage_error(sdsim, args, names);
    }
    let run_experiments = env!("CARGO_BIN_EXE_run_experiments");
    for (args, names) in [
        (&["--bogus"][..], "--bogus"),
        (&["--out"], "--out"),
        (&["--seed", "x"], "--seed"),
        (&["--only", "bogus"], "--only"),
    ] {
        assert_usage_error(run_experiments, args, names);
    }
}

/// Numbers the simulator cannot mean are usage errors, not a panic deep
/// in a distribution or a run of some other configuration.
#[test]
fn sdsim_rejects_out_of_range_numbers() {
    for (flag, v) in [
        ("--input-mb", "nan"),
        ("--input-mb", "-5"),
        ("--input-mb", "inf"),
        ("--extra-files-mb", "-1"),
        ("--launch-failure-rate", "nan"),
        ("--launch-failure-rate", "1.5"),
        ("--localization-failure-rate", "-0.1"),
        ("--node-loss", "soon:3"),
        ("--node-loss", "120000:third"),
        ("--node-loss", "120000"),
        ("--node-loss", "120000:25"),
    ] {
        let args = ["--queries", "1", "--quiet", flag, v];
        assert_usage_error(env!("CARGO_BIN_EXE_sdsim"), &args, flag);
    }
}

/// Every file under `dir`, by relative path, with its bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                files.push((rel, fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// One faulted scenario, three views of it that must agree byte for
/// byte: `sdsim --report-json`, analysed from the simulator's store,
/// equals what `sdchecker --report-json` writes over the run's `--out`
/// tree (`analyze_dir_with`, then `Report::write_documents`), and the unpaced
/// `--stream-to` replay of the same run writes the `--out` tree file for
/// file.
#[test]
fn sdsim_report_and_stream_match_the_written_corpus() {
    let dir = tmp("identity");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let sdsim = |args: &[&Path]| {
        let out = Command::new(env!("CARGO_BIN_EXE_sdsim"))
            .args(["--queries", "20", "--launch-failure-rate", "0.1"])
            .args(["--node-loss", "120000:3", "--fault-seed", "7", "--quiet"])
            .args(args)
            .output()
            .unwrap();
        assert_clean_exit(&out, "sdsim");
    };
    let (out, stream, report) = (dir.join("out"), dir.join("stream"), dir.join("report.json"));
    sdsim(&[
        Path::new("--out"),
        &out,
        Path::new("--report-json"),
        &report,
    ]);
    sdsim(&[
        Path::new("--stream-to"),
        &stream,
        Path::new("--rate"),
        Path::new("0"),
    ]);

    let analysis = sdchecker::analyze_dir_with(&out, sdchecker::Parallelism::ONE).unwrap();
    let mut from_dir = Vec::new();
    let one = sdchecker::Parallelism::ONE;
    let [_, json, _] =
        sdchecker::Report::new(&analysis).write_documents(one, None, Some(&mut from_dir), None);
    json.unwrap();
    assert!(
        analysis.delays.len() >= 20,
        "{} apps",
        analysis.delays.len()
    );
    assert!(
        fs::read(&report).unwrap() == from_dir,
        "report-json differs"
    );

    let written = tree(&out);
    assert!(written.len() > 20, "{} files", written.len());
    assert!(tree(&stream) == written, "the replay differs from --out");
    fs::remove_dir_all(&dir).unwrap();
}

/// `--only` with an id no experiment has is a usage error naming it and
/// the known ids; nothing runs, nothing is written.
#[test]
fn only_rejects_unknown_ids() {
    let dir = tmp("only");
    let _ = fs::remove_dir_all(&dir);
    let args = ["--quick", "--quiet", "--only", "fig4,bogus", "--out"];
    let stderr = assert_usage_error(
        env!("CARGO_BIN_EXE_run_experiments"),
        &[&args[..], &[dir.to_str().unwrap()]].concat(),
        "bogus",
    );
    assert!(
        stderr.contains("table2") && stderr.contains("opts"),
        "{stderr}"
    );
    assert!(!dir.exists(), "nothing may be written");
}

/// A report the device will not take fails the run: exit 1 and the file
/// named on stderr, not a panic.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_report_write_fails_sdsim() {
    let out = Command::new(env!("CARGO_BIN_EXE_sdsim"))
        .args(["--queries", "3", "--seed", "7", "--quiet"])
        .args(["--report-json", "/dev/full"])
        .stdout(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write /dev/full"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Opened on a full device, stderr cannot take the reason a run stops
/// for; the exit code is still the contract's, not a panic's 101.
#[cfg(target_os = "linux")]
#[test]
fn a_full_stderr_leaves_exit_codes_alone() {
    for bin in [
        env!("CARGO_BIN_EXE_sdsim"),
        env!("CARGO_BIN_EXE_run_experiments"),
    ] {
        let full = fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let status = Command::new(bin)
            .arg("--bogus")
            .stdout(Stdio::null())
            .stderr(full)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{bin}");
    }
}
