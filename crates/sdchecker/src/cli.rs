//! The one command line of the workspace's binaries (`sdchecker`,
//! `sdcheckerd`, `sdsim`, `run_experiments`): reading flags, and the one
//! way a run stops.
//!
//! Exit codes: 0 for success or `--help`/`-h`, 1 when the run fails, 2
//! for a bad command line. A stop's reason goes to stderr; a stderr that
//! cannot be written (closed, full) changes nothing about the exit code.

use std::fmt::Display;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use crate::report::write_stdout;

/// Why a run ended before success.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// A bad command line: the reason, then the usage line; exit 2.
    Usage(String),
    /// The run failed: the reason; exit 1.
    Fail(String),
}

/// A [`Stop::Fail`] reading `{what}: {error}`.
pub trait OrFail<T> {
    fn or_fail(self, what: impl Display) -> Result<T, Stop>;
}

impl<T, E: Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, what: impl Display) -> Result<T, Stop> {
        self.map_err(|e| Stop::Fail(format!("{what}: {e}")))
    }
}

/// A cursor over the command line after the program name.
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    fn new(args: Vec<String>) -> Args {
        Args {
            rest: args.into_iter(),
        }
    }

    /// The leading positional argument, named `what` (`<log-dir>`).
    pub fn positional(&mut self, what: &str) -> Result<String, Stop> {
        match self.rest.next() {
            None => Err(Stop::Usage(format!("missing {what}"))),
            Some(a) if a.starts_with('-') => Err(Stop::Usage(format!(
                "expected {what} as the first argument, got {a}"
            ))),
            Some(a) => Ok(a),
        }
    }

    /// The next flag, if any is left.
    pub fn flag(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value following `flag`, parsed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, Stop> {
        let v = self
            .rest
            .next()
            .ok_or_else(|| Stop::Usage(format!("{flag} requires a value")))?;
        v.parse()
            .map_err(|_| Stop::Usage(format!("invalid {flag} value: {v}")))
    }

    /// [`Args::value`], which must also satisfy `pred`: `{flag} must be
    /// {want}` otherwise.
    pub fn value_if<T: FromStr>(
        &mut self,
        flag: &str,
        want: &str,
        pred: impl FnOnce(&T) -> bool,
    ) -> Result<T, Stop> {
        let v = self.value(flag)?;
        if pred(&v) {
            Ok(v)
        } else {
            Err(Stop::Usage(format!("{flag} must be {want}")))
        }
    }
}

/// The stop for a flag no arm of the parse loop knows.
pub fn unknown(flag: &str) -> Stop {
    Stop::Usage(format!("unknown argument: {flag}"))
}

fn asks_for_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Write `text` to stderr. Nothing is left to tell if that fails.
fn note(text: impl Display) {
    let _ = writeln!(io::stderr(), "{text}");
}

/// A binary's whole `main`: `--help` or `-h` anywhere prints `usage` to
/// stdout; otherwise `run` gets the command line, and a [`Stop`] becomes
/// its reason on stderr (then `usage`, for [`Stop::Usage`]) and its exit
/// code.
pub fn main(usage: &str, run: impl FnOnce(Args) -> Result<(), Stop>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if asks_for_help(&args) {
        let _ = write_stdout(&format!("{usage}\n"));
        return ExitCode::SUCCESS;
    }
    match run(Args::new(args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Usage(why)) => {
            note(format_args!("{why}\n{usage}"));
            ExitCode::from(2)
        }
        Err(Stop::Fail(why)) => {
            note(why);
            ExitCode::FAILURE
        }
    }
}

/// Write `bytes` to `path`, then note `wrote {what} to {path}` on stderr
/// unless `quiet`.
pub fn write_output(
    path: &Path,
    bytes: impl AsRef<[u8]>,
    what: impl Display,
    quiet: bool,
) -> Result<(), Stop> {
    stream_output(path, what, quiet, |mut file| file.write_all(bytes.as_ref()))
}

/// Create `path` and hand it to `write` — a document rendered straight
/// into the file, never whole in memory — then note `wrote {what} to
/// {path}` on stderr unless `quiet`. An error of `write`'s fails the run
/// as one of `create`'s does.
pub fn stream_output(
    path: &Path,
    what: impl Display,
    quiet: bool,
    write: impl FnOnce(std::fs::File) -> io::Result<()>,
) -> Result<(), Stop> {
    let result = std::fs::File::create(path).and_then(write);
    written(path, result, what, quiet)
}

/// What writing `path` came to: an error fails the run; otherwise note
/// `wrote {what} to {path}` on stderr unless `quiet`.
pub fn written(
    path: &Path,
    result: io::Result<()>,
    what: impl Display,
    quiet: bool,
) -> Result<(), Stop> {
    result.or_fail(format_args!("failed to write {}", path.display()))?;
    if !quiet {
        note(format_args!("wrote {what} to {}", path.display()));
    }
    Ok(())
}

/// The `--trace-out` / `--metrics-out` files of the global recorder, the
/// last thing a batch binary writes.
pub fn write_observability(
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
    quiet: bool,
) -> Result<(), Stop> {
    obs::export::write_files(obs::global(), trace_out, metrics_out)
        .or_fail("failed to write observability output")?;
    if !quiet {
        if let Some(p) = trace_out {
            note(format_args!(
                "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
                p.display()
            ));
        }
        if let Some(p) = metrics_out {
            note(format_args!("wrote metrics to {}", p.display()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    fn usage<T: std::fmt::Debug>(r: Result<T, Stop>) -> String {
        match r {
            Err(Stop::Usage(why)) => why,
            other => panic!("expected a usage stop, got {other:?}"),
        }
    }

    #[test]
    fn positional_is_not_a_flag_and_must_be_there() {
        assert_eq!(args(&["logs"]).positional("<log-dir>"), Ok("logs".into()));
        let why = usage(args(&["--quiet"]).positional("<log-dir>"));
        assert_eq!(why, "expected <log-dir> as the first argument, got --quiet");
        assert_eq!(
            usage(args(&[]).positional("<log-dir>")),
            "missing <log-dir>"
        );
    }

    #[test]
    fn values_name_their_flag() {
        let mut a = args(&["--threads", "4", "--threads", "many", "--threads"]);
        assert_eq!(a.flag().as_deref(), Some("--threads"));
        assert_eq!(a.value::<usize>("--threads"), Ok(4));
        a.flag();
        let why = usage(a.value::<usize>("--threads"));
        assert_eq!(why, "invalid --threads value: many");
        a.flag();
        assert_eq!(
            usage(a.value::<usize>("--threads")),
            "--threads requires a value"
        );
        assert_eq!(a.flag(), None);
    }

    #[test]
    fn value_if_rejects_what_its_predicate_does() {
        let ok = args(&["2"]).value_if("--poll-ms", "at least 1", |n: &u64| *n > 0);
        assert_eq!(ok, Ok(2));
        let why = usage(args(&["0"]).value_if("--poll-ms", "at least 1", |n: &u64| *n > 0));
        assert_eq!(why, "--poll-ms must be at least 1");
        let why = usage(args(&["x"]).value_if("--poll-ms", "at least 1", |n: &u64| *n > 0));
        assert_eq!(why, "invalid --poll-ms value: x");
    }

    #[test]
    fn help_wins_even_where_a_value_is_expected() {
        let line = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(asks_for_help(&line(&["logs", "--csv", "-h"])));
        assert!(asks_for_help(&line(&["--help"])));
        assert!(!asks_for_help(&line(&["logs", "--csv", "h.csv"])));
        assert_eq!(
            unknown("--bogus"),
            Stop::Usage("unknown argument: --bogus".into())
        );
    }
}
