//! Child processes measured from outside: spawn, reap with `wait4` for the
//! child's own CPU time, sample its peak RSS from `/proc`, stop daemons
//! without leaving one behind, and a one-request HTTP client for the
//! daemon's endpoints.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("sdbench reads struct rusage as laid out on 64-bit Linux");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs. The
/// longs are not read, `ru_maxrss` included: at `exec` Linux folds the
/// peak RSS of the spawning process into it, and this harness, holding a
/// corpus, is bigger than the programs it measures.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    unused: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// How long a daemon gets to drain after SIGTERM before SIGKILL.
const TERM_GRACE: Duration = Duration::from_secs(5);
/// How often a running child is checked for exit and its peak RSS read.
/// Bounds how stale the last RSS sample can be and how late an exit is
/// noticed (under 1 % of the shortest timed operation).
const REAP_POLL: Duration = Duration::from_millis(2);

/// What a reaped child cost, from its own `rusage` — never the harness's.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// System share of `cpu_s`.
    pub sys_s: f64,
    /// Peak resident set (`VmHWM`), MB, as last sampled before the exit.
    pub max_rss_mb: f64,
    /// Whether the child exited with status 0.
    pub success: bool,
}

/// A spawned child that is always reaped: explicitly through
/// [`Proc::wait`] / [`Proc::terminate`], or on drop (SIGTERM, then
/// SIGKILL after [`TERM_GRACE`]) when a failed run unwinds past it.
pub struct Proc {
    child: Child,
    reaped: bool,
    /// Highest `VmHWM` sampled so far, MB.
    peak_rss_mb: f64,
}

impl Proc {
    /// Spawn `cmd` with stdin closed.
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        let child = cmd.stdin(Stdio::null()).spawn()?;
        Ok(Proc {
            child,
            reaped: false,
            peak_rss_mb: 0.0,
        })
    }

    fn pid(&self) -> i32 {
        self.child.id() as i32
    }

    /// Read the child's peak RSS so far. A child that has exited (a
    /// zombie has no address space) keeps the last sample.
    fn sample_rss(&mut self) {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        let hwm_kb = status.ok().and_then(|text| {
            let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
        if let Some(kb) = hwm_kb {
            self.peak_rss_mb = self.peak_rss_mb.max(kb / 1024.0);
        }
    }

    /// One `wait4` call; `None` when `options` is `WNOHANG` and the child
    /// still runs.
    fn reap(&mut self, options: i32) -> io::Result<Option<Usage>> {
        let mut status = 0i32;
        let mut ru = RUsage::default();
        // SAFETY: `status` and `ru` are valid for writes for the duration
        // of the call, `RUsage` has the layout of the platform's `struct
        // rusage` (checked by the cfg gate above), and the pid is a child
        // of this process that has not been waited for yet (`reaped`).
        let got = unsafe { wait4(self.pid(), &mut status, options, &mut ru) };
        if got == 0 {
            return Ok(None);
        }
        if got < 0 {
            let e = io::Error::last_os_error();
            // Anything but EINTR means there is no child left to wait for.
            self.reaped = e.kind() != io::ErrorKind::Interrupted;
            return Err(e);
        }
        self.reaped = true;
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        let sys_s = secs(&ru.stime);
        Ok(Some(Usage {
            cpu_s: secs(&ru.utime) + sys_s,
            sys_s,
            max_rss_mb: self.peak_rss_mb,
            // WIFEXITED && WEXITSTATUS == 0
            success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        }))
    }

    /// Wait until the child exits, sampling its peak RSS meanwhile.
    pub fn wait(mut self) -> io::Result<Usage> {
        loop {
            match self.reap(WNOHANG) {
                Ok(Some(u)) => return Ok(u),
                Ok(None) => {
                    self.sample_rss();
                    std::thread::sleep(REAP_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn signal(&self, sig: i32) {
        // SAFETY: plain syscall on a pid this process spawned and has not
        // reaped, so the pid cannot have been recycled.
        unsafe { kill(self.pid(), sig) };
    }

    fn stop(&mut self) -> io::Result<Usage> {
        self.sample_rss();
        self.signal(SIGTERM);
        let deadline = Instant::now() + TERM_GRACE;
        while Instant::now() < deadline {
            if let Some(u) = self.reap(WNOHANG)? {
                return Ok(u);
            }
            self.sample_rss();
            std::thread::sleep(REAP_POLL);
        }
        self.signal(SIGKILL);
        loop {
            if let Some(u) = self.reap(0)? {
                return Ok(Usage {
                    success: false,
                    ..u
                });
            }
        }
    }

    /// SIGTERM the child and reap it, escalating to SIGKILL after
    /// [`TERM_GRACE`] (which counts as failure).
    pub fn terminate(mut self) -> io::Result<Usage> {
        self.stop()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.stop();
        }
    }
}

/// A scratch directory inside the current checkout, removed on drop — on
/// success and on a failed run alike.
pub struct Scratch {
    root: PathBuf,
}

/// Parent of every scratch directory (git-ignored).
pub const WORK_ROOT: &str = ".sdbench_work";

impl Scratch {
    /// Create `.sdbench_work/<pid>` under the current directory.
    pub fn new() -> io::Result<Scratch> {
        let root = std::env::current_dir()?
            .join(WORK_ROOT)
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A path under the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind; it stays when a trace file or a
        // concurrent run lives in it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The release binary `name`, which `run.sh` builds beside this harness.
pub fn sibling_binary(name: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found beside {}: build it with `cargo build --release -p sdchecker --bins` \
                 into the same target directory (sdbench/run.sh does both)",
                name,
                exe.display()
            ),
        ))
    }
}

/// One blocking `GET` on a fresh connection (the daemon's server closes
/// after each response). Returns the status and the body.
pub fn http_get(addr: &SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect_timeout(addr, Duration::from_secs(2))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: sdbench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header/body separator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// Read the address a daemon wrote to its `--port-file`, waiting up to
/// five seconds for it to appear.
pub fn read_port_file(path: &Path) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("daemon wrote no address to {}", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
