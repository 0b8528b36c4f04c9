//! Child processes, reaped with `wait4` so each exit comes with the
//! child's peak resident memory (`ru_maxrss`). The workspace has no
//! dependencies, so libc is declared here directly.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which `ru_maxrss` (in KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

pub const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;

/// How a reaped child ended.
pub struct Exit {
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Peak resident set size in KiB.
    pub maxrss_kb: u64,
}

/// Block until `child` exits and reap it. The `Child` handle must not be
/// waited on afterwards.
pub fn reap(child: &Child) -> io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the kernel's `int` and `struct rusage`; `pid` is our own
        // unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
    Ok(Exit { code, maxrss_kb: ru.maxrss.max(0) as u64 })
}

/// Send `sig` to a child that has not been reaped yet.
pub fn signal(child: &Child, sig: i32) {
    // SAFETY: plain syscall on a pid we own; an error (already exited)
    // is harmless and ignored.
    unsafe {
        kill(child.id() as i32, sig);
    }
}

/// One finished CLI job.
pub struct JobRun {
    /// Seconds from spawn to reaped exit.
    pub wall: f64,
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
}

/// Run `bin args…` to completion, capturing its output; the child is
/// killed if it outlives `timeout`.
pub fn run(bin: &Path, args: &[&str], timeout: Duration) -> io::Result<JobRun> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let mut out_pipe = child.stdout.take().expect("stdout is piped");
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (stdout, stderr, exit) = std::thread::scope(|s| {
        let err_reader = s.spawn(move || {
            let mut text = String::new();
            let _ = err_pipe.read_to_string(&mut text);
            text
        });
        let child_ref = &child;
        s.spawn(move || {
            if done_rx.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
                signal(child_ref, SIGKILL);
            }
        });
        let mut stdout = String::new();
        let _ = out_pipe.read_to_string(&mut stdout);
        let exit = reap(child_ref);
        let _ = done_tx.send(());
        (stdout, err_reader.join().unwrap_or_default(), exit)
    });
    Ok(JobRun { wall: start.elapsed().as_secs_f64(), exit: exit?, stdout, stderr })
}
