//! The CLI lane: `ftrepair repair [--cautious] <file>` jobs as child
//! processes, checked against the pinned answers.

use crate::child;
use ftbench::expected::Expected;
use ftbench::gen::Shape;
use ftbench::replay::Mode;
use std::path::Path;
use std::time::Duration;

/// One CLI job: its wall time and peak RSS, or why it failed.
pub struct JobSample {
    pub wall: f64,
    pub maxrss_kb: u64,
    pub result: Result<(), String>,
}

/// Run one job and check its output against the known answer.
pub fn run_job(
    bin: &Path,
    file: &Path,
    shape: Shape,
    mode: Mode,
    expected: &Expected,
    timeout: Duration,
) -> JobSample {
    let file = file.to_string_lossy();
    let mut args = vec!["repair", file.as_ref()];
    if mode == Mode::Cautious {
        args.push("--cautious");
    }
    match child::run(bin, &args, timeout) {
        Err(e) => JobSample { wall: 0.0, maxrss_kb: 0, result: Err(format!("spawn failed: {e}")) },
        Ok(run) => {
            let result = check_cli_output(&run, shape, mode, expected);
            JobSample { wall: run.wall, maxrss_kb: run.exit.maxrss_kb, result }
        }
    }
}

fn check_cli_output(
    run: &child::JobRun,
    shape: Shape,
    mode: Mode,
    expected: &Expected,
) -> Result<(), String> {
    if run.exit.code != Some(0) {
        let last = run.stderr.lines().last().unwrap_or("");
        return Err(format!("exit {:?}: {last}", run.exit.code));
    }
    if !run.stderr.lines().any(|l| l == "verified: masking=true realizability=true") {
        return Err("output not verified".to_string());
    }
    let counts = run
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("// invariant: "))
        .and_then(|rest| {
            let (inv, rest) = rest.split_once(" states, fault-span: ")?;
            Some((inv.to_string(), rest.strip_suffix(" states")?.to_string()))
        })
        .ok_or("no state counts in output")?;
    expected.check(shape, mode.as_str(), &counts.0, &counts.1)
}
