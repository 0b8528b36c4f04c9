//! `ftbench` — the ftrepair benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ftbench/Cargo.toml -- \
//!     --workload <chain|byzantine|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds `ftrepair` from source, then
//! drives it only through its user interfaces: `ftrepair repair
//! [--cautious] <file>` as child processes, one job at a time, and
//! `ftrepair serve` over HTTP. Every output is checked against pinned
//! known answers. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! replays the same generated inputs in-process with a span around each
//! call into a layer and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. METRICS.md describes every metric and workload.

mod child;
mod cli;
mod http;
mod json;
mod probe;
mod serve;
mod stats;
mod workload;

use cli::JobSample;
use ftbench::expected::Expected;
use ftbench::gen::{self, Shape};
use ftbench::replay::{self, Mode};
use ftbench::trace::Tracer;
use probe::Probe;
use serve::{Sample, Tally};
use stats::{json_str, median, percentile, Table};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Class, Plan};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Jobs per CLI lane even when the lane's time share runs out first.
const MIN_JOBS: usize = 3;
/// Length of one slice of the request stream, in seconds.
const STREAM_SLICE_S: f64 = 1.0;
/// The traced run fails if its layer spans cover less of a job than this.
const MIN_COVERAGE: f64 = 0.95;
/// Generator lateness (p99, ms) above which a run's stream is flagged as
/// not open-loop any more.
const GEN_LATE_BOUND_MS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "--seconds: not a whole number")?;
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| "--seed: not a whole number")?,
        seconds: seconds.max(1) as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftbench: {e}\nusage: ftbench --workload <chain|byzantine|serve> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = workload::plan(&args.workload) else {
        eprintln!("ftbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, plan) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, plan: &Plan) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err("run from the root of an ftrepair checkout".to_string());
    }
    let bin = build(&root)?;
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}-{}",
        plan.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
    let expected = Expected::pinned();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds + 120.0);
    let ctx = Ctx { args, plan, bin: &bin, work: &work.0, expected: &expected, deadline };

    let mut tally = Tally::default();
    let mut table = Table::default();
    let mut notes = Vec::new();
    let samples = if args.trace {
        traced(&ctx, &mut tally, &mut table, &mut notes)?
    } else {
        untraced(&ctx, &mut tally, &mut table, &mut notes)?
    };

    println!(
        "ftbench: workload {} seed {} seconds {} trace {}",
        plan.name, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance {}", provenance(&root, args, &samples));
    for m in &table.metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "fail_ratio = {fail_ratio} ({} of {} operations failed)",
        tally.failed, tally.attempted
    );
    for n in &notes {
        println!("note: {n}");
    }
    for e in &tally.errors {
        eprintln!("ftbench: failure: {e}");
    }
    if !table.missing.is_empty() {
        return Err(format!("no samples for {}", table.missing.join(", ")));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        table.json_fields()
    );
    Ok(())
}

struct Ctx<'a> {
    args: &'a Args,
    plan: &'a Plan,
    bin: &'a Path,
    work: &'a Path,
    expected: &'a Expected,
    deadline: Instant,
}

impl Ctx<'_> {
    fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now()).max(Duration::from_secs(1))
    }
}

/// Build the `ftrepair` binary from the checkout's source with the
/// release profile, into `$CARGO_TARGET_DIR` (default `target`).
fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "ftrepair"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ftrepair failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("ftrepair");
    if !bin.is_file() {
        return Err(format!("no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// The CLI lanes' jobs: mode, shape and the spec file, lazy lane first.
type CliFiles = [(Mode, Shape, PathBuf); 2];

/// Write the spec file of each CLI lane.
fn cli_files(ctx: &Ctx) -> Result<CliFiles, String> {
    let file = |mode: Mode, shape: Shape| -> Result<(Mode, Shape, PathBuf), String> {
        let path = ctx.work.join(format!("{}-{}.ftr", shape.label(), mode.as_str()));
        std::fs::write(&path, gen::spec(shape, ctx.args.seed, None))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok((mode, shape, path))
    };
    Ok([file(Mode::Lazy, ctx.plan.lazy)?, file(Mode::Cautious, ctx.plan.cautious)?])
}

/// Per-class sample counts and other run facts for the provenance line.
type SampleCounts = BTreeMap<&'static str, usize>;

fn untraced(
    ctx: &Ctx,
    tally: &mut Tally,
    table: &mut Table,
    notes: &mut Vec<String>,
) -> Result<SampleCounts, String> {
    let plan = ctx.plan;
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut ready: Option<serve::Ready> = None;
    let mut files = None;
    for k in 0..SETUP_REPS {
        if let Some(r) = ready.take() {
            r.daemon.stop()?;
        }
        let t = Instant::now();
        files = Some(cli_files(ctx)?);
        let store = ctx.work.join(format!("store-{k}"));
        ready = Some(serve::setup(ctx.bin, &store, plan, ctx.args.seed, ctx.expected, tally)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (ready, files) = ready.zip(files).expect("at least one set-up ran");

    let Lanes { lazy, cautious, stream } =
        measure(ctx, &files, &ready, tally, Some(&mut probe), None)?;
    let daemon = ready.daemon.stop()?;
    notes.push(format!("daemon peak RSS {:.2} MB", daemon.maxrss_kb as f64 / 1024.0));

    let ok_walls = |jobs: &[JobSample]| -> Vec<f64> {
        jobs.iter().filter(|j| j.result.is_ok()).map(|j| j.wall).collect()
    };
    let (lazy_w, cautious_w) = (ok_walls(&lazy), ok_walls(&cautious));
    // Timings are divided by the run's slowdown (see `probe`); the raw
    // figures are printed as notes.
    let slowdown = probe.slowdown().ok_or("the speed probe took no samples")?;
    let at_ref = |v: Option<f64>| v.map(|x| x / slowdown);
    table.put_opt("setup_s", at_ref(median(&setups)), "s", setups.len());
    table.put_opt("job_p50_s", at_ref(median(&lazy_w)), "s", lazy_w.len());
    table.put_opt("cautious_p50_s", at_ref(median(&cautious_w)), "s", cautious_w.len());
    // The largest CLI child. The daemon's peak depends on how its two
    // workers' requests happened to overlap (it was about 37 MB or about
    // 55 MB on `serve`, run to run), so it is a per-layer metric.
    let rss_kb = lazy.iter().chain(&cautious).map(|j| j.maxrss_kb).max().unwrap_or(0);
    table.put("peak_rss_mb", rss_kb as f64 / 1024.0, "MB", lazy.len() + cautious.len());

    let lat = |class: Class| -> Vec<f64> {
        stream
            .iter()
            .filter(|s| s.class == class && s.result.is_ok())
            .map(|s| s.latency_ms)
            .collect()
    };
    let (hit, miss, warm) = (lat(Class::Hit), lat(Class::Miss), lat(Class::Warm));
    table.put_opt("hit_p50_ms", at_ref(median(&hit)), "ms", hit.len());
    table.put_opt("miss_p50_ms", at_ref(median(&miss)), "ms", miss.len());
    table.put_opt("warm_p50_ms", at_ref(median(&warm)), "ms", warm.len());
    let within = stream
        .iter()
        .filter(|s| {
            let limit = match s.class {
                Class::Hit => plan.slo.hit_ms,
                Class::Miss => plan.slo.miss_ms,
                Class::Warm => plan.slo.warm_ms,
            };
            s.result.is_ok() && s.latency_ms <= limit
        })
        .count();
    table.put("slo_ok_ratio", within as f64 / stream.len().max(1) as f64, "ratio", stream.len());
    note_stream(&stream, notes);
    if let Some((chase, hash)) = probe.medians() {
        notes.push(format!(
            "speed probe: slowdown {slowdown:.4} (chase {:.3} ms, hash map {:.3} ms, n={})",
            chase * 1e3,
            hash * 1e3,
            probe.samples()
        ));
    }
    note_raw(notes, "setup", "s", &setups);
    note_raw(notes, "lazy job", "s", &lazy_w);
    note_raw(notes, "cautious job", "s", &cautious_w);
    note_raw(notes, "hit", "ms", &hit);
    note_raw(notes, "miss", "ms", &miss);
    note_raw(notes, "warm", "ms", &warm);

    let mut counts = SampleCounts::new();
    counts.insert("setups", setups.len());
    counts.insert("probes", probe.samples());
    counts.insert("lazy_jobs", lazy.len());
    counts.insert("cautious_jobs", cautious.len());
    counts.insert("hits", hit.len());
    counts.insert("misses", miss.len());
    counts.insert("warm", warm.len());
    Ok(counts)
}

/// Note the raw (not speed-normalized) quartiles and tail of a sample
/// set. The tails are not metrics: the hit p99 grows faster than the
/// machine's slowdown (queueing behind misses on two vCPUs), and a run
/// has too few misses for a p90 that repeats.
fn note_raw(notes: &mut Vec<String>, name: &str, unit: &str, v: &[f64]) {
    let q = |p: f64| percentile(v, p).unwrap_or(f64::NAN);
    notes.push(format!(
        "raw {name}: p25 {:.4} {unit}, p50 {:.4} {unit}, p90 {:.4} {unit}, p99 {:.4} {unit} (n={})",
        q(25.0),
        q(50.0),
        q(90.0),
        q(99.0),
        v.len()
    ));
}

/// Note per-class service times and the generator's lateness; returns
/// the lateness p99.
fn note_stream(stream: &[Sample], notes: &mut Vec<String>) -> Option<f64> {
    for class in [Class::Hit, Class::Miss, Class::Warm] {
        let service: Vec<f64> =
            stream.iter().filter(|s| s.class == class).map(|s| s.service_ms).collect();
        if let (Some(p50), Some(max)) = (median(&service), percentile(&service, 100.0)) {
            notes.push(format!(
                "{class:?} service (connect to answer) p50 {p50:.3} ms, max {max:.3} ms"
            ));
        }
    }
    let late: Vec<f64> = stream.iter().map(|s| s.gen_late_ms).collect();
    let p99 = percentile(&late, 99.0)?;
    notes.push(format!("generator lateness p99 {p99:.3} ms over {} requests", late.len()));
    if p99 > GEN_LATE_BOUND_MS {
        notes.push(format!(
            "generator lateness p99 exceeds {GEN_LATE_BOUND_MS} ms: the stream was not open-loop"
        ));
    }
    Some(p99)
}

/// Samples of the three lanes.
struct Lanes {
    lazy: Vec<JobSample>,
    cautious: Vec<JobSample>,
    stream: Vec<Sample>,
}

/// Run the lazy lane, the cautious lane and the stream interleaved, each
/// within its share of the run, so that every lane samples the whole run
/// (the machine's speed drifts within seconds). The next unit of work
/// always goes to the lane furthest behind its share: one CLI job, or one
/// `STREAM_SLICE_S` slice of the stream. Each CLI lane runs at least
/// `MIN_JOBS` jobs. With a probe, it is sampled after every unit of work,
/// and its time counts to that unit's lane. With a tracer, every CLI job is preceded by an
/// in-process traced replay of the same input.
fn measure(
    ctx: &Ctx,
    files: &CliFiles,
    ready: &serve::Ready,
    tally: &mut Tally,
    mut probe: Option<&mut Probe>,
    mut traced: Option<&mut TracedJobs>,
) -> Result<Lanes, String> {
    let plan = ctx.plan;
    let budgets = plan.shares.map(|s| s * ctx.args.seconds);
    let mut source = serve::Stream::new(plan, ctx.args.seed);
    let mut used = [0.0f64; 3];
    let mut out = Lanes { lazy: Vec::new(), cautious: Vec::new(), stream: Vec::new() };
    loop {
        let runs = [out.lazy.len(), out.cautious.len(), usize::MAX];
        let open = |l: usize| budgets[l] > 0.0 && (used[l] < budgets[l] || runs[l] < MIN_JOBS);
        let Some(l) = (0..3)
            .filter(|&l| open(l))
            .min_by(|&a, &b| (used[a] / budgets[a]).total_cmp(&(used[b] / budgets[b])))
        else {
            break;
        };
        let t = Instant::now();
        if l == 2 {
            let slice = STREAM_SLICE_S.min(budgets[2] - used[2]);
            out.stream.extend(serve::run_stream(
                ready,
                plan,
                ctx.args.seed,
                ctx.expected,
                &mut source,
                slice,
            ));
            if let Some(p) = probe.as_deref_mut() {
                p.sample();
            }
            used[2] += t.elapsed().as_secs_f64();
            continue;
        }
        let (mode, shape, path) = &files[l];
        if let Some(tj) = traced.as_deref_mut() {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let trace = tj.next_trace();
            let r = replay::replay_job(&mut tj.tracer, &src, *shape, *mode, trace, ctx.expected);
            tally.record(
                &format!("replay {} {}", shape.label(), mode.as_str()),
                &r.as_ref().map(|_| ()).map_err(Clone::clone),
            );
            if let Ok(rep) = r {
                tj.jobs.push((*mode, rep));
            }
        }
        let job = cli::run_job(ctx.bin, path, *shape, *mode, ctx.expected, ctx.remaining());
        tally.record(&format!("{} {} job", shape.label(), mode.as_str()), &job.result);
        if let Some(p) = probe.as_deref_mut() {
            p.sample();
        }
        used[l] += t.elapsed().as_secs_f64();
        if l == 0 {
            out.lazy.push(job)
        } else {
            out.cautious.push(job)
        }
    }
    for s in &out.stream {
        tally.record(&format!("{:?} request {:016x}", s.class, s.trace_id), &s.result);
    }
    Ok(out)
}

/// Per span name (inclusive, self) seconds of one replayed job, and the
/// job's wall time.
type JobLayers = (BTreeMap<String, (f64, f64)>, f64);

/// In-process replays of the traced run.
struct TracedJobs {
    tracer: Tracer,
    jobs: Vec<(Mode, replay::Replay)>,
    next: u64,
}

impl TracedJobs {
    fn next_trace(&mut self) -> u64 {
        self.next += 1;
        0x7000_0000_0000_0000 | self.next
    }
}

fn traced(
    ctx: &Ctx,
    tally: &mut Tally,
    table: &mut Table,
    notes: &mut Vec<String>,
) -> Result<SampleCounts, String> {
    let plan = ctx.plan;
    let files = cli_files(ctx)?;
    let ready =
        serve::setup(ctx.bin, &ctx.work.join("store"), plan, ctx.args.seed, ctx.expected, tally)?;
    let mut tj = TracedJobs { tracer: Tracer::new(), jobs: Vec::new(), next: 0 };

    let before = serve::scrape(ready.daemon.addr)?;
    let Lanes { lazy, stream, .. } = measure(ctx, &files, &ready, tally, None, Some(&mut tj))?;
    let after = serve::scrape(ready.daemon.addr)?;
    let daemon = ready.daemon.stop()?;
    serve::client_spans(&mut tj.tracer, &stream);
    let replay = serve::replay(
        &mut tj.tracer,
        &ctx.work.join("replay-store"),
        plan,
        ctx.args.seed,
        ctx.expected,
        tally,
    )?;

    // Layer times per lazy job (inclusive seconds of each span name).
    let tracer = &tj.tracer;
    let per_job = |mode: Mode| -> Vec<JobLayers> {
        tj.jobs
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, r)| {
                let root = tracer.get(r.root);
                (tracer.layer_times(root.trace), root.seconds())
            })
            .collect()
    };
    let lazy_layers = per_job(Mode::Lazy);
    let cautious_layers = per_job(Mode::Cautious);
    let layer = |jobs: &[JobLayers], name: &str| -> Vec<f64> {
        jobs.iter().map(|(l, _)| l.get(name).map_or(0.0, |t| t.0)).collect()
    };
    let put_layer = |table: &mut Table, metric: &str, span: &str| {
        let v = layer(&lazy_layers, span);
        table.put_opt(metric, median(&v), "s", v.len());
    };
    put_layer(table, "lang.parse_s", "lang.parse");
    put_layer(table, "lang.compile_s", "lang.compile");
    put_layer(table, "core.step1_s", "core.step1");
    put_layer(table, "core.step1.reachability_s", "core.step1.reachability");
    put_layer(table, "core.step1.ms_fixpoint_s", "core.step1.ms_fixpoint");
    put_layer(table, "core.step1.fixpoint_s", "core.step1.fixpoint");
    put_layer(table, "core.step2_s", "core.step2");
    let cautious_core = layer(&cautious_layers, "core.cautious");
    table.put_opt("core.cautious_s", median(&cautious_core), "s", cautious_core.len());
    put_layer(table, "program.verify_masking_s", "program.verify_masking");
    put_layer(table, "program.verify_realizability_s", "program.verify_realizability");
    put_layer(table, "program.render_s", "program.render");
    put_layer(table, "bdd.export_s", "bdd.export");

    // Deterministic counts, from the first lazy job.
    let Some(c) = tj.jobs.iter().find(|(m, _)| *m == Mode::Lazy).map(|(_, r)| r.counts) else {
        return Err("the traced run replayed no lazy job".to_string());
    };
    let n = 1; // samples: one job
    table.put("core.outer_iterations", c.outer_iterations as f64, "count", n);
    table.put("core.step2.picks", c.step2_picks as f64, "count", n);
    table.put("core.step2.groups_dropped", c.groups_dropped as f64, "count", n);
    table.put("bdd.nodes_created", c.caches.unique.misses as f64, "count", n);
    table.put("bdd.apply.misses", c.caches.apply.misses as f64, "count", n);
    table.put("bdd.apply.hit_rate", c.caches.apply.hit_rate(), "ratio", n);
    table.put("bdd.and_exists.misses", c.caches.and_exists.misses as f64, "count", n);
    table.put("bdd.and_exists.hit_rate", c.caches.and_exists.hit_rate(), "ratio", n);
    table.put("bdd.rename.misses", c.caches.rename.misses as f64, "count", n);
    table.put("bdd.quant.misses", c.caches.quant.misses as f64, "count", n);
    table.put("bdd.gc_runs", c.manager.gc_runs as f64, "count", n);
    table.put("bdd.reorder_swaps", c.manager.reorder_swaps as f64, "count", n);
    table.put("bdd.peak_live_nodes", c.manager.peak_live_nodes as f64, "count", n);
    table.put("bdd.cache_entries", c.manager.cache_entries as f64, "count", n);
    table.put("bdd.export_bytes", c.export_bytes as f64, "bytes", n);
    table.put_opt("bdd.import_s", median(&replay.import), "s", replay.import.len());

    table.put("server.peak_rss_mb", daemon.maxrss_kb as f64 / 1024.0, "MB", 1);
    table.put_opt("server.prepare_s", median(&replay.prepare), "s", replay.prepare.len());
    let request = serve::histogram_delta(&before, &after, "server.request.seconds");
    let queue = serve::histogram_delta(&before, &after, "server.queue_wait.seconds");
    let server_p50 = serve::percentile_s(&request, 50.0);
    table.put_opt("server.request_p50_s", server_p50, "s", request.count as usize);
    table.put_opt(
        "server.queue_wait_p99_s",
        serve::percentile_s(&queue, 99.0),
        "s",
        queue.count as usize,
    );
    let service: Vec<f64> =
        stream.iter().filter(|s| s.result.is_ok()).map(|s| s.service_ms).collect();
    let gap = median(&service).zip(server_p50).map(|(c, s)| c - s * 1e3);
    table.put_opt("server.client_gap_ms", gap, "ms", service.len());
    let hits =
        serve::counter(&after, "server.cache.hits") - serve::counter(&before, "server.cache.hits");
    let misses = serve::counter(&after, "server.cache.misses")
        - serve::counter(&before, "server.cache.misses");
    table.put(
        "server.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    let connect: Vec<f64> =
        stream.iter().map(|s| (s.timing.connected - s.timing.start).as_secs_f64() * 1e3).collect();
    table.put_opt("client.connect_p50_ms", median(&connect), "ms", connect.len());
    let late = note_stream(&stream, notes);
    table.put_opt("client.gen_late_p99_ms", late, "ms", stream.len());

    table.put_opt("store.nearest_s", median(&replay.nearest), "s", replay.nearest.len());
    table.put_opt("store.get_s", median(&replay.get), "s", replay.get.len());
    table.put_opt("store.put_s", median(&replay.put), "s", replay.put.len());
    table.put("store.bytes_written", replay.bytes_written as f64, "bytes", replay.put.len());

    // Tracing overhead: traced in-process lazy job minus untraced CLI job.
    let traced_walls: Vec<f64> = lazy_layers.iter().map(|(_, wall)| *wall).collect();
    let cli_walls: Vec<f64> = lazy.iter().filter(|j| j.result.is_ok()).map(|j| j.wall).collect();
    let overhead = median(&traced_walls).zip(median(&cli_walls)).map(|(t, u)| t - u);
    table.put_opt("trace.overhead_s", overhead, "s", traced_walls.len());
    // Share of each job's wall time its layer spans cover (self times
    // summed over every span but the job's own).
    let coverage: Vec<f64> = lazy_layers
        .iter()
        .map(|(l, wall)| {
            l.iter().filter(|(k, _)| k.as_str() != "job").map(|(_, t)| t.1).sum::<f64>() / wall
        })
        .collect();
    let cov = median(&coverage);
    table.put_opt("trace.coverage", cov, "ratio", coverage.len());
    if let Some(c) = cov.filter(|&c| c < MIN_COVERAGE) {
        tally.record(
            "trace coverage",
            &Err(format!("layer spans cover {c:.3} of a job, below {MIN_COVERAGE}")),
        );
    }

    // Self time of every layer, per lazy job.
    let mut names: Vec<&String> = lazy_layers.iter().flat_map(|(l, _)| l.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let own: Vec<f64> =
            lazy_layers.iter().map(|(l, _)| l.get(name).map_or(0.0, |t| t.1)).collect();
        notes.push(format!("self time {name}: {:.6} s per lazy job", median(&own).unwrap_or(0.0)));
    }

    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.jsonl", plan.name, ctx.args.seed));
    std::fs::write(&path, tj.tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));

    let mut counts = SampleCounts::new();
    counts.insert("traced_jobs", tj.jobs.len());
    counts.insert("requests", stream.len());
    counts.insert("replayed_requests", plan.replay_requests);
    Ok(counts)
}

/// Commit, machine and run facts, as one JSON object.
fn provenance(root: &Path, args: &Args, samples: &SampleCounts) -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counts: Vec<String> = samples.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"commit\": {}, \"source_sha256\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"samples\": {{{}}}}}",
        json_str(&commit),
        json_str(&source_digest(root)),
        json_str(&cpu),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        counts.join(", ")
    )
}

/// SHA-256 over the program's sources (paths and contents of every
/// `.rs` file and manifest under `src/` and `crates/`, plus the root
/// manifest and lock file), which names the code measured when the
/// checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut material = Vec::new();
    for f in files {
        material.extend_from_slice(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        material.push(0);
        material.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
        material.push(0);
    }
    ftrepair_store::sha256_hex(&material)
}
