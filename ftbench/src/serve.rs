//! The daemon lane: `ftrepair serve` as a child process, its set-up
//! (prefilled store, warmed hot set), an open-loop request stream over at
//! most two connections, and the in-process replay of the same stream for
//! the traced run.

use crate::child::{self, Exit};
use crate::http;
use crate::json;
use crate::workload::{Class, Plan};
use ftbench::expected::Expected;
use ftbench::gen::{self, Edit, Shape};
use ftbench::trace::Tracer;
use ftrepair_bdd::SplitMix64;
use ftrepair_core::{RepairOptions, Token};
use ftrepair_server::job::{self, Mode, WarmInfo};
use ftrepair_store::{DiskStore, NewEntry, ART_INVARIANT, ART_SPAN};
use ftrepair_telemetry::report::histogram_from_json;
use ftrepair_telemetry::{HistogramSnapshot, Json, Telemetry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Same bound the daemon uses for near-key lookups.
const WARM_MAX_DISTANCE: usize = 16;

/// A running `ftrepair serve`. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    readers: Vec<JoinHandle<String>>,
}

impl Daemon {
    pub fn start(bin: &Path, store_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--store-dir"])
            .arg(store_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut err = child.stderr.take().expect("stderr is piped");
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            readers: vec![std::thread::spawn(move || {
                let mut text = String::new();
                let _ = err.read_to_string(&mut text);
                text
            })],
        };
        let mut line = String::new();
        loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("the daemon exited before listening".to_string()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                daemon.addr = addr.parse().map_err(|_| format!("bad listen address {addr:?}"))?;
                break;
            }
        }
        daemon.readers.push(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = out.read_to_string(&mut rest);
            rest
        }));
        Ok(daemon)
    }

    /// Graceful stop (SIGTERM, drain), returning the exit and peak RSS.
    #[allow(clippy::zombie_processes)] // reaped by `child::reap` (wait4)
    pub fn stop(mut self) -> Result<Exit, String> {
        let child = self.child.take().expect("a daemon is stopped once");
        child::signal(&child, child::SIGTERM);
        let exit = child::reap(&child).map_err(|e| format!("cannot reap the daemon: {e}"))?;
        let mut stderr = String::new();
        for r in self.readers.drain(..) {
            stderr.push_str(&r.join().unwrap_or_default());
        }
        match exit.code {
            Some(0) => Ok(exit),
            code => Err(format!("daemon exited with {code:?}: {}", stderr.trim_end())),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            child::signal(&child, child::SIGKILL);
            let _ = child::reap(&child);
            for r in self.readers.drain(..) {
                let _ = r.join();
            }
        }
    }
}

/// A seed for the `k`-th spec of a given role, distinct per role and run.
fn derive(seed: u64, role: u64, k: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ role.rotate_left(40) ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .next_u64()
}

const ROLE_HOT: u64 = 1;
const ROLE_DONOR: u64 = 2;
const ROLE_MISS: u64 = 3;

pub fn hot_spec(plan: &Plan, seed: u64, k: usize) -> String {
    gen::spec(plan.hot[k], derive(seed, ROLE_HOT, k as u64), None)
}

pub fn donor_spec(plan: &Plan, seed: u64, k: usize) -> String {
    gen::spec(plan.donors[k], derive(seed, ROLE_DONOR, k as u64), None)
}

/// One request of the stream.
pub struct Req {
    pub class: Class,
    pub shape: Shape,
    /// Index into the hot set, for hits.
    pub hot: Option<usize>,
    pub text: String,
}

/// The request stream of a run: a pure function of the plan, the seed and
/// the position, so the traced run can replay it.
pub struct Stream<'a> {
    plan: &'a Plan,
    seed: u64,
    /// Position of the next request in the stream.
    next: usize,
    counts: [usize; 3],
}

impl<'a> Stream<'a> {
    pub fn new(plan: &'a Plan, seed: u64) -> Stream<'a> {
        Stream { plan, seed, next: 0, counts: [0; 3] }
    }
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let p = self.plan;
        let class = p.pattern[self.next % p.pattern.len()];
        self.next += 1;
        let k = self.counts[class as usize];
        self.counts[class as usize] += 1;
        Some(match class {
            Class::Hit => {
                let h = k % p.hot.len();
                Req { class, shape: p.hot[h], hot: Some(h), text: hot_spec(p, self.seed, h) }
            }
            Class::Miss => {
                let text = gen::spec(p.miss, derive(self.seed, ROLE_MISS, k as u64), None);
                Req { class, shape: p.miss, hot: None, text }
            }
            Class::Warm => {
                let d = k % p.donors.len();
                let shape = p.donors[d];
                let edit = Edit { process: k / p.donors.len(), tag: k as u64 };
                let text = gen::spec(shape, derive(self.seed, ROLE_DONOR, d as u64), Some(edit));
                Req { class, shape, hot: None, text }
            }
        })
    }
}

/// POST a spec to `/repair` and return the body of a 200 answer.
fn post(
    addr: SocketAddr,
    text: &str,
    trace_id: u64,
    timeout: Duration,
) -> (Result<String, String>, http::Timing) {
    let id = format!("{trace_id:016x}");
    let now = Instant::now();
    match http::request(addr, "POST", "/repair", text, &id, timeout) {
        Err(e) => (
            Err(format!("request failed: {e}")),
            http::Timing {
                start: now,
                connected: now,
                sent: now,
                first_byte: now,
                done: Instant::now(),
            },
        ),
        Ok((resp, timing)) => {
            let body = if resp.status != 200 {
                Err(format!("HTTP {}: {}", resp.status, resp.body.trim()))
            } else if resp.trace_id.as_deref() != Some(id.as_str()) {
                Err(format!("trace id {id} echoed as {:?}", resp.trace_id))
            } else {
                Ok(resp.body)
            };
            (body, timing)
        }
    }
}

/// Check a `/repair` body: verified, the pinned counts, the cache path
/// its class implies, and (for hits) the program text of the miss that
/// filled the entry.
fn check(
    body: &str,
    req: &Req,
    expected: &Expected,
    hot_programs: &[String],
) -> Result<(), String> {
    let members = json::members(body)?;
    let get = |k: &str| members.iter().find(|(m, _)| *m == k).map(|(_, v)| *v);
    let flag = |k: &str| json::as_bool(get(k));
    check_counts(&get, req.shape, expected)?;
    let cached = flag("cached") == Some(true);
    let warm = flag("warm_start") == Some(true);
    match req.class {
        Class::Hit if !cached => return Err("hot spec missed the cache".to_string()),
        Class::Miss | Class::Warm if cached => return Err("fresh spec was a cache hit".to_string()),
        Class::Warm if !warm => return Err("edit was not warm-started".to_string()),
        Class::Miss if warm => return Err("fresh spec was warm-started".to_string()),
        _ => {}
    }
    if let Some(h) = req.hot {
        if get("program") != Some(hot_programs[h].as_str()) {
            return Err("hit returned a different program than the miss that filled it".to_string());
        }
    }
    Ok(())
}

/// Verified, successful, and the pinned state counts.
fn check_counts<'a>(
    get: &dyn Fn(&str) -> Option<&'a str>,
    shape: Shape,
    expected: &Expected,
) -> Result<(), String> {
    if json::as_bool(get("verified")) != Some(true) || json::as_bool(get("failed")) != Some(false) {
        return Err("result not verified".to_string());
    }
    let count = |k: &str| json::as_f64(get(k)).map(|v| v.to_string()).unwrap_or_default();
    expected.check(shape, "lazy", &count("invariant_states"), &count("span_states"))
}

/// Fetch `/metrics` (JSON text).
pub fn scrape(addr: SocketAddr) -> Result<String, String> {
    let (resp, _) =
        http::request(addr, "GET", "/metrics", "", "00000000000000aa", Duration::from_secs(10))
            .map_err(|e| format!("cannot scrape /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    Ok(resp.body)
}

pub fn counter(metrics: &str, name: &str) -> u64 {
    json::as_f64(json::path(metrics, &["counters", name])).map_or(0, |v| v as u64)
}

/// The part of histogram `name` recorded between two scrapes.
pub fn histogram_delta(before: &str, after: &str, name: &str) -> HistogramSnapshot {
    let snap = |m: &str| {
        json::path(m, &["histograms", name])
            .and_then(|raw| Json::parse(raw).ok())
            .and_then(|h| histogram_from_json(&h))
            .unwrap_or_default()
    };
    let (b, a) = (snap(before), snap(after));
    let mut out = HistogramSnapshot::default();
    for &(upper, n) in &a.buckets {
        let was = b.buckets.iter().find(|&&(u, _)| u == upper).map_or(0, |&(_, m)| m);
        if n > was {
            out.buckets.push((upper, n - was));
            out.count += n - was;
        }
    }
    out.sum = a.sum.saturating_sub(b.sum);
    out
}

/// Percentile `p` of a histogram of nanoseconds, in seconds, interpolated
/// linearly inside the bucket that holds the rank. The daemon's buckets
/// are a sixteenth of a power of two wide; their bounds alone would read
/// the same on most runs.
pub fn percentile_s(h: &HistogramSnapshot, p: f64) -> Option<f64> {
    let rank = p / 100.0 * h.count as f64;
    let mut seen = 0u64;
    for &(upper, n) in &h.buckets {
        if (seen + n) as f64 >= rank {
            let bits = 64 - upper.leading_zeros();
            let width = if upper < 16 { 1 } else { 1u64 << (bits - 5) };
            let lower = upper + 1 - width;
            let frac = (rank - seen as f64) / n as f64;
            return Some((lower as f64 + frac * width as f64) * 1e-9);
        }
        seen += n;
    }
    None
}

/// Operation tallies shared by every phase of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, r: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// A daemon with a prefilled store and a warm hot set.
pub struct Ready {
    pub daemon: Daemon,
    /// The program text each hot spec's first (missing) request returned.
    pub hot_programs: Vec<String>,
}

/// Start a daemon on a fresh store, prefill the hot set and the donors,
/// wait until the store has written them all, and hit the hot set once.
pub fn setup(
    bin: &Path,
    store_dir: &Path,
    plan: &Plan,
    seed: u64,
    expected: &Expected,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let daemon = Daemon::start(bin, store_dir)?;
    let timeout = Duration::from_secs(30);
    let mut hot_programs = Vec::new();
    let mut trace = derive(seed, 9, 0);
    // A first (missing) request; returns the answer's program text, as
    // raw JSON string text.
    let mut fill = |shape: Shape, text: String, tally: &mut Tally| -> Result<String, String> {
        trace = trace.wrapping_add(1);
        let (body, _) = post(daemon.addr, &text, trace, timeout);
        let r = body.and_then(|b| {
            let members = json::members(&b)?;
            let get = |k: &str| members.iter().find(|(m, _)| *m == k).map(|(_, v)| *v);
            check_counts(&get, shape, expected)?;
            get("program").map(str::to_string).ok_or_else(|| "answer has no program".to_string())
        });
        tally.record("prefill", &r.as_ref().map(|_| ()).map_err(Clone::clone));
        r
    };
    for (h, &shape) in plan.hot.iter().enumerate() {
        hot_programs.push(fill(shape, hot_spec(plan, seed, h), tally)?);
    }
    for (d, &shape) in plan.donors.iter().enumerate() {
        fill(shape, donor_spec(plan, seed, d), tally)?;
    }
    let want = (plan.hot.len() + plan.donors.len()) as u64;
    let deadline = Instant::now() + timeout;
    while counter(&scrape(daemon.addr)?, "store.writes") < want {
        if Instant::now() > deadline {
            return Err("the store did not write the prefilled specs in time".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for (h, &shape) in plan.hot.iter().enumerate() {
        let req = Req { class: Class::Hit, shape, hot: Some(h), text: hot_spec(plan, seed, h) };
        trace = trace.wrapping_add(1);
        let (body, _) = post(daemon.addr, &req.text, trace, timeout);
        let r = body.and_then(|b| check(&b, &req, expected, &hot_programs));
        tally.record("warm-up hit", &r);
        r?;
    }
    Ok(Ready { daemon, hot_programs })
}

/// One answered request of the stream.
pub struct Sample {
    pub class: Class,
    pub trace_id: u64,
    /// Milliseconds from when the request was due until its answer was in.
    pub latency_ms: f64,
    /// Milliseconds from connect to answer (the client's view of service).
    pub service_ms: f64,
    /// Milliseconds the generator itself sent late (beyond the due time
    /// and beyond the moment a connection was free).
    pub gen_late_ms: f64,
    pub timing: http::Timing,
    pub result: Result<(), String>,
}

/// Drive the next `seconds` of the open-loop stream at the plan's rate,
/// from two connection threads; `source` carries the stream across
/// slices. A request is timed from when it was due, so a stall charges
/// every request queued behind it.
pub fn run_stream(
    ready: &Ready,
    plan: &Plan,
    seed: u64,
    expected: &Expected,
    source: &mut Stream,
    seconds: f64,
) -> Vec<Sample> {
    let t0 = Instant::now() + Duration::from_millis(1);
    let interval = 1.0 / plan.rate;
    let total = (seconds / interval).round().max(1.0) as usize;
    let source = Mutex::new((source, 0usize));
    let samples = Mutex::new(Vec::with_capacity(total));
    let timeout = Duration::from_secs(30);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let free = Instant::now();
                let (i, position, req) = {
                    let mut src =
                        source.lock().expect("no stream thread panics while holding the source");
                    if src.1 >= total {
                        return;
                    }
                    src.1 += 1;
                    let position = src.0.next;
                    (src.1 - 1, position, src.0.next().expect("the stream is endless"))
                };
                let due = t0 + Duration::from_secs_f64(i as f64 * interval);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let trace_id = derive(seed, 7, position as u64);
                let (body, timing) = post(ready.daemon.addr, &req.text, trace_id, timeout);
                let result = body.and_then(|b| check(&b, &req, expected, &ready.hot_programs));
                let sample = Sample {
                    class: req.class,
                    trace_id,
                    latency_ms: ms(timing.done.saturating_duration_since(due)),
                    service_ms: ms(timing.done - timing.start),
                    gen_late_ms: ms(timing.start.saturating_duration_since(due.max(free))),
                    timing,
                    result,
                };
                samples
                    .lock()
                    .expect("no stream thread panics while holding the samples")
                    .push(sample);
            });
        }
    });
    samples.into_inner().expect("stream threads have ended")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Add the client-side spans of each sample to the trace.
pub fn client_spans(tracer: &mut Tracer, samples: &[Sample]) {
    for s in samples {
        let t = &s.timing;
        let root = tracer.record("client.request", 0, s.trace_id, t.start, t.done);
        tracer.record("client.connect", root, s.trace_id, t.start, t.connected);
        tracer.record("client.send", root, s.trace_id, t.connected, t.sent);
        tracer.record("client.wait", root, s.trace_id, t.sent, t.first_byte);
        tracer.record("client.read", root, s.trace_id, t.first_byte, t.done);
    }
}

/// Per-request layer times of the in-process replay, in seconds.
#[derive(Default)]
pub struct ReplayTimes {
    pub prepare: Vec<f64>,
    pub nearest: Vec<f64>,
    pub get: Vec<f64>,
    pub import: Vec<f64>,
    pub put: Vec<f64>,
    pub bytes_written: u64,
}

/// Replay the stream's first `plan.replay_requests` requests in-process
/// against a fresh store: `job::prepare`, the store lookups, the warm
/// import, `job::execute_store` and `DiskStore::put`, in the order the
/// daemon runs them for each request.
pub fn replay(
    tracer: &mut Tracer,
    store_dir: &Path,
    plan: &Plan,
    seed: u64,
    expected: &Expected,
    tally: &mut Tally,
) -> Result<ReplayTimes, String> {
    let tele = Telemetry::new();
    let store = DiskStore::open(store_dir, 0, &tele)
        .map_err(|e| format!("cannot open the replay store: {e}"))?;
    let mut cache: HashMap<String, ()> = HashMap::new();
    let mut times = ReplayTimes::default();

    let prefill = plan
        .hot
        .iter()
        .enumerate()
        .map(|(h, &shape)| (shape, hot_spec(plan, seed, h)))
        .chain(plan.donors.iter().enumerate().map(|(d, &shape)| (shape, donor_spec(plan, seed, d))))
        .map(|(shape, text)| (false, Req { class: Class::Miss, shape, hot: None, text }));
    let stream = Stream::new(plan, seed).take(plan.replay_requests).map(|req| (true, req));
    for (i, (measured, req)) in prefill.chain(stream).enumerate() {
        let trace = derive(seed, 8, i as u64);
        let times = measured.then_some(&mut times);
        let r = replay_one(tracer, &store, &mut cache, &req, trace, expected, times);
        tally.record("replay", &r);
        r?;
    }
    Ok(times)
}

fn replay_one(
    tracer: &mut Tracer,
    store: &DiskStore,
    cache: &mut HashMap<String, ()>,
    req: &Req,
    trace: u64,
    expected: &Expected,
    times: Option<&mut ReplayTimes>,
) -> Result<(), String> {
    let root = tracer.open("request", 0, trace);
    let t = Instant::now();
    let spec = job::prepare(&req.text, Mode::Lazy, RepairOptions::default())?;
    let prepare = tracer.record("server.prepare", root, trace, t, Instant::now());
    let mut lap = (tracer.get(prepare).seconds(), 0.0, 0.0, 0.0, 0.0);
    if cache.contains_key(&spec.key) {
        tracer.close(root);
        if req.class != Class::Hit {
            return Err("fresh spec was a cache hit".to_string());
        }
        if let Some(times) = times {
            times.prepare.push(lap.0);
        }
        return Ok(());
    }
    if req.class == Class::Hit {
        return Err("hot spec missed the cache".to_string());
    }
    let (found, secs) = timed(tracer, "store.get", root, trace, || store.get(&spec.key));
    lap.2 += secs;
    if found.is_some() {
        return Err("fresh spec found in the store".to_string());
    }
    let (near, secs) = timed(tracer, "store.nearest", root, trace, || {
        store.nearest(&spec.fingerprint, WARM_MAX_DISTANCE)
    });
    lap.1 = secs;
    let warm = match near {
        None => None,
        Some((neighbor, distance)) => {
            let (donor, secs) = timed(tracer, "store.get", root, trace, || store.peek(&neighbor));
            lap.2 += secs;
            let donor = donor.ok_or("stored neighbor vanished")?;
            let art = |name: &str| {
                donor.artifacts.iter().find(|(n, _)| n == name).map(|(_, b)| b.clone())
            };
            let (invariant, span) =
                (art(ART_INVARIANT).ok_or("no invariant")?, art(ART_SPAN).ok_or("no span")?);
            // The import the warm path pays, timed on its own: the daemon
            // does it inside `execute_store`.
            let mut prog = ftrepair_lang::compile(&spec.ast).map_err(|e| e.to_string())?;
            let (imported, secs) = timed(tracer, "bdd.import", root, trace, || {
                prog.cx.mgr().try_import(&invariant).and_then(|_| prog.cx.mgr().try_import(&span))
            });
            imported.map_err(|e| format!("warm import failed: {e:?}"))?;
            lap.3 = secs;
            Some(WarmInfo { neighbor, distance, invariant, span })
        }
    };
    match (req.class, &warm) {
        (Class::Warm, None) => return Err("edit has no stored neighbor".to_string()),
        (Class::Miss, Some(_)) => return Err("fresh spec has a stored neighbor".to_string()),
        _ => {}
    }
    let token = Token::from_options(&spec.opts);
    let job_tele = Telemetry::new();
    let (result, _) = timed(tracer, "server.execute_store", root, trace, || {
        job::execute_store(&spec, &job_tele, true, &token, warm.as_ref(), true)
    });
    let result = result.map_err(|e| e.to_string())?;
    if !result.verified || result.failed {
        return Err("result not verified".to_string());
    }
    let count = |k: &str| {
        result.response.get(k).and_then(Json::as_f64).map(|v| v.to_string()).unwrap_or_default()
    };
    expected.check(req.shape, "lazy", &count("invariant_states"), &count("span_states"))?;
    let entry = NewEntry {
        key: spec.key.clone(),
        case: spec.name.clone(),
        mode: "lazy".to_string(),
        warm_start: result.warm_used,
        fingerprint: spec.fingerprint.clone(),
        response: result.response,
        artifacts: result.artifacts.ok_or("no artifacts exported")?,
    };
    let before = store.bytes();
    let (put, secs) = timed(tracer, "store.put", root, trace, || store.put(&entry));
    put.map_err(|e| format!("store write failed: {e}"))?;
    lap.4 = secs;
    cache.insert(spec.key, ());
    tracer.close(root);
    if let Some(times) = times {
        times.prepare.push(lap.0);
        times.put.push(lap.4);
        times.bytes_written += store.bytes().saturating_sub(before);
        if req.class == Class::Warm {
            times.nearest.push(lap.1);
            times.get.push(lap.2);
            times.import.push(lap.3);
        }
    }
    Ok(())
}

fn timed<T>(
    tracer: &mut Tracer,
    name: &str,
    parent: u64,
    trace: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let id = tracer.record(name, parent, trace, start, Instant::now());
    (out, tracer.get(id).seconds())
}
