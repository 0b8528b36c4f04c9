//! In-process replay of one CLI job for the traced run: the same input
//! through each layer's public functions, in the order the CLI calls them,
//! with a span around every call.

use crate::expected::Expected;
use crate::gen::Shape;
use crate::trace::Tracer;
use ftrepair_bdd::{CacheStats, ManagerStats};
use ftrepair_core::{cautious_repair_traced, lazy_repair_traced, LazyOutcome, RepairOptions};
use ftrepair_program::decompile::render_process;
use ftrepair_program::verify::{verify_masking, verify_realizability};
use ftrepair_program::Process;
use ftrepair_telemetry::Telemetry;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Lazy,
    Cautious,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Lazy => "lazy",
            Mode::Cautious => "cautious",
        }
    }
}

/// Deterministic work counts of one in-process job.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub manager: ManagerStats,
    pub caches: CacheStats,
    pub outer_iterations: u64,
    pub step2_picks: u64,
    pub groups_dropped: u64,
    pub export_bytes: u64,
}

/// One replayed job: the root span and its counts.
pub struct Replay {
    pub root: u64,
    pub counts: Counts,
}

/// Replay one job in-process through each layer's public functions, with
/// a span around every call. The layers run in the order the CLI runs
/// them; the artifact export the daemon does for its store is added last.
pub fn replay_job(
    tracer: &mut Tracer,
    src: &str,
    shape: Shape,
    mode: Mode,
    trace: u64,
    expected: &Expected,
) -> Result<Replay, String> {
    let root = tracer.open("job", 0, trace);
    let ast = tracer
        .time("lang.parse", root, trace, || ftrepair_lang::parse(src))
        .map_err(|e| format!("parse error: {e}"))?;
    let mut prog = tracer
        .time("lang.compile", root, trace, || ftrepair_lang::compile(&ast))
        .map_err(|e| format!("compile error: {e}"))?;

    let opts = RepairOptions::default();
    let tele = Telemetry::with_spans(false);
    let epoch = Instant::now();
    let repair_span =
        tracer.open(if mode == Mode::Lazy { "core.lazy" } else { "core.cautious" }, root, trace);
    let out: LazyOutcome = match mode {
        Mode::Lazy => lazy_repair_traced(&mut prog, &opts, &tele),
        Mode::Cautious => cautious_repair_traced(&mut prog, &opts, &tele).map(|c| LazyOutcome {
            processes: c.processes,
            invariant: c.invariant,
            span: c.span,
            trans: c.trans,
            failed: c.failed,
            stats: c.stats,
        }),
    }
    .map_err(|e| format!("repair aborted: {e}"))?;
    tracer.close(repair_span);
    tracer.absorb(&tele.take_spans(), epoch, repair_span, trace, "core.");
    if out.failed {
        return Err("repair failed".to_string());
    }

    let orig = prog.program_trans();
    let (orig_inv, faults, safety) = (prog.invariant, prog.faults, prog.safety);
    let masking = tracer.time("program.verify_masking", root, trace, || {
        verify_masking(&mut prog.cx, orig, orig_inv, out.trans, out.invariant, faults, &safety)
    });
    let realizable = tracer.time("program.verify_realizability", root, trace, || {
        verify_realizability(&mut prog, &out.processes)
    });
    if !(masking.ok() && realizable.ok()) {
        return Err("output not verified".to_string());
    }

    let (inv, span) = tracer.time("program.render", root, trace, || {
        let inv = prog.cx.count_states(out.invariant).to_string();
        let span = prog.cx.count_states(out.span).to_string();
        for (j, p) in out.processes.iter().enumerate() {
            let shown = Process {
                name: p.name.clone(),
                read: p.read.clone(),
                write: p.write.clone(),
                trans: prog.cx.mgr().and(p.trans, out.span),
            };
            std::hint::black_box(render_process(&mut prog, &shown, j));
        }
        (inv, span)
    });
    expected.check(shape, mode.as_str(), &inv, &span)?;

    let export_bytes = tracer.time("bdd.export", root, trace, || {
        let mgr = prog.cx.mgr_ref();
        [out.trans, out.invariant, out.span]
            .iter()
            .map(|&f| mgr.export(f).to_bytes().len() as u64)
            .sum()
    });
    tracer.close(root);

    let mgr = prog.cx.mgr_ref();
    let counts = Counts {
        manager: mgr.stats(),
        caches: mgr.cache_stats(),
        outer_iterations: out.stats.outer_iterations as u64,
        step2_picks: out.stats.step2_picks,
        groups_dropped: out.stats.groups_dropped,
        export_bytes,
    };
    Ok(Replay { root, counts })
}
