//! Tests of the benchmark's inputs: generators are deterministic, the
//! byzantine-agreement text is the case study, seeds change names and not
//! work, and the pinned answers agree with the explicit-state oracle.

use ftbench::expected::Expected;
use ftbench::gen::{spec, Edit, Shape};
use ftbench::replay::{replay_job, Mode};
use ftbench::trace::Tracer;
use ftrepair_casestudies::byzantine_agreement;
use ftrepair_core::{cautious_repair, lazy_repair, LazyOutcome, RepairOptions};
use ftrepair_explicit::extract::{bdd_to_edges, bdd_to_states};
use ftrepair_explicit::verify::verify_masking_explicit;
use ftrepair_explicit::{add_masking, AddMaskingOptions, ExplicitProgram};
use ftrepair_program::DistributedProgram;

/// Largest state space the oracle cross-check enumerates (the extraction
/// is quadratic in the number of states).
const ORACLE_STATES: f64 = 8_000.0;

fn load(text: &str) -> DistributedProgram {
    ftrepair_lang::load(text).expect("generated specs compile")
}

/// Every shape a workload runs, each with one edit.
fn shapes() -> Vec<Shape> {
    let expected = Expected::pinned();
    let mut v: Vec<Shape> = expected.entries().map(|(s, ..)| s).collect();
    v.dedup();
    v
}

#[test]
fn same_seed_gives_byte_identical_specs() {
    for shape in shapes() {
        for edit in [None, Some(Edit { process: 1, tag: 7 })] {
            assert_eq!(spec(shape, 42, edit), spec(shape, 42, edit), "{}", shape.label());
            assert_ne!(spec(shape, 42, edit), spec(shape, 43, edit), "{}", shape.label());
        }
    }
}

#[test]
fn seeds_keep_variable_declarations_in_order() {
    let domains = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("var "))
            .map(|l| l.split(':').nth(1).unwrap().to_string())
            .collect()
    };
    for shape in shapes() {
        assert_eq!(
            domains(&spec(shape, 1, None)),
            domains(&spec(shape, 2, None)),
            "{}",
            shape.label()
        );
    }
}

#[test]
fn byzantine_text_compiles_to_the_case_study() {
    for n in 1..=4 {
        let (mut want, _) = byzantine_agreement(n);
        let mut got = load(&spec(Shape::Byzantine { n }, 5, None));
        let counts = |p: &mut DistributedProgram| {
            let t = p.program_trans();
            (
                p.cx.count_states(p.invariant),
                p.cx.count_transitions(p.faults),
                p.cx.count_states(p.safety.bad_states),
                p.cx.count_transitions(p.safety.bad_trans),
                p.cx.count_transitions(t),
                p.processes.len(),
            )
        };
        assert_eq!(counts(&mut got), counts(&mut want), "BA^{n}");
    }
}

#[test]
fn one_action_edits_keep_the_answer() {
    let expected = Expected::pinned();
    for shape in [Shape::Chain { n: 7, d: 8 }, Shape::Byzantine { n: 4 }] {
        let mut p = load(&spec(shape, 3, Some(Edit { process: 2, tag: 9 })));
        let out = lazy_repair(&mut p, &RepairOptions::default()).expect("repair finishes");
        let (inv, span) =
            (p.cx.count_states(out.invariant).to_string(), p.cx.count_states(out.span).to_string());
        expected.check(shape, "lazy", &inv, &span).unwrap();
    }
}

/// The workload jobs do the same deterministic work under every seed.
#[test]
fn two_seeds_create_the_same_bdd_nodes() {
    let expected = Expected::pinned();
    for (shape, mode) in [
        (Shape::Chain { n: 9, d: 8 }, Mode::Lazy),
        (Shape::Byzantine { n: 6 }, Mode::Lazy),
        (Shape::Byzantine { n: 6 }, Mode::Cautious),
    ] {
        let counts: Vec<_> = [11, 12]
            .iter()
            .map(|&seed| {
                let mut t = Tracer::new();
                let r = replay_job(&mut t, &spec(shape, seed, None), shape, mode, 1, &expected)
                    .unwrap();
                let c = r.counts;
                (
                    c.caches.unique.misses,
                    c.caches.apply.misses,
                    c.outer_iterations,
                    c.step2_picks,
                    c.export_bytes,
                )
            })
            .collect();
        assert_eq!(counts[0], counts[1], "{} {}", shape.label(), mode.as_str());
    }
}

/// Each pinned answer small enough to enumerate is the state count of a
/// repair the explicit-state verifier accepts; where the repair keeps
/// Step 1's result (one outer iteration), it also equals the explicit
/// Add-Masking oracle's invariant and fault-span.
#[test]
fn pinned_answers_agree_with_the_explicit_oracle() {
    let expected = Expected::pinned();
    let mut checked = 0;
    for (shape, mode, inv, span) in expected.entries() {
        let mut p = load(&spec(shape, 1, None));
        let universe = p.cx.state_universe();
        if p.cx.count_states(universe) > ORACLE_STATES {
            continue;
        }
        let out: LazyOutcome = match mode {
            "lazy" => lazy_repair(&mut p, &RepairOptions::default()).unwrap(),
            _ => {
                let c = cautious_repair(&mut p, &RepairOptions::default()).unwrap();
                LazyOutcome {
                    processes: c.processes,
                    invariant: c.invariant,
                    span: c.span,
                    trans: c.trans,
                    failed: c.failed,
                    stats: c.stats,
                }
            }
        };
        let explicit = ExplicitProgram::from_symbolic(&mut p);
        let trans = bdd_to_edges(&mut p, &explicit.space, out.trans);
        let e_inv = bdd_to_states(&mut p, &explicit.space, out.invariant);
        let e_span = bdd_to_states(&mut p, &explicit.space, out.span);
        let report = verify_masking_explicit(&explicit, &trans, &e_inv);
        assert!(
            report.ok(),
            "{} {mode}: explicit verifier rejects the repair: {report:?}",
            shape.label()
        );
        assert_eq!(e_inv.len().to_string(), inv, "{} {mode} invariant", shape.label());
        assert_eq!(e_span.len().to_string(), span, "{} {mode} fault-span", shape.label());
        if out.stats.outer_iterations == 1 {
            let oracle = add_masking(&explicit, AddMaskingOptions::default());
            assert_eq!(
                oracle.invariant,
                e_inv,
                "{} {mode}: Step 1 oracle invariant",
                shape.label()
            );
            assert_eq!(oracle.span, e_span, "{} {mode}: Step 1 oracle fault-span", shape.label());
        }
        checked += 1;
    }
    assert!(checked >= 4, "the oracle checked only {checked} pinned answers");
}
