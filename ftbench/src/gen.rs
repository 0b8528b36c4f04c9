//! Seeded `.ftr` spec generators.
//!
//! The seed picks identifier names. It keeps the order of every
//! declaration: variable order fixes the BDD variable order, and process
//! order fixes the order in which the program relation is built, which
//! changes the number of BDD nodes created. So every seed asks the program
//! for the same work on different input text.

use ftrepair_bdd::SplitMix64;
use std::fmt::Write;

/// An instance family and its size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// The stabilizing chain `Sc^n` over the domain `{0..d-1}`.
    Chain { n: usize, d: u64 },
    /// Byzantine agreement `BA^n` with `n` non-generals.
    Byzantine { n: usize },
}

impl Shape {
    /// Stable label used in the expected-answers file and in reports.
    pub fn label(self) -> String {
        match self {
            Shape::Chain { n, d } => format!("chain-{n}x{d}"),
            Shape::Byzantine { n } => format!("byzantine-{n}"),
        }
    }

    /// Parse a [`Shape::label`].
    pub fn parse(label: &str) -> Option<Shape> {
        if let Some(rest) = label.strip_prefix("chain-") {
            let (n, d) = rest.split_once('x')?;
            return Some(Shape::Chain { n: n.parse().ok()?, d: d.parse().ok()? });
        }
        let n = label.strip_prefix("byzantine-")?.parse().ok()?;
        Some(Shape::Byzantine { n })
    }
}

/// A one-action edit: the first action of process `process` is rewritten
/// into an equivalent guard, and `tag` is appended to the program name so
/// every edit has its own content key. The repaired result is unchanged,
/// and the spec's structural fingerprint stays within two action hashes
/// of the unedited one, so the daemon can warm-start it from a stored
/// neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edit {
    pub process: usize,
    pub tag: u64,
}

/// Identifiers drawn from the seed.
struct Names {
    var: String,
    proc_: String,
    program: String,
}

impl Names {
    fn new(seed: u64, family: &str, edit: Option<Edit>) -> Names {
        let tag = SplitMix64::seed_from_u64(seed).next_u64() & 0xffff_ffff_ffff;
        let mut program = format!("{family}_{tag:012x}");
        if let Some(e) = edit {
            write!(program, "_e{:x}", e.tag).expect("writing to a String cannot fail");
        }
        Names { var: format!("v{tag:012x}_"), proc_: format!("p{tag:012x}_"), program }
    }
}

/// The spec text of `shape` under `seed`, optionally with a one-action edit.
pub fn spec(shape: Shape, seed: u64, edit: Option<Edit>) -> String {
    match shape {
        Shape::Chain { n, d } => chain(n, d, seed, edit),
        Shape::Byzantine { n } => byzantine(n, seed, edit),
    }
}

fn conj(items: &[String]) -> String {
    if items.is_empty() {
        "true".to_string()
    } else {
        items.iter().map(|s| format!("({s})")).collect::<Vec<_>>().join(" & ")
    }
}

fn disj(items: &[String]) -> String {
    if items.is_empty() {
        "false".to_string()
    } else {
        items.iter().map(|s| format!("({s})")).collect::<Vec<_>>().join(" | ")
    }
}

fn choice(values: std::ops::Range<u64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
}

/// `Sc^n`: cell 0 is the root; cell `i` copies cell `i-1` when they differ;
/// the invariant is "all cells equal"; a transient fault sets any cell to
/// any value.
fn chain(n: usize, d: u64, seed: u64, edit: Option<Edit>) -> String {
    assert!(n >= 2 && d >= 2, "a chain needs two cells over at least two values");
    let nm = Names::new(seed, &format!("chain{n}x{d}"), edit);
    let x = |i: usize| format!("{}{i}", nm.var);
    let mut out = format!("program {};\n\n", nm.program);
    for i in 0..n {
        writeln!(out, "var {} : 0..{};", x(i), d - 1).expect("String write");
    }
    let procs: String = (1..n)
        .map(|i| {
            let guard = if edit.map(|e| e.process % (n - 1)) == Some(i - 1) {
                format!("{} != {}", x(i), x(i - 1))
            } else {
                format!("!({} = {})", x(i), x(i - 1))
            };
            format!(
                "\nprocess {p}{i}\n  read {a}, {b};\n  write {b};\nbegin\n  ({guard}) -> {b} := {a};\nend\n",
                p = nm.proc_,
                a = x(i - 1),
                b = x(i),
            )
        })
        .collect();
    out.push_str(&procs);
    out.push_str("\nfault transient\nbegin\n");
    for i in 0..n {
        writeln!(out, "  true -> {} := {{{}}};", x(i), choice(0..d)).expect("String write");
    }
    out.push_str("end\n\n");
    let eq: Vec<String> = (1..n).map(|i| format!("{} = {}", x(i - 1), x(i))).collect();
    writeln!(out, "invariant {};", conj(&eq)).expect("String write");
    out
}

/// `BA^n`, written out as text with the same variables (in the same
/// order), actions, faults, invariant and safety specification as
/// `ftrepair_casestudies::byzantine_agreement(n)`.
fn byzantine(n: usize, seed: u64, edit: Option<Edit>) -> String {
    assert!(n >= 1, "need at least one non-general");
    let nm = Names::new(seed, &format!("byzantine{n}"), edit);
    let v = |s: &str| format!("{}{s}", nm.var);
    let (bg, dg) = (v("bg"), v("dg"));
    let b = |j: usize| v(&format!("b{j}"));
    let d = |j: usize| v(&format!("d{j}"));
    let f = |j: usize| v(&format!("f{j}"));

    let mut out = format!("program {};\n\n", nm.program);
    writeln!(out, "var {bg} : boolean;\nvar {dg} : boolean;").expect("String write");
    for j in 0..n {
        writeln!(out, "var {} : boolean;\nvar {} : 0..2;\nvar {} : boolean;", b(j), d(j), f(j))
            .expect("String write");
    }

    let decisions: Vec<String> = (0..n).map(d).collect();
    let procs: String = (0..n)
        .map(|j| {
            let fetch = if edit.map(|e| e.process % n) == Some(j) {
                format!("({} = 0) & ({} = 2)", f(j), d(j))
            } else {
                format!("({} = 2) & ({} = 0)", d(j), f(j))
            };
            format!(
                "\nprocess {p}{j}\n  read {dg}, {ds}, {bj}, {fj};\n  write {dj}, {fj};\nbegin\n  \
                 ({fetch}) -> {dj} := {dg};\n  (!({dj} = 2) & ({fj} = 0)) -> {fj} := 1;\nend\n",
                p = nm.proc_,
                ds = decisions.join(", "),
                bj = b(j),
                dj = d(j),
                fj = f(j),
            )
        })
        .collect();
    out.push_str(&procs);

    let mut all_b = vec![bg.clone()];
    all_b.extend((0..n).map(b));
    let nobody = conj(&all_b.iter().map(|x| format!("{x} = 0")).collect::<Vec<_>>());
    out.push_str("\nfault byzantine\nbegin\n");
    for x in &all_b {
        writeln!(out, "  ({nobody}) -> {x} := 1;").expect("String write");
    }
    writeln!(out, "  ({bg} = 1) -> {dg} := {{0, 1}};").expect("String write");
    for j in 0..n {
        writeln!(out, "  ({} = 1) -> {} := {{0, 1}};", b(j), d(j)).expect("String write");
    }
    out.push_str("end\n\n");

    let disagree = |j: usize, k: usize| {
        format!("(({0} = 0) & ({1} = 1)) | (({0} = 1) & ({1} = 0))", d(j), d(k))
    };
    let final_decided = |j: usize| format!("({} = 0) | !({} = 2)", f(j), d(j));
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|j| (j + 1..n).map(move |k| (j, k))).collect();

    // At most one byzantine process, general included.
    let mut amob = Vec::new();
    for i in 0..all_b.len() {
        for k in i + 1..all_b.len() {
            amob.push(format!("!(({} = 1) & ({} = 1))", all_b[i], all_b[k]));
        }
    }
    // Sound general: every sound non-general is undecided or agrees with
    // it, and is decided once finalized.
    let sound: Vec<String> = (0..n)
        .map(|j| {
            format!(
                "({bj} = 1) | ((({dj} = 2) | ({dj} = {dg})) & ({fin}))",
                bj = b(j),
                dj = d(j),
                fin = final_decided(j)
            )
        })
        .collect();
    // Byzantine general: finalized implies decided, decided processes
    // agree, and while anyone is undecided every decision matches d.g.
    let all_decided = conj(&(0..n).map(|j| format!("!({} = 2)", d(j))).collect::<Vec<_>>());
    let mut byz: Vec<String> = (0..n).map(final_decided).collect();
    byz.extend(pairs.iter().map(|&(j, k)| format!("!({})", disagree(j, k))));
    byz.extend((0..n).map(|k| format!("({dk} = 2) | ({dk} = {dg}) | ({all_decided})", dk = d(k))));
    let inv = [
        conj(&amob),
        format!("({bg} = 1) | ({})", conj(&sound)),
        format!("({bg} = 0) | ({})", conj(&byz)),
    ];
    writeln!(out, "invariant {};", conj(&inv)).expect("String write");

    let sound_final = |j: usize| format!("({} = 0) & ({} = 1)", b(j), f(j));
    let mut bad: Vec<String> = pairs
        .iter()
        .map(|&(j, k)| format!("{} & {} & ({})", sound_final(j), sound_final(k), disagree(j, k)))
        .collect();
    bad.extend((0..n).map(|j| {
        format!("({bg} = 0) & {} & !({dj} = {dg}) & !({dj} = 2)", sound_final(j), dj = d(j))
    }));
    writeln!(out, "badstates {};", disj(&bad)).expect("String write");

    let thawed: Vec<String> = (0..n)
        .map(|j| {
            format!("{} & !(({dj}' = {dj}) & ({fj}' = {fj}))", sound_final(j), dj = d(j), fj = f(j))
        })
        .collect();
    writeln!(out, "badtrans {};", disj(&thawed)).expect("String write");
    out
}
