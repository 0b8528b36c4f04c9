//! Pinned known answers: the repaired invariant and fault-span state
//! counts of every instance shape and mode the workloads run, as the CLI
//! prints them. Small shapes are cross-checked against the explicit-state
//! oracle by the tests.

use crate::gen::Shape;
use std::collections::BTreeMap;

/// The pinned answers file, compiled in.
pub const PINNED: &str = include_str!("../expected.txt");

pub struct Expected(BTreeMap<(Shape, String), (String, String)>);

impl Expected {
    /// Parse lines of `<shape> <mode> <invariant states> <fault-span states>`;
    /// `#` starts a comment.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let shape = f.first().and_then(|s| Shape::parse(s));
            match (shape, &f[..]) {
                (Some(shape), [_, mode, inv, span]) => {
                    map.insert((shape, mode.to_string()), (inv.to_string(), span.to_string()));
                }
                _ => return Err(format!("expected answers line {}: cannot parse {line:?}", i + 1)),
            }
        }
        Ok(Expected(map))
    }

    pub fn pinned() -> Expected {
        Expected::parse(PINNED).expect("the pinned answers file parses")
    }

    /// The pinned `(invariant, fault-span)` counts.
    pub fn get(&self, shape: Shape, mode: &str) -> Option<(&str, &str)> {
        self.0.get(&(shape, mode.to_string())).map(|(i, s)| (i.as_str(), s.as_str()))
    }

    /// Every pinned entry.
    pub fn entries(&self) -> impl Iterator<Item = (Shape, &str, &str, &str)> {
        self.0.iter().map(|((shape, mode), (i, s))| (*shape, mode.as_str(), i.as_str(), s.as_str()))
    }

    /// Compare counts (as the CLI prints them) with the pinned answer.
    pub fn check(&self, shape: Shape, mode: &str, inv: &str, span: &str) -> Result<(), String> {
        match self.get(shape, mode) {
            None => Err(format!("no pinned answer for {} {mode}", shape.label())),
            Some((i, s)) if i == inv && s == span => Ok(()),
            Some((i, s)) => Err(format!(
                "wrong answer for {} {mode}: invariant {inv} span {span}, expected {i} {s}",
                shape.label()
            )),
        }
    }
}
