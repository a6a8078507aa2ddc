//! Fuzz the text door: seeded token soup and mutated statement
//! templates go through `lang::compile` and, when they compile, through
//! `Database::execute`. Every input must come back as a value or a
//! typed error — never a panic. The inputs cover reads over every
//! encoding, joins, aggregates, `BETWEEN`, writes, and integers at and
//! beyond the edges of `i64`.
//!
//! Bounded and deterministic: a fixed seed and a fixed iteration count,
//! a few seconds in the debug profile.

use std::panic::{catch_unwind, AssertUnwindSafe};

use matstrat::common::SplitMix64 as Rng;
use matstrat::core::Database;
use matstrat::lang::compile;
use matstrat::storage::{EncodingKind, ProjectionSpec, SortOrder};

/// Inputs per generator.
const ITERATIONS: usize = 30_000;

/// A word drawn from a list.
trait Pick {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str;
}

impl Pick for Rng {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Tokens the soup and the mutations draw from: every keyword, the
/// fixture's names (and some that do not exist), every operator, stray
/// characters, and integers inside and outside `i64`.
const VOCAB: &[&str] = &[
    "SELECT",
    "FROM",
    "JOIN",
    "ON",
    "WHERE",
    "GROUP",
    "BY",
    "AND",
    "BETWEEN",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "INSERT",
    "INTO",
    "VALUES",
    "DELETE",
    "fact",
    "d1",
    "d2",
    "nope",
    "k1",
    "k2",
    "a",
    "b",
    "c",
    "k",
    "x1",
    "y",
    "fact.a",
    "fact.k2",
    "d1.k",
    "d1.x1",
    "d2.k",
    "d2.y",
    "zz.a",
    "*",
    ",",
    ".",
    "(",
    ")",
    "=",
    "<",
    "<=",
    "<>",
    "!=",
    ">",
    ">=",
    "!",
    "-",
    "0",
    "1",
    "7",
    "-3",
    "63",
    "64",
    "1000",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999",
    "'x'",
    "\"a\"",
    ";",
    "#",
    "é",
    "\t",
    "",
];

/// Integers the number mutation swaps in.
const EDGE_INTS: &[&str] = &[
    "0",
    "-1",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "-9223372036854775809",
    "184467440737095516150",
];

/// Statements the engine accepts, one per shape.
const TEMPLATES: &[&str] = &[
    "SELECT a, b FROM fact WHERE a < 30 AND b >= 2",
    "SELECT k1, a, c FROM fact WHERE k1 BETWEEN 1 AND 3 AND c != 5",
    "SELECT a FROM fact WHERE a BETWEEN 10 AND 20",
    "SELECT b FROM fact WHERE b = 3 AND k2 <= 4 AND a > 1",
    "SELECT k1, SUM(a) FROM fact WHERE b < 4 GROUP BY k1",
    "SELECT k2, COUNT(c) FROM fact WHERE a >= 5 AND c < 40 GROUP BY k2",
    "SELECT b, MIN(a) FROM fact GROUP BY b",
    "SELECT b, MAX(c) FROM fact WHERE k1 = 2 GROUP BY b",
    "SELECT fact.a, d1.x1 FROM fact JOIN d1 ON fact.k2 = d1.k WHERE fact.a < 40",
    "SELECT fact.c, d1.x1, d2.y FROM fact JOIN d1 ON fact.k2 = d1.k JOIN d2 ON d1.x1 = d2.k",
    "SELECT d1.x1, SUM(fact.a) FROM fact JOIN d1 ON fact.k2 = d1.k WHERE d1.x1 < 5 GROUP BY d1.x1",
    "INSERT INTO fact VALUES (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)",
    "INSERT INTO d1 VALUES (3, 4)",
    "DELETE FROM fact WHERE a BETWEEN 60 AND 63",
    "DELETE FROM d2 WHERE y > 6",
];

/// Three small tables over all four encodings.
fn fixture() -> Database {
    let db = Database::in_memory();
    let n = 64;
    let col = |f: fn(i64) -> i64| (0..n).map(f).collect::<Vec<i64>>();
    let fact = ProjectionSpec::new("fact")
        .column("k1", EncodingKind::Rle, SortOrder::Primary)
        .column("k2", EncodingKind::Dict, SortOrder::None)
        .column("a", EncodingKind::Plain, SortOrder::None)
        .column("b", EncodingKind::BitVec, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None);
    let cols = [
        col(|i| i / 16),
        col(|i| i % 9),
        col(|i| (i * 37) % 64),
        col(|i| i % 5),
        col(|i| i - 32),
    ];
    let refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
    db.load_projection(&fact, &refs).unwrap();
    for (name, other) in [("d1", "x1"), ("d2", "y")] {
        let spec = ProjectionSpec::new(name)
            .column("k", EncodingKind::Plain, SortOrder::Primary)
            .column(other, EncodingKind::Rle, SortOrder::None);
        db.load_projection(&spec, &[&col(|i| i), &col(|i| i % 10)])
            .unwrap();
    }
    db
}

/// Compile `text` and run it if it compiles; a panic anywhere fails the
/// test and names the input. Returns whether it compiled.
fn drive(db: &Database, text: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| match compile(db.store(), text) {
        Ok(stmt) => {
            let _ = db.execute(&stmt);
            true
        }
        Err(_) => false,
    }));
    outcome.unwrap_or_else(|_| panic!("input panicked: {text:?}"))
}

/// One token-soup input: up to 24 vocabulary tokens, sometimes glued
/// together without spaces.
fn soup(rng: &mut Rng) -> String {
    let len = 1 + rng.below(24);
    let glue = if rng.below(4) == 0 { "" } else { " " };
    let mut words: Vec<&str> = (0..len).map(|_| rng.pick(VOCAB)).collect();
    if rng.below(2) == 0 {
        words.insert(0, rng.pick(&["SELECT", "INSERT", "DELETE"]));
    }
    words.join(glue)
}

/// Comparison operators the operator mutation swaps between.
const OPS: &[&str] = &["<", "<=", "=", "!=", "<>", ">", ">="];

/// Column names, some of them in no table.
const COLUMNS: &[&str] = &["k1", "k2", "a", "b", "c", "k", "x1", "y", "zz"];

/// One template with one to three word-level mutations. Most keep the
/// statement well-formed so it reaches the executor: a number becomes
/// an edge or a small integer, a column or an operator becomes another.
/// The rest break it: a word is dropped, duplicated, swapped or replaced
/// by a vocabulary token, or the text is cut short.
fn mutant(rng: &mut Rng) -> String {
    let mut words: Vec<String> = rng.pick(TEMPLATES).split(' ').map(str::to_string).collect();
    let numeric = |w: &str| w.starts_with(|c: char| c.is_ascii_digit() || c == '-');
    for _ in 0..1 + rng.below(3) {
        let i = rng.below(words.len());
        match rng.below(10) {
            0..=2 => {
                let numbers: Vec<usize> =
                    (0..words.len()).filter(|&j| numeric(&words[j])).collect();
                if !numbers.is_empty() {
                    let j = numbers[rng.below(numbers.len())];
                    let int = if rng.below(2) == 0 {
                        rng.pick(EDGE_INTS).to_string()
                    } else {
                        (rng.below(80) as i64 - 10).to_string()
                    };
                    let tail: String = words[j]
                        .chars()
                        .filter(|c| matches!(c, ',' | ')'))
                        .collect();
                    words[j] = format!("{int}{tail}");
                }
            }
            3 => {
                if let Some(w) = words.iter_mut().find(|w| OPS.contains(&w.as_str())) {
                    *w = rng.pick(OPS).to_string();
                }
            }
            4 => {
                if let Some(w) = words.iter_mut().find(|w| COLUMNS.contains(&w.as_str())) {
                    *w = rng.pick(COLUMNS).to_string();
                }
            }
            5 if words.len() > 1 => {
                words.remove(i);
            }
            6 => words.insert(i, words[i].clone()),
            7 => {
                let j = rng.below(words.len());
                words.swap(i, j);
            }
            8 => words[i] = rng.pick(VOCAB).to_string(),
            _ => words.truncate(i + 1),
        }
    }
    words.join(" ")
}

#[test]
fn token_soup_never_panics() {
    let db = fixture();
    let mut rng = Rng(7);
    for _ in 0..ITERATIONS {
        drive(&db, &soup(&mut rng));
    }
}

#[test]
fn mutated_templates_never_panic() {
    let db = fixture();
    let mut rng = Rng(11);
    for template in TEMPLATES {
        drive(&db, template);
    }
    let compiled = (0..ITERATIONS)
        .filter(|_| drive(&db, &mutant(&mut rng)))
        .count();
    // Most mutants keep their shape, so the executor sees a fair share.
    assert!(compiled > ITERATIONS / 10, "only {compiled} compiled");
}

#[test]
fn templates_compile_and_run() {
    // The mutations start from statements the engine accepts, so a
    // template that stops compiling would quietly hollow out the fuzz.
    let db = fixture();
    for template in TEMPLATES {
        let stmt = compile(db.store(), template).unwrap_or_else(|e| panic!("{template}: {e}"));
        db.execute(&stmt)
            .unwrap_or_else(|e| panic!("{template}: {e}"));
    }
}
