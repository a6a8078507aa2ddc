//! The span recorder: spans around the calls into each layer, kept in
//! memory and written to `trace.json` when the workload ends. The
//! spans are the benchmark's own — nothing inside the program is
//! instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::write_str;

/// One timed call. `parent` indexes the recorder's span list; the spans
/// of one statement share `stmt_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub stmt_id: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock. One recorder per thread; merge with
/// [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(t0: Instant) -> Recorder {
        Recorder {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, stmt_id: usize) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            stmt_id: stmt_id as u32,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let now = self.t0.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].nanos()
    }

    /// Time `f` as a span; returns its result and the nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        stmt_id: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.enter(name, stmt_id);
        let out = f();
        (out, self.exit(id))
    }

    /// Append another recorder's spans (same clock), re-basing parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: a span's duration minus
    /// the part of it its children cover.
    pub fn self_nanos(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.nanos();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *by_name.entry(s.name).or_default() += s.nanos().saturating_sub(covered);
        }
        by_name
    }

    /// The spans as one JSON document, one span per line.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"workload\": ");
        write_str(&mut out, workload);
        out.push_str(", \"clock\": \"ns since the workload's trace began\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("{\"name\": ");
            write_str(&mut out, s.name);
            write!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.start_ns, s.end_ns
            )
            .expect("write to String");
            match s.parent {
                Some(p) => write!(out, "{p}").expect("write to String"),
                None => out.push_str("null"),
            }
            write!(out, ", \"stmt_id\": {}}}", s.stmt_id).expect("write to String");
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now());
        let stmt = rec.enter("stmt", 7);
        let (v, compile_ns) = rec.time("lang.compile", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            41 + 1
        });
        assert_eq!(v, 42);
        let inner = rec.enter("session.run", 7);
        let _leaked = rec.enter("exec.execute", 7);
        rec.exit(inner); // closes the leaked child too
        let stmt_ns = rec.exit(stmt);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.stmt_id == 7));
        assert!(compile_ns >= 2_000_000 && stmt_ns >= compile_ns);
        let own = rec.self_nanos();
        assert_eq!(own["stmt"], stmt_ns - spans[1].nanos() - spans[2].nanos());
        assert_eq!(own["lang.compile"], compile_ns);

        let mut other = Recorder::new(Instant::now());
        let a = other.enter("a", 1);
        other.time("b", 1, || ());
        other.exit(a);
        rec.absorb(other);
        assert_eq!(rec.spans()[5].parent, Some(4));

        let doc = Json::parse(&rec.to_json("wire_short")).unwrap();
        let parsed = doc.get("spans").unwrap().elements();
        assert_eq!(parsed.len(), 6);
        assert_eq!(parsed[0].get("parent"), Some(&Json::Null));
        assert_eq!(parsed[5].get("parent").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            parsed[1].get("name").and_then(Json::as_str),
            Some("lang.compile")
        );
    }
}
