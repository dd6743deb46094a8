//! In-memory span recorder for the traced run.
//!
//! Every span is opened by the benchmark's own code around one call into a
//! layer's public functions: name, layer (the crate called), start, end,
//! parent and the number of operations the call covered. Spans are kept in
//! memory and written out once, when the run ends. With tracing off,
//! [`call`] is a plain function call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers spans are attributed to: the crates the benchmark calls into,
/// plus the benchmark's own harness code.
pub const LAYERS: [&str; 8] = [
    "psn-serve",
    "psn-core",
    "psn-predicates",
    "psn-sim",
    "psn-clocks",
    "psn-lang",
    "psn-world",
    "harness",
];

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operations the span covered (frames encoded, reports offered, …).
    pub items: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (idempotent).
fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.is_none() {
            *r = Some(Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() });
        }
    });
}

/// Switch span recording on or off; spans already recorded are kept.
pub fn set_enabled(on: bool) {
    if on {
        start();
    }
    ON.with(|c| c.set(on));
}

fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Run `f` inside a span of `layer` named `name` covering `items` operations.
pub fn call_n<R>(layer: &'static str, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("set_enabled starts the recorder");
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        rec.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent, items });
        let idx = rec.spans.len() - 1;
        rec.open.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder outlives its spans");
        rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.open.pop();
    });
    out
}

/// [`call_n`] for a call that is one operation.
pub fn call<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    call_n(layer, name, 1, f)
}

/// Every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().as_mut().map(|rec| std::mem::take(&mut rec.spans)))
        .unwrap_or_default()
}

/// Per-name totals: (calls, items, total ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub items: u64,
    pub ns: u64,
}

/// Per-layer totals: calls and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

/// Totals by span name, and self time by layer: a span's self time is its
/// duration minus the part its child spans cover.
pub fn summarize(
    spans: &[Span],
) -> (BTreeMap<&'static str, NameTotals>, BTreeMap<&'static str, LayerTotals>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut names: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut layers: BTreeMap<&'static str, LayerTotals> =
        LAYERS.iter().map(|&l| (l, LayerTotals::default())).collect();
    for (s, child) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let n = names.entry(s.name).or_default();
        n.calls += 1;
        n.items += s.items;
        n.ns += dur;
        let l = layers.entry(s.layer).or_default();
        l.calls += 1;
        l.self_ns += dur.saturating_sub(*child);
    }
    (names, layers)
}

/// Write spans as JSON lines: one object per span with its index.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"items\":{}}}",
            s.name, s.layer, s.start_ns, s.end_ns, s.items
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "outer",
                layer: "harness",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                items: 1,
            },
            Span {
                name: "inner",
                layer: "psn-core",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                items: 3,
            },
            Span {
                name: "inner",
                layer: "psn-core",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                items: 1,
            },
        ];
        let (names, layers) = summarize(&spans);
        assert_eq!(layers["harness"].self_ns, 60);
        assert_eq!(layers["psn-core"].self_ns, 40);
        assert_eq!(names["inner"].calls, 2);
        assert_eq!(names["inner"].items, 4);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        assert_eq!(call("psn-core", "x", || 7), 7);
        assert!(take().is_empty());
        set_enabled(true);
        assert_eq!(call("psn-core", "x", || 7), 7);
        assert_eq!(take().len(), 1);
        set_enabled(false);
    }
}
