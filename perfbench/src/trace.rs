//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span open around it (its
//! parent) and the transfer or session it belongs to. Spans stay in
//! memory while a batch runs; the runner then folds them into per-layer
//! self times, and keeps one batch's spans to write out when the
//! benchmark ends. A disabled tracer records nothing and reads no clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation`, e.g. `receiver.attempt`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Transfer id (net workloads) or session index (`svc_mixed`).
    pub id: u64,
    /// Batch repetition the span belongs to.
    pub rep: u32,
}

/// Records spans for one thread (see the module docs).
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    id: Cell<u64>,
    rep: Cell<u32>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            on: Cell::new(false),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: Cell::new(0),
            rep: Cell::new(0),
        }
    }

    /// Turn recording on or off for the next batch repetition `rep`.
    pub fn start_rep(&self, rep: u32, on: bool) {
        self.on.set(on);
        self.rep.set(rep);
    }

    /// True while spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.get()
    }

    /// Attribute the following spans to transfer or session `id`.
    pub fn set_id(&self, id: u64) {
        self.id.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when disabled.
    pub fn enter(&self, name: &'static str) -> Option<u32> {
        if !self.on.get() {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let idx = spans.len() as u32;
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: open.last().copied().unwrap_or(NO_PARENT),
            id: self.id.get(),
            rep: self.rep.get(),
        });
        open.push(idx);
        Some(idx)
    }

    /// Close the span `tok` opened, renaming it to `name`.
    pub fn exit_as(&self, tok: Option<u32>, name: &'static str) {
        if let Some(idx) = tok {
            let end = self.now_ns();
            let mut spans = self.spans.borrow_mut();
            let span = &mut spans[idx as usize];
            span.end_ns = end;
            span.name = name;
            self.open.borrow_mut().pop();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let tok = self.enter(name);
        let r = f();
        self.exit_as(tok, name);
        r
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        self.open.borrow_mut().clear();
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time per span name, summed over `spans`: each span's duration
/// minus the part of it that its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
    }
    out
}

/// Wall time covered by top-level spans: the sum of all self times.
pub fn covered_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Write `spans` as JSON lines after a `header` line.
pub fn write_jsonl(w: &mut impl Write, header: &str, spans: &[Span]) -> io::Result<()> {
    writeln!(w, "{header}")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
            s.rep, s.name, s.start_ns, s.end_ns, parent, s.id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            rep: 0,
        };
        let spans = [
            span("sender.poll", 0, 100, NO_PARENT),
            span("link.send", 10, 30, 0),
            span("link.send", 40, 50, 0),
            span("receiver.fold", 100, 160, NO_PARENT),
        ];
        let t = self_times(&spans);
        assert_eq!(t["sender.poll"], 70);
        assert_eq!(t["link.send"], 30);
        assert_eq!(t["receiver.fold"], 60);
        assert_eq!(covered_ns(&spans), 160);
        assert_eq!(t.values().sum::<u64>(), covered_ns(&spans));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        assert_eq!(tr.time("wire.parse", || 7), 7);
        assert!(tr.take().is_empty());
        tr.start_rep(1, true);
        tr.time("wire.parse", || tr.time("link.recv", || ()));
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].rep, 1);
    }
}
