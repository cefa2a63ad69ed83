//! In-memory spans for the traced run.
//!
//! Every span records its name, start, end, parent and workload; spans
//! stay in memory and are written out once the run ends. Each thread
//! owns its own [`Tracer`] (no locking on the measured path); span ids
//! carry the tracer's tag in their top bits, so tracers with distinct
//! tags merge without clashes. Self time — a span's duration minus the
//! part of it its children cover — is folded into per-name totals as
//! spans close, so the totals cover every span even when the per-name
//! cap stops keeping the individual records of a very hot name (`push`,
//! `recv`). The cap holds for the merged tracer too: merging keeps at
//! most `KEEP_PER_NAME` records of each name in all.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Individual records kept per span name; totals count every span.
const KEEP_PER_NAME: usize = 5_000;

/// One closed span.
#[derive(Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span closed, kept or not.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration covered by same-thread children (which never overlap
    /// each other on one thread).
    pub child_ns: u64,
}

impl Totals {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// A per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tag: u64,
    next: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    kept_per_name: BTreeMap<&'static str, usize>,
    totals: BTreeMap<&'static str, Totals>,
}

/// Span id 0 means "no parent".
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new(on: bool, epoch: Instant, tag: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            tag,
            next: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            kept_per_name: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span of this thread, or
    /// under `parent` when none is open. Returns its id (0 when off).
    pub fn enter(&mut self, name: &'static str, parent: u64) -> u64 {
        if !self.on {
            return ROOT;
        }
        self.next += 1;
        let id = (self.tag << 48) | self.next;
        let parent = self.stack.last().map_or(parent, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            parent,
            name,
            start_ns,
            child_ns: 0,
        });
        id
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let o = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - o.start_ns;
        if let Some(up) = self.stack.last_mut() {
            up.child_ns += dur;
        }
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += o.child_ns;
        self.keep(Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            start_ns: o.start_ns,
            end_ns,
        });
        dur
    }

    /// Keep a span's record unless its name has used up its cap.
    fn keep(&mut self, s: Span) {
        let kept = self.kept_per_name.entry(s.name).or_insert(0);
        if *kept < KEEP_PER_NAME {
            *kept += 1;
            self.kept.push(s);
        }
    }

    /// Totals of `name` (zero when never recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Fold another tracer, with a tag of its own, into this one.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        assert!(
            !other.on || other.tag != self.tag || !self.on,
            "absorbing a tracer with the same tag would repeat span ids"
        );
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
        }
        for s in other.kept {
            self.keep(s);
        }
    }

    /// Write every kept span as one JSON object per line, followed by
    /// one `totals` line per span name.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> io::Result<()> {
        let mut spans = self.kept.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in &spans {
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, workload
            )?;
        }
        for (name, t) in &self.totals {
            writeln!(
                out,
                "{{\"totals\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"workload\":\"{}\"}}",
                name,
                t.count,
                t.total_ns,
                t.self_ns(),
                workload
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        let outer = t.enter("outer", ROOT);
        t.enter("inner", ROOT);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.exit();
        t.exit();
        let o = t.totals("outer");
        assert_eq!(o.child_ns, inner);
        assert_eq!(o.self_ns(), o.total_ns - inner);
        assert_eq!(t.kept[0].parent, outer, "inner nests under outer");
    }

    #[test]
    fn merging_keeps_ids_unique_and_the_cap_per_name() {
        let epoch = Instant::now();
        let mut all = Tracer::new(true, epoch, 0);
        for tag in 1..=3 {
            let mut t = Tracer::new(true, epoch, tag);
            for _ in 0..KEEP_PER_NAME / 2 {
                t.enter("push", ROOT);
                t.exit();
            }
            all.absorb(t);
        }
        assert_eq!(all.totals("push").count, 3 * (KEEP_PER_NAME / 2) as u64);
        assert_eq!(all.kept.len(), KEEP_PER_NAME);
        let mut ids: Vec<u64> = all.kept.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), KEEP_PER_NAME);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        t.enter("x", ROOT);
        t.exit();
        assert_eq!(t.totals("x").count, 0);
    }
}
