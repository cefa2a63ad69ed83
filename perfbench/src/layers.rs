//! Single-threaded replays of one workload's arrivals through each
//! layer's public functions, timed from here with spans. Nothing inside
//! the program is instrumented.

use std::hint::black_box;

use aoj_core::decision::{DecisionConfig, MigrationDecider};
use aoj_core::index::ProbeStats;
use aoj_core::lifecycle::{WindowSpec, WindowTracker};
use aoj_core::mapping::Mapping;
use aoj_core::sketch::{SkewConfig, SpaceSaving, TDigest};
use aoj_core::tuple::{Rel, Tuple};
use aoj_datagen::stream::Arrivals;
use aoj_net::wire::{dec_task_msg, enc_task_msg_into};
use aoj_operators::OpMsg;
use aoj_simnet::{SimTime, TaskId};

use crate::trace::{Tracer, ROOT};
use crate::workloads::{Spec, J};

/// The data plane's default batch size.
pub const BATCH: usize = 64;

fn tuples(arrivals: &Arrivals) -> Vec<Tuple> {
    arrivals
        .iter()
        .enumerate()
        .map(|(seq, (rel, it))| Tuple {
            seq: seq as u64,
            rel: *rel,
            key: it.key,
            aux: it.aux,
            bytes: it.bytes,
            ticket: 0,
        })
        .collect()
}

pub struct JoinReplay {
    pub probe: ProbeStats,
    pub wall_ns: u64,
}

/// The single-thread baseline of the job: every batch of 64 arrivals
/// probes and then joins the state, one single-relation run at a time
/// (so no intra-batch pair is missed), and a count window seals and
/// evicts as a joiner would.
pub fn joinalg(spec: &Spec, arrivals: &Arrivals, tr: &mut Tracer) -> JoinReplay {
    let ts = tuples(arrivals);
    let mut idx = aoj_joinalg::index_for(&spec.predicate);
    let mut window = spec
        .window
        .map(|span| WindowTracker::new(WindowSpec::count(span)));
    let mut bound = 0;
    let mut probe = ProbeStats::default();
    let start = std::time::Instant::now();
    tr.enter("replay.joinalg", ROOT);
    for batch in ts.chunks(BATCH) {
        let mut at = 0;
        while at < batch.len() {
            let rel = batch[at].rel;
            let len = batch[at..].iter().take_while(|t| t.rel == rel).count();
            let run = &batch[at..at + len];
            tr.enter("joinalg.probe_batch", ROOT);
            probe += idx.probe_batch(run, &mut |i, stored| {
                black_box((i, stored.seq));
            });
            tr.exit();
            tr.enter("joinalg.insert_batch", ROOT);
            idx.insert_batch(run);
            tr.exit();
            at += len;
        }
        if let Some(w) = window.as_mut() {
            let mut seal = false;
            for t in batch {
                seal |= w.observe(t.seq, 0);
            }
            if seal {
                tr.enter("joinalg.seal_segment", ROOT);
                idx.seal_segment();
                tr.exit();
            }
            let b = w.evict_bound();
            if b > bound {
                bound = b;
                tr.enter("joinalg.evict_before", ROOT);
                black_box(idx.evict_before(b));
                tr.exit();
            }
        }
    }
    tr.exit();
    JoinReplay {
        probe,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// The reshuffler's skew sketch: per-relation SpaceSaving counters and
/// a t-digest of per-key load, fed one arrival at a time.
pub fn sketch(arrivals: &Arrivals, tr: &mut Tracer) {
    let cfg = SkewConfig::default();
    let (mut r, mut s) = (SpaceSaving::new(cfg.keys), SpaceSaving::new(cfg.keys));
    let mut load = TDigest::new(cfg.centroids);
    tr.enter("replay.sketch", ROOT);
    for chunk in arrivals.chunks(BATCH) {
        tr.enter("sketch.observe", ROOT);
        for (rel, it) in chunk {
            let side = if *rel == Rel::R { &mut r } else { &mut s };
            side.observe(it.key, it.bytes as u64);
            load.add((r.estimate(it.key) + s.estimate(it.key)) as f64);
        }
        tr.exit();
    }
    tr.exit();
    black_box(load.quantile(0.99));
}

/// Alg. 2 over the arrival sequence. Returns decision points evaluated.
pub fn decision(arrivals: &Arrivals, tr: &mut Tracer) -> u64 {
    let mut d = MigrationDecider::new(J, Mapping::square(J), DecisionConfig::default());
    tr.enter("replay.decision", ROOT);
    for chunk in arrivals.chunks(BATCH) {
        tr.enter("decision.observe", ROOT);
        for (rel, it) in chunk {
            black_box(d.observe(*rel == Rel::R, it.bytes as u64));
        }
        tr.exit();
    }
    tr.exit();
    d.counters().0
}

pub struct WireReplay {
    pub bytes: u64,
    /// Messages that failed to decode or decoded to another shape.
    pub failed: u64,
}

/// Encode and decode the workload's `DataBatch` messages as the TCP
/// backend ships them between machines.
pub fn wire(arrivals: &Arrivals, tr: &mut Tracer) -> WireReplay {
    let ts = tuples(arrivals);
    let mut buf = Vec::new();
    let (mut bytes, mut failed) = (0u64, 0u64);
    tr.enter("replay.wire", ROOT);
    for batch in ts.chunks(BATCH) {
        let msg = OpMsg::DataBatch {
            tag: 1,
            store: true,
            tuples: batch.to_vec(),
            arrived: batch.iter().map(|t| SimTime(t.seq)).collect(),
        };
        buf.clear();
        tr.enter("wire.encode", ROOT);
        enc_task_msg_into(TaskId(1), TaskId(2), &msg, &mut buf);
        tr.exit();
        bytes += buf.len() as u64;
        tr.enter("wire.decode", ROOT);
        let back = dec_task_msg(&buf);
        tr.exit();
        match back {
            Ok((_, _, OpMsg::DataBatch { tuples, .. }))
                if tuples.len() == batch.len()
                    && tuples
                        .iter()
                        .zip(batch)
                        .all(|(a, b)| (a.seq, a.key) == (b.seq, b.key)) => {}
            _ => failed += 1,
        }
    }
    tr.exit();
    WireReplay { bytes, failed }
}
