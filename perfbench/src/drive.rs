//! One live session, driven through the public serving API:
//! `JoinSession::open → push → MatchSubscription → close`.
//!
//! The calling thread is the pusher, in a closed loop: it sends the next
//! tuple as soon as the previous push returns. One scoped thread is the
//! subscriber. Latency is measured per delivered match, from the push of
//! the later of its two tuples to the moment the subscriber receives it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aoj_core::lifecycle::WindowSpec;
use aoj_core::predicate::Predicate;
use aoj_core::tuple::{Rel, Tuple};
use aoj_datagen::stream::Arrivals;
use aoj_operators::report::MatchDigest;
use aoj_operators::{
    BackendChoice, JoinSession, Match, MatchSubscription, OperatorKind, RunReport, SessionBuilder,
    SessionHandle,
};

use crate::hist::Histogram;
use crate::procfs;
use crate::trace::{Tracer, ROOT};
use crate::workloads::{Spec, J};

/// How often the pusher of a traced session polls `stats()`.
const POLL_EVERY: Duration = Duration::from_millis(20);
/// A session that has not processed its first tuple this long after
/// opening is broken; fail instead of waiting for the run's time limit.
const SETUP_LIMIT: Duration = Duration::from_secs(60);

/// The per-match output check: O(1) lookups into the generated input.
pub struct Checker {
    is_r: Vec<bool>,
    keys: Vec<i64>,
    predicate: Predicate,
    /// `span + 2·sub_span` of a count window (`u64::MAX` without one).
    pub gap_bound: u64,
}

impl Checker {
    pub fn new(spec: &Spec, arrivals: &Arrivals) -> Checker {
        Checker {
            is_r: arrivals.iter().map(|(rel, _)| *rel == Rel::R).collect(),
            keys: arrivals.iter().map(|(_, it)| it.key).collect(),
            predicate: spec.predicate.clone(),
            gap_bound: spec
                .window
                .map(|span| span + 2 * WindowSpec::count(span).sub_span())
                .unwrap_or(u64::MAX),
        }
    }

    #[inline]
    fn ok(&self, m: &Match) -> bool {
        let (r, s) = (m.r_seq as usize, m.s_seq as usize);
        if r >= self.keys.len() || s >= self.keys.len() || !self.is_r[r] || self.is_r[s] {
            return false;
        }
        if self.keys[r] != m.r_key || self.keys[s] != m.s_key {
            return false;
        }
        let rt = Tuple::new(Rel::R, m.r_seq, m.r_key, 0);
        let st = Tuple::new(Rel::S, m.s_seq, m.s_key, 0);
        self.predicate.matches(&rt, &st)
    }
}

/// What one session measured.
pub struct SessionResult {
    pub tuples: u64,
    /// First push → `close()` returned and the subscriber drained.
    pub wall_ns: u64,
    pub close_ns: u64,
    /// First push → last push returned.
    pub push_phase_ns: u64,
    /// Per-match latency, ns.
    pub latency: Histogram,
    pub delivered: u64,
    pub violations: u64,
    /// Delivered pairs whose sequence gap exceeds `span + 2·sub_span`.
    pub beyond_window: u64,
    /// Largest sequence gap of a delivered pair.
    pub max_gap: u64,
    pub refused: u64,
    pub report: RunReport,
    pub queued_max: usize,
    pub stored_max: u64,
    /// This process's peak RSS (`VmHWM`) once the session closed, KiB.
    pub peak_rss_kb: u64,
    pub traced: bool,
    pub tracer: Tracer,
}

impl SessionResult {
    pub fn throughput_tps(&self) -> f64 {
        self.tuples as f64 / (self.wall_ns as f64 / 1e9)
    }
}

pub struct Runner<'a> {
    spec: &'a Spec,
    seed: u64,
    arrivals: &'a Arrivals,
    checker: &'a Checker,
    /// Time zero of every timestamp the runner and its tracers take.
    pub epoch: Instant,
    /// Push time of each tuple, ns since `epoch`.
    push_ns: Vec<AtomicU64>,
    /// The next unused tracer tag: every session's two tracers get
    /// their own, so span ids stay unique once all are merged. Tag 0
    /// is left to the caller's tracer.
    next_tag: AtomicU64,
}

impl<'a> Runner<'a> {
    pub fn new(spec: &'a Spec, seed: u64, arrivals: &'a Arrivals, checker: &'a Checker) -> Self {
        Runner {
            spec,
            seed,
            arrivals,
            checker,
            epoch: Instant::now(),
            push_ns: (0..arrivals.len()).map(|_| AtomicU64::new(0)).collect(),
            next_tag: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn builder(&self) -> SessionBuilder {
        let mut b = SessionBuilder::new(J, OperatorKind::Dynamic)
            .with_predicate(self.spec.predicate.clone())
            .with_workload(self.spec.name)
            .with_seed(self.seed)
            .with_backend(BackendChoice::Threaded);
        if let Some(span) = self.spec.window {
            b = b.with_count_window(span);
        }
        b
    }

    /// One set-up probe: open a session, push the first arrival as its
    /// only tuple, and time `open` → that tuple processed; then close.
    pub fn probe(&self) -> Probe {
        let t_open = Instant::now();
        let mut session = JoinSession::open(self.builder());
        let (rel, item) = self.arrivals[0];
        let refused = session.push(rel, item).is_err();
        await_first(&session, t_open + SETUP_LIMIT);
        let setup_ns = t_open.elapsed().as_nanos() as u64;
        let report = session.close();
        Probe {
            setup_ns,
            refused,
            delivered: report.match_digest.count,
        }
    }

    /// Run one session over the first `n` arrivals. `oracle` is the
    /// exact expected digest when the whole input is pushed.
    pub fn session(&self, n: usize, oracle: Option<&MatchDigest>, traced: bool) -> SessionResult {
        assert!(n >= 1 && n <= self.arrivals.len());
        let tag = self.next_tag.fetch_add(2, Ordering::Relaxed);
        let mut tr = Tracer::new(traced, self.epoch, tag);
        let (mut queued_max, mut stored_max) = (0usize, 0u64);
        let mut refused = 0u64;

        let deadline = Instant::now() + SETUP_LIMIT;
        let root = tr.enter("session", ROOT);
        tr.enter("open", ROOT);
        let mut session = JoinSession::open(self.builder());
        tr.exit();
        let sub = session.subscribe();
        let epoch = self.epoch;
        std::thread::scope(|scope| {
            let subscriber =
                scope.spawn(move || self.subscribe(sub, Tracer::new(traced, epoch, tag + 1), root));

            // The rest of the stream waits until set-up is over (the first
            // tuple processed), so set-up does not count in match latency.
            let (rel, item) = self.arrivals[0];
            let first_push = self.now_ns();
            self.push_ns[0].store(first_push, Ordering::Relaxed);
            tr.enter("push", ROOT);
            refused += session.push(rel, item).is_err() as u64;
            tr.exit();
            await_first(&session, deadline);

            let mut poll = |session: &SessionHandle, tr: &mut Tracer| {
                if tr.enabled() {
                    tr.enter("stats", ROOT);
                    let s = session.stats();
                    tr.exit();
                    queued_max = queued_max.max(s.queued_tuples);
                    stored_max = stored_max.max(s.total_stored_bytes());
                }
            };
            let mut last_poll = Instant::now();
            for i in 1..n {
                let (rel, item) = self.arrivals[i];
                self.push_ns[i].store(self.now_ns(), Ordering::Relaxed);
                tr.enter("push", ROOT);
                refused += session.push(rel, item).is_err() as u64;
                tr.exit();
                if i % 1024 == 0 && last_poll.elapsed() >= POLL_EVERY {
                    poll(&session, &mut tr);
                    last_poll = Instant::now();
                }
            }
            let push_phase_ns = self.now_ns() - first_push;
            poll(&session, &mut tr);

            tr.enter("close", ROOT);
            let t_close = Instant::now();
            let report = session.close();
            let close_ns = t_close.elapsed().as_nanos() as u64;
            tr.exit();
            let sub = subscriber.join().expect("subscriber thread panicked");
            let wall_ns = self.now_ns() - first_push;
            tr.exit();
            tr.absorb(sub.tracer);

            let mut violations = sub.violations;
            let expected = oracle.copied().unwrap_or(report.match_digest);
            for got in [sub.digest, report.match_digest] {
                if got != expected {
                    violations += got.count.abs_diff(expected.count).max(1);
                }
            }
            SessionResult {
                tuples: n as u64,
                wall_ns,
                close_ns,
                push_phase_ns,
                latency: sub.latency,
                delivered: sub.digest.count,
                violations,
                beyond_window: sub.beyond,
                max_gap: sub.max_gap,
                refused,
                report,
                queued_max,
                stored_max,
                peak_rss_kb: procfs::self_peak_kb(),
                traced,
                tracer: tr,
            }
        })
    }

    fn subscribe(&self, mut sub: MatchSubscription, mut tr: Tracer, parent: u64) -> Subscribed {
        let mut latency = Histogram::default();
        let mut digest = MatchDigest::default();
        let (mut violations, mut beyond, mut max_gap) = (0u64, 0u64, 0u64);
        tr.enter("subscriber", parent);
        loop {
            tr.enter("recv", ROOT);
            let next = sub.next();
            tr.exit();
            let Some(m) = next else { break };
            let now = self.now_ns();
            digest.fold(m.r_seq, m.s_seq);
            if !self.checker.ok(&m) {
                violations += 1;
                continue;
            }
            let t0 = self.push_ns[m.r_seq.max(m.s_seq) as usize].load(Ordering::Relaxed);
            latency.record(now.saturating_sub(t0));
            let gap = m.r_seq.abs_diff(m.s_seq);
            beyond += (gap > self.checker.gap_bound) as u64;
            max_gap = max_gap.max(gap);
        }
        tr.exit();
        Subscribed {
            latency,
            digest,
            violations,
            beyond,
            max_gap,
            tracer: tr,
        }
    }
}

/// Wait until the session has processed its first tuple: the end of
/// set-up.
fn await_first(session: &SessionHandle, deadline: Instant) {
    while session.stats().processed_copies == 0 {
        assert!(
            Instant::now() < deadline,
            "the session processed nothing within {SETUP_LIMIT:?} of opening"
        );
        std::thread::sleep(Duration::from_micros(20));
    }
}

/// What one set-up probe measured.
pub struct Probe {
    pub setup_ns: u64,
    pub refused: bool,
    /// Matches the operator emitted; a one-tuple session has none.
    pub delivered: u64,
}

struct Subscribed {
    latency: Histogram,
    digest: MatchDigest,
    violations: u64,
    beyond: u64,
    max_gap: u64,
    tracer: Tracer,
}
