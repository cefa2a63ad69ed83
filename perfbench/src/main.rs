//! `perfbench` — the session-level benchmark of the adaptive online join.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady-equi|hot-band|fluct-migrate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one pusher thread and one subscriber thread drive the
//! public serving API (`JoinSession::open → push → MatchSubscription →
//! close`), in a closed loop. A run generates the workload's input from
//! the seed and runs one unmeasured warm-up session, then repeats a few
//! set-up probes and one session over the whole input until its time is
//! up, checking every delivered match. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` reports the end-to-end metrics (throughput, match
//!   latency p50/p99, set-up time, peak RSS).
//! * `--trace 1` alternates untraced and traced sessions, then replays
//!   the input through each layer's public functions, and reports the
//!   per-layer metrics; the spans go to `perfbench-spans/` next to the
//!   binary.
//!
//! `attempted` counts pushes plus delivered matches; `failed` counts
//! refused pushes plus matches that fail the output check, so
//! `failed / attempted` is the run's error rate. Any failure makes the
//! run exit with code 1.

mod drive;
mod hist;
mod layers;
mod procfs;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aoj_core::ilf::optimal_ilf;
use aoj_core::tuple::Rel;
use aoj_operators::reshuffler::ControlEvent;
use aoj_operators::RunReport;

use drive::{Checker, Runner, SessionResult};
use hist::Histogram;
use trace::Tracer;
use workloads::{Spec, J};

/// Set-up probes before each measured session, so that the set-up
/// samples span the run as the sessions do and a short stall of the
/// host moves few of them; one probe takes about a millisecond.
const PROBES_PER_SESSION: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s ≤ 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Seconds from each migration decision to its all-acked event.
fn migration_s(report: &RunReport) -> f64 {
    let mut decided = HashMap::new();
    let mut total_us = 0;
    for e in &report.events {
        match e {
            ControlEvent::Decide { at, epoch, .. } => {
                decided.insert(*epoch, at.as_micros());
            }
            ControlEvent::Complete { at, epoch } => {
                if let Some(t) = decided.remove(epoch) {
                    total_us += at.as_micros().saturating_sub(t);
                }
            }
            _ => {}
        }
    }
    total_us as f64 / 1e6
}

/// Per-layer metrics of a traced run, and the replays' failed checks.
fn layer_metrics(
    spec: &Spec,
    input: &workloads::Input,
    traced: &[&SessionResult],
    untraced: &[&SessionResult],
    tr: &mut Tracer,
) -> (Vec<Metric>, u64) {
    let arrivals = &input.arrivals;
    let n = arrivals.len() as f64;
    let mut m = Vec::new();
    let mut violations = 0;

    // Session layer, from the traced sessions' spans.
    let session_tuples: f64 = traced.iter().map(|r| r.tuples as f64).sum();
    let push_phase: f64 = traced.iter().map(|r| r.push_phase_ns as f64).sum();
    let wall: f64 = traced.iter().map(|r| r.wall_ns as f64).sum();
    let delivered: f64 = traced.iter().map(|r| r.delivered as f64).sum();
    m.push(metric(
        "session.push_block_share",
        tr.totals("push").total_ns as f64 / push_phase,
        "ratio",
    ));
    m.push(metric(
        "session.recv_wait_share",
        tr.totals("recv").total_ns as f64 / tr.totals("subscriber").total_ns as f64,
        "ratio",
    ));
    m.push(metric(
        "session.matches_per_s",
        delivered / (wall / 1e9),
        "1/s",
    ));
    m.push(metric(
        "session.queued_tuples_max",
        traced.iter().map(|r| r.queued_max).max().unwrap_or(0) as f64,
        "count",
    ));
    m.push(metric(
        "session.close_s",
        median(traced.iter().map(|r| r.close_ns as f64 / 1e9).collect()),
        "s",
    ));

    // Layer replays over the same arrivals, single-threaded.
    let join = layers::joinalg(spec, arrivals, tr);
    if let Some(oracle) = &input.oracle {
        violations += join.probe.matches.abs_diff(oracle.count);
    }
    let ns = |tr: &Tracer, name: &str| tr.totals(name).total_ns as f64 / n;
    m.push(metric(
        "joinalg.insert_ns_per_tuple",
        ns(tr, "joinalg.insert_batch"),
        "ns",
    ));
    m.push(metric(
        "joinalg.evict_ns_per_tuple",
        ns(tr, "joinalg.evict_before") + ns(tr, "joinalg.seal_segment"),
        "ns",
    ));
    m.push(metric(
        "joinalg.probe_ns_per_tuple",
        ns(tr, "joinalg.probe_batch"),
        "ns",
    ));
    m.push(metric(
        "joinalg.matches_per_candidate",
        join.probe.matches as f64 / join.probe.candidates.max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "joinalg.replay_tps",
        n / (join.wall_ns as f64 / 1e9),
        "1/s",
    ));

    layers::sketch(arrivals, tr);
    m.push(metric(
        "sketch.observe_ns_per_tuple",
        ns(tr, "sketch.observe"),
        "ns",
    ));

    let decisions = layers::decision(arrivals, tr);
    m.push(metric(
        "decision.observe_ns_per_tuple",
        ns(tr, "decision.observe"),
        "ns",
    ));
    m.push(metric("decision.decisions", decisions as f64, "count"));

    // Operator counters from the traced sessions' reports.
    let (r_bytes, s_bytes) = {
        let from = spec
            .window
            .map_or(0, |span| arrivals.len().saturating_sub(span as usize));
        arrivals[from..]
            .iter()
            .fold((0u64, 0u64), |(r, s), (rel, it)| match rel {
                Rel::R => (r + it.bytes as u64, s),
                Rel::S => (r, s + it.bytes as u64),
            })
    };
    let ilf_star = optimal_ilf(J, r_bytes, s_bytes);
    let med = |f: &dyn Fn(&SessionResult) -> f64| median(traced.iter().map(|r| f(r)).collect());
    m.push(metric(
        "operator.migrations",
        med(&|r| r.report.migrations as f64),
        "count",
    ));
    m.push(metric(
        "operator.migration_bytes",
        med(&|r| r.report.migration_bytes as f64),
        "B",
    ));
    m.push(metric(
        "operator.migration_s",
        med(&|r| migration_s(&r.report)),
        "s",
    ));
    m.push(metric(
        "operator.ilf_ratio",
        med(&|r| r.report.max_ilf_bytes as f64 / ilf_star),
        "ratio",
    ));
    m.push(metric(
        "operator.tuples_per_message",
        med(&|r| r.tuples as f64 / r.report.network_messages.max(1) as f64),
        "count",
    ));
    m.push(metric(
        "operator.bytes_per_tuple",
        med(&|r| r.report.network_bytes as f64 / r.tuples as f64),
        "B",
    ));
    m.push(metric(
        "operator.match_imbalance",
        med(&|r| {
            let per: Vec<f64> = r.report.machines.iter().map(|s| s.matches as f64).collect();
            let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
            per.iter().cloned().fold(0.0, f64::max) / mean
        }),
        "ratio",
    ));
    m.push(metric(
        "operator.evicted_bytes",
        med(&|r| r.report.total_evicted_bytes() as f64),
        "B",
    ));
    m.push(metric(
        "operator.stored_bytes_max",
        med(&|r| r.stored_max.max(r.report.total_storage_bytes) as f64),
        "B",
    ));

    let wire = layers::wire(arrivals, tr);
    violations += wire.failed;
    m.push(metric(
        "wire.encode_ns_per_tuple",
        ns(tr, "wire.encode"),
        "ns",
    ));
    m.push(metric(
        "wire.decode_ns_per_tuple",
        ns(tr, "wire.decode"),
        "ns",
    ));
    m.push(metric("wire.bytes_per_tuple", wire.bytes as f64 / n, "B"));

    let tps = |rs: &[&SessionResult]| median(rs.iter().map(|r| r.throughput_tps()).collect());
    m.push(metric(
        "bench.tracing_overhead",
        tps(traced) / tps(untraced),
        "ratio",
    ));

    // Self time of every span name, per tuple of its phase.
    for (names, per) in [(&SESSION_SPANS[..], session_tuples), (&REPLAY_SPANS[..], n)] {
        for name in names {
            m.push(metric(
                &format!("self.{name}.ns_per_tuple"),
                tr.totals(name).self_ns() as f64 / per,
                "ns",
            ));
        }
    }
    (m, violations)
}

/// Spans recorded around the session API, on the pusher and subscriber.
const SESSION_SPANS: [&str; 7] = [
    "session",
    "open",
    "push",
    "stats",
    "close",
    "subscriber",
    "recv",
];
/// Spans recorded around each layer replay and the calls inside it.
const REPLAY_SPANS: [&str; 12] = [
    "replay.joinalg",
    "joinalg.probe_batch",
    "joinalg.insert_batch",
    "joinalg.seal_segment",
    "joinalg.evict_before",
    "replay.sketch",
    "sketch.observe",
    "replay.decision",
    "decision.observe",
    "replay.wire",
    "wire.encode",
    "wire.decode",
];

/// How far delivered pairs reach past a count window's `span + 2·sub_span`
/// in sequence numbers: the share of pairs beyond it, and the largest
/// gap over the bound. Windows run on each joiner's processing clock,
/// so a tuple delayed on one channel can meet partners further away
/// than the bound; these are measured, not failed.
fn window_metrics(spec: &Spec, checker: &Checker, sessions: &[&SessionResult]) -> Vec<Metric> {
    let delivered: u64 = sessions.iter().map(|r| r.delivered).sum();
    let beyond: u64 = sessions.iter().map(|r| r.beyond_window).sum();
    let max_gap = sessions.iter().map(|r| r.max_gap).max().unwrap_or(0);
    let ratio = if spec.window.is_some() {
        max_gap as f64 / checker.gap_bound as f64
    } else {
        0.0
    };
    vec![
        metric(
            "check.window_overshoot_share",
            beyond as f64 / delivered.max(1) as f64,
            "ratio",
        ),
        metric("check.window_gap_max_ratio", ratio, "ratio"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let input = workloads::generate(&spec, args.seed);
    let checker = Checker::new(&spec, &input.arrivals);
    let runner = Runner::new(&spec, args.seed, &input.arrivals, &checker);
    let n = input.arrivals.len();
    let oracle = input.oracle.as_ref();
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "workload {} (seed {}, {} tuples per session, threaded backend, J = {J}, closed loop, 1 client, host_cores {})",
        spec.name,
        args.seed,
        n,
        std::thread::available_parallelism().map_or(0, |c| c.get()),
    );

    let mut all: Vec<SessionResult> = Vec::new();
    // Unmeasured warm-up: lazy allocation and first-use costs.
    all.push(runner.session((n / 10).max(1), None, false));
    let warmups = all.len();

    let start = Instant::now();
    let steal_from = procfs::cpu_steal();
    let mut setups: Vec<f64> = Vec::new();
    // A probe pushes one tuple and must deliver no match.
    let (mut probe_refused, mut probe_matches) = (0u64, 0u64);
    loop {
        let t = Instant::now();
        for _ in 0..PROBES_PER_SESSION {
            let p = runner.probe();
            setups.push(p.setup_ns as f64 / 1e9);
            probe_refused += p.refused as u64;
            probe_matches += p.delivered;
        }
        let traced = args.trace && (all.len() - warmups) % 2 == 1;
        all.push(runner.session(n, oracle, traced));
        let enough = !args.trace || all.len() - warmups >= 2;
        if enough && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_from, procfs::cpu_steal()) {
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the measured sessions",
            100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        );
    }
    let mut tr = Tracer::new(args.trace, runner.epoch, 0);
    for r in all.iter_mut().filter(|r| r.traced) {
        tr.absorb(std::mem::replace(
            &mut r.tracer,
            Tracer::new(false, runner.epoch, 0),
        ));
    }
    let measured: Vec<&SessionResult> = all[warmups..].iter().collect();
    let (traced, untraced): (Vec<&SessionResult>, Vec<&SessionResult>) =
        measured.iter().partition(|r| r.traced);
    setups.sort_by(f64::total_cmp);
    println!(
        "set-up samples: {} from {:.6} to {:.6} s, quartiles {:.6} / {:.6} / {:.6} s",
        setups.len(),
        setups[0],
        setups[setups.len() - 1],
        setups[setups.len() / 4],
        setups[setups.len() / 2],
        setups[setups.len() * 3 / 4],
    );

    let mut violations: u64 = all.iter().map(|r| r.violations).sum();
    let refused: u64 = all.iter().map(|r| r.refused).sum::<u64>() + probe_refused;
    violations += probe_matches;
    let pushes: u64 = all.iter().map(|r| r.tuples).sum::<u64>() + setups.len() as u64;
    let delivered: u64 = all.iter().map(|r| r.delivered).sum();
    let metrics = if args.trace {
        let (m, failed_checks) = layer_metrics(&spec, &input, &traced, &untraced, &mut tr);
        violations += failed_checks;
        write_spans(&tr, &spec);
        m.into_iter()
            .chain(window_metrics(&spec, &checker, &measured))
            .collect()
    } else {
        for m in window_metrics(&spec, &checker, &measured) {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let mut latency = Histogram::default();
        for r in &untraced {
            latency.merge(&r.latency);
        }
        println!(
            "latency over all sessions: p50 {} us, p99 {} us, {} samples",
            latency.quantile(0.5) / 1e3,
            latency.quantile(0.99) / 1e3,
            latency.count()
        );
        // The first measured session runs on a fresh heap (only the
        // small warm-up and probes precede it), so its peak is what a
        // process serving one session needs; later sessions inherit
        // whatever the allocator kept cached from earlier ones.
        let first = untraced[0];
        let rss_kb = first.peak_rss_kb as f64;
        // Each session's own percentile, then the median over sessions:
        // one session that hit a rare stall moves it less than it moves
        // the pooled percentile printed above.
        let pct = |q: f64| {
            median(
                untraced
                    .iter()
                    .map(|r| r.latency.quantile(q) / 1e3)
                    .collect(),
            )
        };
        vec![
            metric(
                "throughput_tps",
                median(untraced.iter().map(|r| r.throughput_tps()).collect()),
                "1/s",
            ),
            metric("latency_p50_us", pct(0.5), "us"),
            metric("latency_p99_us", pct(0.99), "us"),
            metric("setup_s", median(setups.clone()), "s"),
            metric("peak_rss_mb", rss_kb / 1024.0, "MB"),
        ]
    };

    for (i, r) in measured.iter().enumerate() {
        println!(
            "session {i}{}: {:.0} tuples/s, {} matches, p50 {} us, p99 {} us, {} migrations",
            if r.traced { " (traced)" } else { "" },
            r.throughput_tps(),
            r.delivered,
            r.latency.quantile(0.5) / 1e3,
            r.latency.quantile(0.99) / 1e3,
            r.report.migrations,
        );
    }

    let failed = refused + violations;
    let attempted = pushes + delivered + probe_matches;
    println!(
        "sessions: {} measured + {} set-up probes + {warmups} warm-up; error_rate = {} ({failed} failed of {attempted} attempted)",
        measured.len(),
        setups.len(),
        failed as f64 / attempted as f64,
    );
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the traced run's spans next to the binary, one file per
/// workload: the latest traced run replaces the previous one, so
/// repeated runs do not pile up files.
fn write_spans(tr: &Tracer, spec: &Spec) {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-spans")));
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{}.jsonl", spec.name));
    let written = fs::create_dir_all(&dir)
        .and_then(|_| fs::File::create(&path))
        .and_then(|f| {
            let mut out = BufWriter::new(f);
            tr.write_jsonl(&mut out, spec.name)?;
            out.flush()
        });
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
