//! # aoj-operators — the paper's dataflow operators on the simulated cluster
//!
//! Wires the algorithmic core (`aoj-core`) and the local join algorithms
//! (`aoj-joinalg`) onto the deterministic cluster simulator
//! (`aoj-simnet`), reproducing the four operators of the paper's
//! evaluation (§5). All four run on one topology — `J` reshufflers + `J`
//! joiners, controller = reshuffler 0 — and differ only in how the
//! reshufflers route:
//!
//! * **Dynamic** — the adaptive operator: Alg. 1 statistics, Alg. 2
//!   decisions, the non-blocking epoch protocol of Alg. 3,
//!   locality-aware exchanges;
//! * **StaticMid** — fixed `(√J, √J)` grid;
//! * **StaticOpt** — fixed oracle-optimal grid (knows stream sizes ahead
//!   of time);
//! * **SHJ** — content-sensitive parallel symmetric hash join: each
//!   tuple goes to joiner `hash(key) mod J` (equi-joins only, any `J`).
//!
//! Two entry points share the same machinery:
//!
//! * [`session::JoinSession`] — the **live serving API**: open a
//!   long-lived session, push tuples with caller-visible backpressure,
//!   stream matches through a subscription, read live gauges, close to
//!   drain and collect the report;
//! * [`driver::run`] — the offline experiment harness: executes one
//!   pre-materialized arrival sequence (now a thin wrapper over the
//!   session: open, push all, close) and returns a
//!   [`report::RunReport`] carrying every quantity the paper's tables
//!   and figures plot.

pub mod batch;
pub mod driver;
pub mod elastic_runtime;
pub mod grouped;
pub mod joiner_task;
pub mod messages;
pub mod report;
pub mod reshuffler;
pub mod session;
pub mod skew;
pub mod source;
pub mod supervise;

pub use batch::BatchConfig;
pub use driver::{run, run_on, BackendChoice, OperatorKind};
pub use elastic_runtime::ElasticConfig;
pub use grouped::{run_grouped, GroupedReport};
pub use messages::{Match, OpMsg};
pub use report::{human_bytes, ContractTransfer, ExpandTransfer, RunReport};
pub use report::{MachineStats, SkewSummary};
pub use session::{
    assemble_topology, register_tcp_backend, FaultSection, IngestHandle, IngestQueue, JoinSession,
    KeyFilter, LifecycleSection, MatchHub, MatchSubscription, NetBackend, NetBackendFactory,
    PushError, SessionBuilder, SessionHandle, SessionStats, SessionTopology,
};
pub use skew::{SkewBoard, SkewPolicy, SkewState};
pub use source::SourcePacing;
pub use supervise::{RecoveryStats, SupervisedOutcome, SupervisedSession};
