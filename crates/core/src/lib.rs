//! # tcpburst-core
//!
//! The experiment harness reproducing *"On the Burstiness of the TCP
//! Congestion-Control Mechanism in a Distributed Computing System"*
//! (Tinnakornsrisuphap, Feng & Philp, ICDCS 2000).
//!
//! The paper's question: does TCP *modulate* smooth application traffic
//! into bursty network traffic? Its instrument: the coefficient of
//! variation (c.o.v.) of the number of packets arriving at a shared gateway
//! per round-trip propagation delay, compared against the analytic c.o.v.
//! of the generating aggregate Poisson process.
//!
//! This crate wires the substrates together into the paper's client /
//! gateway / server simulation and exposes:
//!
//! * [`ScenarioConfig`] / [`Scenario`] — build and run one simulation
//!   (N clients pushing Poisson traffic over a chosen transport through a
//!   FIFO or RED gateway) and collect a [`ScenarioReport`],
//! * [`Protocol`] — the paper's seven protocol configurations (Poisson
//!   reference, UDP, Reno, Reno/RED, Vegas, Vegas/RED, Reno/DelayAck),
//! * [`experiments`] — one generator per table/figure of the paper's
//!   evaluation (Figure 2 c.o.v., Figure 3 throughput, Figure 4 loss,
//!   Figures 5–12 congestion-window evolution, Figure 13 timeout ratio),
//!   each returning printable rows,
//! * [`PaperParams`] — the reconstructed Table 1,
//! * [`SweepSupervisor`] — the one runner of every grid, a list of
//!   configurations: a `protocol × clients × seed` grid folds into what
//!   [`experiments::Sweep`] and [`ReplicatedSweep`] render, any other list
//!   returns its reports in order, and any `--jobs` or `--workers` value
//!   produces bit-identical reports,
//! * [`store`] — the content-addressed result store: a finished grid
//!   point is persisted under a digest of its full configuration and is
//!   never recomputed,
//! * [`workers`] — multi-process sweep execution: one scheduler spreads
//!   grid points across crash-isolated worker processes, local
//!   (`--workers`) or registered with the [`daemon`], byte-identical to
//!   the in-process run.
//!
//! Scenarios are assembled with the staged [`ScenarioBuilder`]
//! (topology → workload → transport → impairments → instrumentation);
//! the same stages drive the `tcpburst` CLI's flag handling, and the
//! [`Impairments`] schedule injects deterministic faults (link flaps,
//! corruption, cross-traffic) without breaking the bit-identical
//! parallel-sweep contract.
//!
//! ## Quickstart
//!
//! ```
//! use tcpburst_core::{Protocol, Scenario, ScenarioBuilder};
//!
//! // 20 Reno clients for 20 simulated seconds (the paper runs 200 s).
//! let cfg = ScenarioBuilder::paper()
//!     .topology(|t| t.clients(20))
//!     .transport(|t| t.protocol(Protocol::Reno))
//!     .instrumentation(|i| i.secs(20))
//!     .finish();
//! let report = Scenario::run(&cfg);
//! assert!(report.delivered_packets > 0);
//! println!("c.o.v. = {:.3} (Poisson reference {:.3})",
//!          report.cov, report.poisson_cov);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod chaos;
pub mod codec;
mod config;
pub mod daemon;
mod event;
pub mod experiments;
pub mod net_transport;
pub mod parallel;
pub mod plot;
mod profile;
mod replicate;
mod report;
mod scenario;
pub mod store;
pub mod supervise;
mod trace;
pub mod workers;

pub use chaos::{ChaosAction, ChaosSchedule, ChaosTransport, CHAOS_ENV, CHAOS_ID_ENV};
pub use daemon::{
    remote_worker_main, submit_job, ExecTuning, Gateway, JobConn, RemoteExec, WorkerOptions,
    DEFAULT_TOKEN,
};
pub use net_transport::{
    encode_frame, FrameError, FrameTransport, PipeTransport, TcpTransport, MAX_FRAME,
};

pub use builder::{
    BuilderStage, CliFlag, ImpairmentStage, InstrumentationStage, ScenarioBuilder, TopologyStage,
    TransportStage, WorkloadStage,
};
pub use config::{
    ConfigError, GatewayKind, PaperParams, Protocol, ScenarioConfig, SourceKind, TopoKind,
    TransportKind,
};
pub use event::{Event, ImpairEvent};
pub use parallel::available_jobs;
pub use profile::{DispatchProfile, EventClassStats, TimerReport};
pub use replicate::{ReplicatedCell, ReplicatedSweep};
pub use report::{FlowReport, HopSeries, ImpairmentReport, ScenarioReport};
pub use scenario::Scenario;
pub use store::{
    point_digest, sweep_digest, Digest, ResultStore, StoreStats, ENGINE_SCHEMA_VERSION,
};
pub use supervise::{
    run_point, AuditReport, ExceededBudget, FailurePolicy, InvariantViolation, JournalEntry,
    PointFailure, PointOutcome, PointSpec, RunBudget, RunError, RunJournal, SupervisedGrid,
    SupervisedSweep, Supervisor, SweepSupervisor,
};
pub use trace::{EventLog, TraceEvent, TraceKind};
pub use workers::{worker_main, RobustnessCounters, WorkerCommand};

pub use tcpburst_net::Impairments;
