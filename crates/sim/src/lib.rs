//! Simulation driver, ground-truth oracle, metrics collection and
//! experiment parameterization for the CPM reproduction suite.
//!
//! * [`algo`] — the [`KnnMonitorAlgo`] trait unifying CPM, YPK-CNN,
//!   SEA-CNN and the oracle behind one driving surface.
//! * [`oracle`] — brute-force ground truth.
//! * [`params`] — Table 6.1 parameters with paper defaults and scaling.
//! * [`stream`] — pre-generated update streams so every contender replays
//!   the identical workload.
//! * [`recovery`] — the crash-recovery chaos harness
//!   ([`verify_recovery`]): seeded crash/corruption schedules over the
//!   durable server, asserting bit-identical recovery.
//! * [`cluster`] — the distributed conformance harness
//!   ([`verify_cluster`]): coordinator-routed multi-worker runs asserting
//!   merged delta streams bit-identical to a single node.
//! * [`runner`] — timed replay, per-run reports, and the
//!   oracle-verification harnesses used by the integration tests
//!   (contender agreement, sharded determinism, delta-stream replay,
//!   unified-server conformance).
//! * [`viz`] — ASCII rendering of grids and query book-keeping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod cluster;
pub mod oracle;
pub mod params;
pub mod recovery;
pub mod runner;
pub mod stream;
pub mod viz;

pub use algo::{knn_spec_events, AlgoKind, KnnMonitorAlgo};
pub use cluster::{
    verify_cluster, verify_cluster_pipelined, verify_cluster_tcp, verify_cluster_tcp_pipelined,
};
pub use oracle::{brute_force_range, OracleMonitor};
pub use params::{Placement, SimParams, WorkloadKind};
pub use recovery::verify_recovery;
pub use runner::{
    run, run_boxed, run_contenders, run_sharded, verify_against_oracle, verify_delta_replay,
    verify_index, verify_regrid, verify_sharded_determinism, verify_unified_server,
    verify_unified_server_with, RunReport,
};
pub use stream::SimulationInput;
