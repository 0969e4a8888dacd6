//! Conceptual Partitioning Monitoring (CPM) — the primary contribution of
//! *"Conceptual Partitioning: An Efficient Method for Continuous Nearest
//! Neighbor Monitoring"* (Mouratidis, Hadjieleftheriou, Papadias; SIGMOD
//! 2005), implemented in full:
//!
//! * [`partition`] — the conceptual space partitioning into direction/level
//!   rectangles around a query (Section 3.1, Lemma 3.1), generalized to
//!   rectangular bases for aggregate queries (Section 5).
//! * [`engine`] — the CPM machinery, written once over a [`QuerySpec`]:
//!   NN computation (Fig. 3.4), re-computation (Fig. 3.6), batched update
//!   handling with the incoming/outgoing optimization (Fig. 3.8), and the
//!   complete monitoring cycle (Fig. 3.9). The paper's continuous k-NN
//!   query is the [`PointQuery`] spec; [`CpmConfig`] holds the two
//!   ablation switches.
//! * [`shard`] — [`ShardedCpmEngine`], the engine itself: one shared grid
//!   plus `S` query shards processed on worker threads, bit-identical for
//!   every `S`. `S = 1` is the sequential engine.
//! * [`ann`] — aggregate-NN queries for `sum`, `min` and `max`
//!   (Section 5): [`AnnQuery`].
//! * [`constrained`] — NN queries restricted to a rectangular region
//!   (Section 5): [`ConstrainedQuery`].
//! * [`range`] — continuous range queries (rectangle/circle membership),
//!   the subscription shape of location-aware pub/sub: [`RangeQuery`].
//! * [`rnn`] — reverse-NN candidates via six sector-constrained 1-NN
//!   queries: [`RnnQuery`].
//! * [`server`] — the **unified multi-query facade**: every kind above on
//!   one shared grid with a single per-cycle ingest, typed handles, and a
//!   [`CpmError`]-based registry surface. Entry point: [`CpmServer`] via
//!   [`CpmServerBuilder`].
//! * [`any`] — [`AnyQuerySpec`], the enum over every query geometry that
//!   lets the engine run heterogeneous query sets unchanged.
//! * [`error`] — the typed error surface ([`CpmError`]).
//! * [`delta`] — per-cycle result deltas ([`NeighborDelta`]), extracted
//!   inside the maintenance phase and merged deterministically across
//!   shards; the wire format of the [`cpm-sub`] subscription layer.
//! * [`analysis`] — the closed-form cost model of Section 4.1.
//! * [`snapshot`] — crash-consistent durability: logical snapshots, an
//!   append-only operation journal (over the [`cpm_wire`] codec), and the
//!   [`DurableCpmServer`] checkpoint/replay recovery wrapper.
//! * [`regrid`] — cost-model-driven **online re-gridding**: the engines
//!   re-evaluate their grid resolution against the observed workload at
//!   cycle boundaries ([`RegridPolicy`]), migrating the cell index and
//!   re-registering queries in one deterministic pass while results,
//!   changed lists and delta streams stay bit-identical to a from-scratch
//!   build at the new δ.
//!
//! [`cpm-sub`]: ../cpm_sub/index.html
//!
//! The substrate (grid index, influence lists, metrics) lives in
//! [`cpm_grid`]; geometry primitives in [`cpm_geom`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod ann;
pub mod any;
pub mod codec;
pub mod constrained;
pub mod delta;
pub mod engine;
pub mod error;
pub mod heap;
mod inlist;
pub mod neighbors;
pub mod partition;
pub mod range;
pub mod regrid;
pub mod rnn;
pub mod server;
pub mod shard;
pub mod snapshot;

pub use analysis::CostModel;
pub use ann::{AggregateFn, AnnQuery};
pub use any::AnyQuerySpec;
pub use constrained::ConstrainedQuery;
pub use delta::{CycleDeltas, NeighborDelta};
pub use engine::{CpmConfig, PointQuery, QuerySpec, SpecEvent, SpecQueryState};
pub use error::CpmError;
pub use neighbors::{Neighbor, NeighborList};
pub use partition::{Direction, Pinwheel, Strip};
pub use range::{RangeQuery, Region};
pub use regrid::{AutoRegridConfig, RegridController, RegridPolicy};
pub use rnn::RnnQuery;
pub use server::{
    AnnHandle, ConstrainedHandle, CpmServer, CpmServerBuilder, KnnHandle, QueryHandle, RangeHandle,
    RnnHandle,
};
pub use shard::{shard_of, ShardedCpmEngine};
pub use snapshot::{
    DurableCpmServer, EngineSnapshot, JournalRecord, RecoveryError, RecoveryReport, Snapshot,
};
