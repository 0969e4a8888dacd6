//! What the three workloads share: the run record, the query mix, the
//! respawn fold, the subscriber side and the sampled correctness checks.

use std::collections::BTreeMap;
use std::time::Instant;

use cpm_core::ann::AggregateFn;
use cpm_core::{
    AnnQuery, AnyQuerySpec, ConstrainedQuery, CycleDeltas, Neighbor, PointQuery, RangeQuery,
};
use cpm_geom::{clamp_coord, Point, QueryId, Rect};
use cpm_grid::ObjectEvent;
use cpm_sub::{CycleReceipt, DeltaFanout, Replica};

use crate::reference::{classify, Reference, Verdict};
use crate::trace::Tracer;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Attempted and failed operation counts of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each identical set-up.
    pub setup_s: Vec<f64>,
    /// Timed window of each measured cycle.
    pub cycle_ms: Vec<f64>,
    /// Object events handed to the system in measured cycles.
    pub object_events: u64,
    /// Encoded `CycleDeltas` bytes of measured cycles.
    pub delta_bytes: u64,
    /// Journal bytes of measured cycles.
    pub journal_bytes: u64,
    /// Wall time of each restart.
    pub restart_ms: Vec<f64>,
    pub cycles: Ops,
    pub setups: Ops,
    pub recoveries: Ops,
    /// Results compared with the reference or with each other.
    pub checks: u64,
    /// Check failures, with what differed.
    pub mismatches: Vec<String>,
    /// Results that differ from the expected one only in which object at
    /// exactly the k-th distance they keep, by check.
    pub ties: BTreeMap<&'static str, u64>,
    /// Threads the workload started besides the main thread.
    pub threads_started: usize,
    /// Most threads busy at once, the main thread included.
    pub busy_threads: usize,
    /// Generator time (outside every timed window).
    pub generator_s: f64,
    /// Load adaptations applied, by name.
    pub adaptations: BTreeMap<&'static str, u64>,
    /// Per-layer counts and times: `(sum, samples)`, reported as means.
    pub layer: BTreeMap<String, (f64, u64)>,
    /// Free-form facts for the report.
    pub notes: Vec<String>,
}

impl Run {
    /// Record one sample of a per-layer metric.
    pub fn layer(&mut self, name: &str, v: f64) {
        let e = self.layer.entry(name.to_string()).or_default();
        e.0 += v;
        e.1 += 1;
    }

    /// Record one check outcome.
    pub fn check(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.checks += 1;
        if let Err(e) = outcome {
            if self.mismatches.len() < 20 {
                self.mismatches.push(format!("{}: {e}", what()));
            } else if self.mismatches.len() == 20 {
                self.mismatches.push("further mismatches not listed".into());
            }
        }
    }

    /// Count one adaptation of the load.
    pub fn adapt(&mut self, name: &'static str, n: u64) {
        *self.adaptations.entry(name).or_default() += n;
    }
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Half-side of a constrained query's region.
pub const CONSTRAINED_HALF_SIDE: f64 = 0.05;
/// Offset of an ANN query's second and third point from its first.
pub const ANN_SPREAD: f64 = 0.01;
/// Radius of a moving range query.
pub const RANGE_RADIUS: f64 = 0.01;

/// The query of slot `slot` anchored at `p`: seven in ten are k-NN, one
/// each a circular range, an aggregate NN (sum, min or max over three
/// points) and a constrained NN. The slot fixes the kind, so a moved
/// query keeps it.
pub fn mixed_spec(slot: u32, p: Point, k: usize) -> (AnyQuerySpec, usize) {
    match slot % 10 {
        0 => (
            AnyQuerySpec::Range(RangeQuery::circle(p, RANGE_RADIUS)),
            RangeQuery::UNBOUNDED_K,
        ),
        1 => {
            let f =
                [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max][(slot / 10 % 3) as usize];
            let pts = vec![
                p,
                Point::new(clamp_coord(p.x + ANN_SPREAD), p.y),
                Point::new(p.x, clamp_coord(p.y + ANN_SPREAD)),
            ];
            (AnyQuerySpec::Ann(AnnQuery::new(pts, f)), k)
        }
        2 => {
            let h = CONSTRAINED_HALF_SIDE;
            let region = Rect::new(
                Point::new(clamp_coord(p.x - h), clamp_coord(p.y - h)),
                Point::new(clamp_coord(p.x + h), clamp_coord(p.y + h)),
            );
            (
                AnyQuerySpec::Constrained(ConstrainedQuery::new(p, region)),
                k,
            )
        }
        _ => (AnyQuerySpec::Knn(PointQuery(p)), k),
    }
}

/// Index of a spec's kind in the report's per-kind tables.
pub fn kind_slot(spec: &AnyQuerySpec) -> usize {
    match spec {
        AnyQuerySpec::Knn(_) => 0,
        AnyQuerySpec::Range(_) => 1,
        AnyQuerySpec::Ann(_) => 2,
        AnyQuerySpec::Constrained(_) => 3,
        AnyQuerySpec::Rnn(_) => 4,
    }
}

/// Fold each `Disappear` immediately followed by an `Appear` of the same
/// object into one `Move` (the server refuses two events for one object
/// in a batch; the final state is the same). Returns the folds made.
pub fn fold_respawns(events: &mut Vec<ObjectEvent>) -> u64 {
    let mut out = Vec::with_capacity(events.len());
    let mut folds = 0;
    let mut i = 0;
    while i < events.len() {
        if let (ObjectEvent::Disappear { id }, Some(&ObjectEvent::Appear { id: next, pos })) =
            (events[i], events.get(i + 1))
        {
            if id == next {
                out.push(ObjectEvent::Move { id, to: pos });
                folds += 1;
                i += 2;
                continue;
            }
        }
        out.push(events[i]);
        i += 1;
    }
    *events = out;
    folds
}

/// The subscriber side: the fan-out that carries each cycle's deltas,
/// and one client replica per query that folds what its mailbox
/// delivers.
#[derive(Debug, Default)]
pub struct Subscribers {
    fanout: DeltaFanout,
    clients: BTreeMap<QueryId, Replica>,
}

impl Subscribers {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a subscription before the cycle that installs its query.
    pub fn subscribe(&mut self, id: QueryId) {
        assert!(self.fanout.subscribe(id), "subscription {id} is fresh");
        self.clients
            .insert(id, Replica::from_snapshot(self.fanout.epoch(), Vec::new()));
    }

    /// Close a subscription.
    pub fn unsubscribe(&mut self, id: QueryId) {
        self.fanout.unsubscribe(id);
        self.clients.remove(&id);
    }

    /// Publish one cycle's batch into the fan-out.
    pub fn publish(&mut self, batch: &CycleDeltas) -> CycleReceipt {
        self.fanout.publish(batch)
    }

    /// Every client drains its mailbox and applies what it finds.
    pub fn apply(&mut self) {
        for (id, replica) in &mut self.clients {
            for delta in self.fanout.drain(*id) {
                replica.apply(&delta);
            }
        }
    }

    /// Subscribed query ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.clients.keys().copied()
    }

    /// Client `id`'s replicated result.
    pub fn client(&self, id: QueryId) -> &[Neighbor] {
        self.clients[&id].result()
    }
}

/// The queries one check samples: `per_kind` of each kind, chosen by
/// `pick` (a deterministic draw), from `(id, kind slot)` pairs.
pub fn sample_queries(
    queries: &[(QueryId, usize)],
    per_kind: usize,
    mut pick: impl FnMut(usize) -> usize,
) -> Vec<QueryId> {
    let mut out = Vec::new();
    for kind in 0..4 {
        let of_kind: Vec<QueryId> = queries
            .iter()
            .filter(|(_, s)| *s == kind)
            .map(|(id, _)| *id)
            .collect();
        if of_kind.is_empty() {
            continue;
        }
        for _ in 0..per_kind {
            out.push(of_kind[pick(of_kind.len())]);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

impl Run {
    /// Record the verdict on `got` for a query of `spec` and size `k`.
    /// A boundary tie passes when every entry lies exactly at its
    /// reported distance (checked against `reference`, when given).
    pub fn judge(
        &mut self,
        check: &'static str,
        what: impl FnOnce() -> String,
        got: &[Neighbor],
        want: &[Neighbor],
        (spec, k): (&AnyQuerySpec, usize),
        reference: Option<&Reference>,
    ) {
        let outcome = match classify(got, want, k) {
            Verdict::Equal => Ok(()),
            Verdict::BoundaryTie => {
                let entries = reference.map_or(Ok(()), |r| r.verify_entries(spec, got));
                if entries.is_ok() {
                    *self.ties.entry(check).or_default() += 1;
                }
                entries
            }
            Verdict::Wrong(e) => Err(e),
        };
        self.check(what, outcome);
    }
}

/// Check a sample of queries against the reference: the system's result
/// (when it exposes one) and the client replica.
pub fn check_sample(
    run: &mut Run,
    reference: &Reference,
    cycle: u64,
    ids: &[QueryId],
    spec_of: impl Fn(QueryId) -> (AnyQuerySpec, usize),
    server_result: impl Fn(QueryId) -> Option<Vec<Neighbor>>,
    subs: &Subscribers,
) {
    for &id in ids {
        let (spec, k) = spec_of(id);
        let want = reference.result(&spec, k);
        if let Some(got) = server_result(id) {
            run.judge(
                "server vs reference",
                || format!("cycle {cycle}: server result of {id}"),
                &got,
                &want,
                (&spec, k),
                Some(reference),
            );
        }
        run.judge(
            "replica vs reference",
            || format!("cycle {cycle}: client replica of {id}"),
            subs.client(id),
            &want,
            (&spec, k),
            Some(reference),
        );
    }
}

/// Record the per-cycle work counters of a server's `take_metrics`.
pub fn record_core_metrics(run: &mut Run, m: &cpm_grid::Metrics) {
    run.layer("core.cell_accesses", m.cell_accesses as f64);
    run.layer("core.objects_processed", m.objects_processed as f64);
    run.layer("core.computations", m.computations as f64);
    run.layer("core.recomputations", m.recomputations as f64);
    run.layer("core.merge_resolutions", m.merge_resolutions as f64);
    run.layer("core.regrids", m.regrids as f64);
    run.layer(
        "core.regrid_objects_migrated",
        m.regrid_objects_migrated as f64,
    );
    for (kind, name) in KIND_NAMES.iter().enumerate() {
        let k = &m.by_kind[kind];
        for (field, v) in [
            ("cell_accesses", k.cell_accesses),
            ("objects_processed", k.objects_processed),
            ("computations", k.computations),
            ("recomputations", k.recomputations),
            ("merge_resolutions", k.merge_resolutions),
        ] {
            run.layer(&format!("core.{name}.{field}"), v as f64);
        }
    }
}

/// Query kinds the workloads install, in `by_kind` order.
pub const KIND_NAMES: [&str; 4] = ["knn", "range", "ann", "constrained"];

/// Grid shape counters of `grid`: occupied cells, the fullest cell, and
/// the share of occupied cells holding at most four objects.
pub fn record_grid_stats<I: cpm_grid::SpatialIndex>(run: &mut Run, grid: &cpm_grid::Grid<I>) {
    let stats = grid.stats();
    let small = grid
        .occupied_cells()
        .filter(|&c| grid.objects_in(c).len() <= 4)
        .count();
    run.layer("grid.occupied_cells", stats.occupied_cells as f64);
    run.layer("grid.hot_cell_max", stats.hot_cell_max as f64);
    run.layer(
        "grid.small_bucket_share",
        small as f64 / stats.occupied_cells.max(1) as f64,
    );
}

/// Record the fan-out receipt of one cycle.
pub fn record_receipt(run: &mut Run, r: &CycleReceipt) {
    run.layer("sub.deltas", r.deltas as f64);
    run.layer("sub.entries", r.entries as f64);
}

/// The per-layer span names the trace turns into `<name>_ms` metrics.
pub const SPAN_METRICS: [&str; 12] = [
    "grid.ingest",
    "core.cycle",
    "core.populate",
    "core.install",
    "wire.delta_encode",
    "wire.journal_encode",
    "sub.publish",
    "sub.apply",
    "cluster.single_node_cycle",
    "snapshot.checkpoint",
    "snapshot.decode",
    "snapshot.restore",
];

/// Turn recorded spans into per-layer means: each span name's self time
/// divided by how many spans of that name were recorded.
pub fn span_means(tracer: &Tracer) -> Vec<(String, f64)> {
    let own = tracer.self_ms();
    let counts = tracer.counts();
    SPAN_METRICS
        .iter()
        .map(|name| {
            let n = counts.get(name).copied().unwrap_or(0);
            let v = if n == 0 {
                0.0
            } else {
                own.get(name).copied().unwrap_or(0.0) / n as f64
            };
            (format!("{name}_ms"), v)
        })
        .collect()
}

/// Carry one cycle's batch to the subscribers: encode it as the links
/// carry it, publish it into the fan-out, and let every client apply
/// its mailbox. Returns the encoded size and the fan-out's receipt.
pub fn deliver(
    tr: &mut Tracer,
    root: crate::trace::SpanId,
    cycle: u64,
    deltas: &CycleDeltas,
    subs: &mut Subscribers,
) -> (usize, CycleReceipt) {
    use cpm_wire::Encode;
    let frame = tr.span("wire.delta_encode", root, cycle, || deltas.encode_to_vec());
    let receipt = tr.span("sub.publish", root, cycle, || subs.publish(deltas));
    tr.span("sub.apply", root, cycle, || subs.apply());
    (frame.len(), receipt)
}

/// The encoded size of the journal record a durable server appends for
/// one cycle, timed as `wire.journal_encode`.
pub fn journal_record_bytes(
    tr: &mut Tracer,
    cycle: u64,
    object_events: &[ObjectEvent],
    query_events: &[cpm_core::SpecEvent<AnyQuerySpec>],
) -> usize {
    use cpm_wire::Encode;
    let record = cpm_core::JournalRecord::Cycle {
        object_events: object_events.to_vec(),
        query_events: query_events.to_vec(),
    };
    tr.span("wire.journal_encode", crate::trace::NO_SPAN, cycle, || {
        record.encode_to_vec().len()
    })
}

/// Every per-layer metric a traced run reports; a layer the workload
/// does not run reports 0.
pub fn layer_metric_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "grid.small_bucket_share",
        "grid.hot_cell_max",
        "grid.occupied_cells",
        "core.cell_accesses",
        "core.objects_processed",
        "core.computations",
        "core.recomputations",
        "core.merge_resolutions",
        "core.regrids",
        "core.regrid_objects_migrated",
        "sub.deltas",
        "sub.entries",
        "cluster.route_ms",
        "cluster.worker_wait_ms",
        "cluster.merge_ms",
        "cluster.replication",
        "snapshot.replay_ms",
        "snapshot.replayed_cycles",
        "snapshot.bytes",
        "trace.span_coverage",
        "trace.cycle_ms_p50",
    ]
    .map(String::from)
    .to_vec();
    names.extend(SPAN_METRICS.iter().map(|n| format!("{n}_ms")));
    for kind in KIND_NAMES {
        for field in [
            "cell_accesses",
            "objects_processed",
            "computations",
            "recomputations",
            "merge_resolutions",
        ] {
            names.push(format!("core.{kind}.{field}"));
        }
    }
    names
}
