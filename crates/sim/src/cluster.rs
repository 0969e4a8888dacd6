//! Cluster conformance harness: the single-node-equivalence guarantee,
//! asserted bit-for-bit.
//!
//! [`verify_cluster`] replays one seeded mixed-kind workload into two
//! lanes per worker count × index backend:
//!
//! * **lane A** is a single [`cpm_core::CpmServer`] processing every
//!   cycle, recording the per-cycle [`CycleDeltas`] (changed lists plus
//!   delta streams);
//! * **lane B** is a [`ClusterCoordinator`] over in-process workers: the
//!   same global batches are routed through the partition, each worker
//!   runs its own server over its coverage, and the coordinator commits
//!   the epoch-aligned merge. Halfway through, one worker is restarted
//!   via snapshot transfer ([`ClusterCoordinator::restart_worker`]).
//!
//! Every merged batch must equal lane A's **bit-identically** — same
//! changed lists, same deltas, same `f64` distance bits — and the final
//! per-query results must agree after folding lane B's stream through a
//! [`DeltaFanout`], proving the hub handoff preserves the guarantee end
//! to end. [`verify_cluster_tcp`] runs the same protocol over TCP
//! loopback transports.
//!
//! Query anchors are pinned inside per-strip jitter boxes so ownership
//! is well-defined for every worker count and the influence certificate
//! holds throughout — a seed that escapes its coverage fails *typed*
//! (`CoverageExceeded`), never silently.

use cpm_cluster::{
    ChannelTransport, ClusterConfig, ClusterCoordinator, ClusterError, Transport, WorkerHandle,
};
use cpm_core::{
    AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmServer, CpmServerBuilder,
    CycleDeltas, PointQuery, RangeQuery, SpecEvent,
};
use cpm_geom::{ObjectId, Point, QueryId, Rect};
use cpm_grid::{IndexKind, ObjectEvent};
use cpm_sub::DeltaFanout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Placement;

/// Horizontal centers of the four ownership strips the workload pins its
/// query anchors to (the `workers = 4` tiling; coarser tilings contain
/// these strips whole, so anchors stay owned by one worker either way).
const STRIP_X: [f64; 4] = [0.125, 0.375, 0.625, 0.875];

const KNN_IDS: [QueryId; 4] = [QueryId(0), QueryId(1), QueryId(2), QueryId(3)];
const RANGE_IDS: [QueryId; 2] = [QueryId(10), QueryId(11)];
const ANN_ID: QueryId = QueryId(20);
const CON_ID: QueryId = QueryId(30);
const TRANSIENT_ID: QueryId = QueryId(5);
/// Installed out-of-band mid-run through `ClusterCoordinator::install`
/// (lane A mirrors it with `CpmServer::install_spec`), exercising the
/// between-cycles maintenance path.
const EXTRA_ID: QueryId = QueryId(50);

/// One cycle's input batches, as plain data both lanes replay verbatim.
#[derive(Debug, Clone)]
struct CycleWork {
    object_events: Vec<ObjectEvent>,
    query_events: Vec<SpecEvent<AnyQuerySpec>>,
}

/// An anchor inside strip `s`'s jitter box: close enough to the strip
/// center that updates never move a query off its owner's tile.
fn strip_anchor(rng: &mut StdRng, s: usize) -> Point {
    Point::new(
        STRIP_X[s] + rng.gen_range(-0.04..0.04),
        rng.gen_range(0.15..0.85),
    )
}

/// The fixed mixed-kind query population, one install batch.
fn build_installs(seed: u64) -> Vec<SpecEvent<AnyQuerySpec>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1B5_7E12);
    let mut installs = Vec::new();
    for (s, &id) in KNN_IDS.iter().enumerate() {
        installs.push(SpecEvent::Install {
            id,
            spec: AnyQuerySpec::Knn(PointQuery(strip_anchor(&mut rng, s))),
            k: 3,
        });
    }
    installs.push(SpecEvent::Install {
        id: RANGE_IDS[0],
        spec: AnyQuerySpec::Range(RangeQuery::circle(strip_anchor(&mut rng, 1), 0.08)),
        k: RangeQuery::UNBOUNDED_K,
    });
    let c = strip_anchor(&mut rng, 2);
    installs.push(SpecEvent::Install {
        id: RANGE_IDS[1],
        spec: AnyQuerySpec::Range(RangeQuery::rect(Rect::new(
            Point::new(c.x - 0.06, c.y - 0.06),
            Point::new(c.x + 0.06, c.y + 0.06),
        ))),
        k: RangeQuery::UNBOUNDED_K,
    });
    let a = strip_anchor(&mut rng, 0);
    installs.push(SpecEvent::Install {
        id: ANN_ID,
        spec: AnyQuerySpec::Ann(AnnQuery::new(
            vec![
                Point::new(a.x - 0.02, a.y),
                Point::new(a.x + 0.02, a.y + 0.03),
            ],
            AggregateFn::Sum,
        )),
        k: 2,
    });
    let q = strip_anchor(&mut rng, 3);
    installs.push(SpecEvent::Install {
        id: CON_ID,
        spec: AnyQuerySpec::Constrained(ConstrainedQuery::new(
            q,
            Rect::new(
                Point::new(q.x - 0.09, q.y - 0.09),
                Point::new(q.x + 0.09, q.y + 0.09),
            ),
        )),
        k: 3,
    });
    installs
}

/// The out-of-band mid-run install both lanes apply between the same two
/// cycles.
fn extra_install(seed: u64) -> Vec<SpecEvent<AnyQuerySpec>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0E57_AA11);
    vec![SpecEvent::Install {
        id: EXTRA_ID,
        spec: AnyQuerySpec::Knn(PointQuery(strip_anchor(&mut rng, 1))),
        k: 2,
    }]
}

/// Build the whole run's per-cycle batches up front. Cycle 0 carries the
/// initial object population as appears and cycle 1 the query installs,
/// so both lanes ingest identical streams (installs land *after* objects
/// exist — a k-NN installed over an empty workspace has unbounded
/// influence, which no finite coverage can certify) and every initial
/// result rides the delta stream.
fn build_workload(
    seed: u64,
    n_objects: u32,
    cycles: usize,
    installs: &[SpecEvent<AnyQuerySpec>],
    placement: Placement,
) -> Vec<CycleWork> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0CA7);
    let mut live: Vec<u32> = (0..n_objects).collect();
    let mut next_oid = n_objects;
    let install_at = (cycles / 3).max(2);
    let terminate_at = (2 * cycles) / 3;
    let use_transient = install_at < terminate_at;

    (0..cycles)
        .map(|cycle| {
            let mut object_events = Vec::new();
            let mut seen = std::collections::HashSet::new();
            if cycle == 0 {
                for &id in &live {
                    object_events.push(ObjectEvent::Appear {
                        id: ObjectId(id),
                        pos: placement.draw(&mut rng),
                    });
                }
            } else {
                for _ in 0..rng.gen_range(1..16) {
                    match rng.gen_range(0..10) {
                        0 if live.len() > n_objects as usize / 2 => {
                            let at = rng.gen_range(0..live.len());
                            let id = live.swap_remove(at);
                            if seen.insert(id) {
                                object_events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                            } else {
                                live.push(id);
                            }
                        }
                        1 => {
                            live.push(next_oid);
                            seen.insert(next_oid);
                            object_events.push(ObjectEvent::Appear {
                                id: ObjectId(next_oid),
                                pos: placement.draw(&mut rng),
                            });
                            next_oid += 1;
                        }
                        _ => {
                            let id = live[rng.gen_range(0..live.len())];
                            if seen.insert(id) {
                                object_events.push(ObjectEvent::Move {
                                    id: ObjectId(id),
                                    to: placement.draw(&mut rng),
                                });
                            }
                        }
                    }
                }
            }

            let mut query_events: Vec<SpecEvent<AnyQuerySpec>> = Vec::new();
            if cycle == 1 {
                query_events.extend(installs.iter().cloned());
            }
            if cycle > 1 && rng.gen_bool(0.4) {
                let s = rng.gen_range(0..KNN_IDS.len());
                query_events.push(SpecEvent::Update {
                    id: KNN_IDS[s],
                    spec: AnyQuerySpec::Knn(PointQuery(strip_anchor(&mut rng, s))),
                });
            }
            if cycle > 1 && rng.gen_bool(0.3) {
                query_events.push(SpecEvent::Update {
                    id: RANGE_IDS[0],
                    spec: AnyQuerySpec::Range(RangeQuery::circle(
                        strip_anchor(&mut rng, 1),
                        0.05 + rng.gen::<f64>() * 0.06,
                    )),
                });
            }
            if use_transient && cycle == install_at {
                query_events.push(SpecEvent::Install {
                    id: TRANSIENT_ID,
                    spec: AnyQuerySpec::Knn(PointQuery(strip_anchor(&mut rng, 2))),
                    k: 2,
                });
            }
            if use_transient && cycle == terminate_at {
                query_events.push(SpecEvent::Terminate { id: TRANSIENT_ID });
            }

            CycleWork {
                object_events,
                query_events,
            }
        })
        .collect()
}

/// Lane A: the single-node reference run, with the out-of-band extra
/// install applied right after cycle `extra_at`. Returns the final
/// server and every cycle's delta batch.
fn reference_run(
    work: &[CycleWork],
    extra_at: usize,
    extra: &[SpecEvent<AnyQuerySpec>],
    grid_dim: u32,
    index: IndexKind,
) -> (CpmServer, Vec<CycleDeltas>) {
    let mut server = CpmServerBuilder::new(grid_dim)
        .shards(1)
        .deltas(true)
        .index(index)
        .try_build()
        .expect("valid reference configuration");
    let mut outputs = Vec::with_capacity(work.len());
    for (t, w) in work.iter().enumerate() {
        let mut out = CycleDeltas::default();
        server
            .process_cycle_with_deltas_into(&w.object_events, &w.query_events, &mut out)
            .expect("validated workload");
        outputs.push(out);
        if t == extra_at {
            for ev in extra {
                match ev {
                    SpecEvent::Install { id, spec, k } => {
                        let _ = server
                            .install_spec(*id, spec.clone(), *k)
                            .expect("valid install");
                    }
                    _ => unreachable!("the extra batch only installs"),
                }
            }
        }
    }
    (server, outputs)
}

/// Lane B: drive a connected coordinator through the workload, asserting
/// each merged batch equals the reference bit-for-bit and folding the
/// stream through a [`DeltaFanout`]. `extra` is the out-of-band install
/// batch and the cycle it lands after; `restart` (if any) fires before
/// the given cycle and must hot-swap one worker.
#[allow(clippy::type_complexity)]
fn drive_cluster<T: Transport>(
    mut coord: ClusterCoordinator<T>,
    work: &[CycleWork],
    extra: (usize, &[SpecEvent<AnyQuerySpec>]),
    reference: &[CycleDeltas],
    final_server: &CpmServer,
    mut restart: Option<(
        usize,
        Box<dyn FnMut(&mut ClusterCoordinator<T>) -> Result<WorkerHandle, ClusterError>>,
    )>,
    label: &str,
) -> Vec<WorkerHandle> {
    let (extra_at, extra) = extra;
    let mut extra_handles = Vec::new();
    let mut fanout = DeltaFanout::new();
    let tracked = [
        KNN_IDS[0],
        KNN_IDS[1],
        KNN_IDS[2],
        KNN_IDS[3],
        RANGE_IDS[0],
        RANGE_IDS[1],
        ANN_ID,
        CON_ID,
        TRANSIENT_ID,
    ];
    for id in tracked {
        fanout.subscribe(id);
    }
    for (t, w) in work.iter().enumerate() {
        if let Some((at, spawn)) = restart.as_mut() {
            if *at == t {
                let handle = spawn(&mut coord)
                    .unwrap_or_else(|e| panic!("{label}: worker restart failed: {e}"));
                extra_handles.push(handle);
            }
        }
        let merged = coord
            .process_cycle(&w.object_events, &w.query_events)
            .unwrap_or_else(|e| panic!("{label}: cycle {t} refused: {e}"));
        assert_eq!(
            merged, reference[t],
            "{label}: merged cycle {t} diverged from the single node"
        );
        fanout.publish(&merged);
        if t == extra_at {
            coord
                .install(extra)
                .unwrap_or_else(|e| panic!("{label}: out-of-band install refused: {e}"));
        }
    }
    assert_eq!(
        coord.epoch(),
        final_server.epoch(),
        "{label}: final epochs diverged"
    );
    // The fan-out's replicas — pure folds of the merged delta stream —
    // must reproduce the single node's live results exactly.
    for id in tracked {
        let (_, replayed) = fanout.resync(id).expect("subscribed");
        match final_server.result(id) {
            Some(want) => assert_eq!(
                replayed.as_slice(),
                want,
                "{label}: replicated result of {id} diverged"
            ),
            // Terminated queries keep their last replicated state; the
            // single node simply no longer tracks them.
            None => assert_eq!(id, TRANSIENT_ID, "{label}: {id} vanished from lane A"),
        }
    }
    coord
        .shutdown()
        .unwrap_or_else(|e| panic!("{label}: shutdown failed: {e}"));
    extra_handles
}

fn join_workers(handles: Vec<WorkerHandle>, label: &str) {
    for h in handles {
        h.join()
            .expect("worker thread must not panic")
            .unwrap_or_else(|e| panic!("{label}: worker exited with {e}"));
    }
}

/// Prove single-node equivalence over in-process clusters: for every
/// `seed` × `worker_counts` entry × index backend, the merged delta
/// stream, changed lists and replicated final results must be
/// bit-identical to lane A's, across a mid-run snapshot-transfer restart
/// of one worker. Objects are placed per `placement`;
/// [`Placement::Stacked`] makes distances tie exactly at the k-th rank, so
/// the restarted worker (rebuilt by from-scratch searches) must resolve
/// every tie the way the single node's incremental maintenance does.
/// `grid_dim` must be a power of two ≥ 8 (the quadtree lane needs one) and
/// worker counts must divide into at most 4 strips.
pub fn verify_cluster(
    placement: Placement,
    n_objects: u32,
    cycles: usize,
    grid_dim: u32,
    seeds: &[u64],
    worker_counts: &[u32],
) {
    assert!(cycles >= 5, "the harness protocol needs at least 5 cycles");
    let overlap = (grid_dim / 3).max(1);
    let extra_at = cycles / 2;
    for &seed in seeds {
        let installs = build_installs(seed);
        let extra = extra_install(seed);
        let work = build_workload(seed, n_objects, cycles, &installs, placement);
        for index in [IndexKind::Uniform, IndexKind::quadtree()] {
            let (final_server, reference) = reference_run(&work, extra_at, &extra, grid_dim, index);
            for &workers in worker_counts {
                let label = format!(
                    "seed {seed}/{workers} workers/{} index",
                    match index {
                        IndexKind::Uniform => "uniform",
                        IndexKind::Quadtree { .. } => "quadtree",
                    }
                );
                let config = ClusterConfig::new(grid_dim, workers)
                    .overlap(overlap)
                    .index(index);
                let (coord, handles) = ClusterCoordinator::spawn_in_process(config)
                    .unwrap_or_else(|e| panic!("{label}: spawn failed: {e}"));
                let restart_worker = (seed % u64::from(workers)) as usize;
                type Restart = Box<
                    dyn FnMut(
                        &mut ClusterCoordinator<ChannelTransport>,
                    ) -> Result<WorkerHandle, ClusterError>,
                >;
                let spawn: Restart = Box::new(move |c| c.restart_worker_in_process(restart_worker));
                let restart = Some((cycles / 2, spawn));
                let spawned = drive_cluster(
                    coord,
                    &work,
                    (extra_at, &extra),
                    &reference,
                    &final_server,
                    restart,
                    &label,
                );
                join_workers(handles, &label);
                join_workers(spawned, &label);
            }
        }
    }
}

/// Lane B, pipelined: drive the coordinator through
/// [`ClusterCoordinator::submit_cycle`] so routing for epoch *e+1*
/// overlaps the merge of epoch *e*, popping merged batches as the
/// pipeline yields them (lagged by one cycle) and flushing the tail at
/// the end. Every popped batch must equal the reference bit-for-bit in
/// order — the pipeline may only change *when* a batch surfaces, never
/// its bytes. Restart and the out-of-band install both drain the
/// pipeline internally, so their externally visible placement matches
/// the serial lane exactly.
#[allow(clippy::type_complexity)]
fn drive_cluster_pipelined<T: Transport>(
    mut coord: ClusterCoordinator<T>,
    work: &[CycleWork],
    extra: (usize, &[SpecEvent<AnyQuerySpec>]),
    reference: &[CycleDeltas],
    final_server: &CpmServer,
    mut restart: Option<(
        usize,
        Box<dyn FnMut(&mut ClusterCoordinator<T>) -> Result<WorkerHandle, ClusterError>>,
    )>,
    label: &str,
) -> Vec<WorkerHandle> {
    let (extra_at, extra) = extra;
    let mut extra_handles = Vec::new();
    let mut fanout = DeltaFanout::new();
    let tracked = [
        KNN_IDS[0],
        KNN_IDS[1],
        KNN_IDS[2],
        KNN_IDS[3],
        RANGE_IDS[0],
        RANGE_IDS[1],
        ANN_ID,
        CON_ID,
        TRANSIENT_ID,
    ];
    for id in tracked {
        fanout.subscribe(id);
    }
    let mut expect = 0usize;
    for (t, w) in work.iter().enumerate() {
        if let Some((at, spawn)) = restart.as_mut() {
            if *at == t {
                let handle = spawn(&mut coord)
                    .unwrap_or_else(|e| panic!("{label}: worker restart failed: {e}"));
                assert_eq!(
                    coord.in_flight(),
                    0,
                    "{label}: restart must drain the pipeline before snapshot transfer"
                );
                extra_handles.push(handle);
            }
        }
        let popped = coord
            .submit_cycle(&w.object_events, &w.query_events)
            .unwrap_or_else(|e| panic!("{label}: cycle {t} refused: {e}"));
        if let Some(merged) = popped {
            assert_eq!(
                merged, reference[expect],
                "{label}: pipelined merged cycle {expect} diverged from the single node"
            );
            fanout.publish(&merged);
            expect += 1;
        }
        assert!(
            coord.in_flight() <= 1,
            "{label}: pipeline depth exceeded one in-flight epoch"
        );
        if t == extra_at {
            coord
                .install(extra)
                .unwrap_or_else(|e| panic!("{label}: out-of-band install refused: {e}"));
        }
    }
    for merged in coord
        .flush()
        .unwrap_or_else(|e| panic!("{label}: final flush refused: {e}"))
    {
        assert_eq!(
            merged, reference[expect],
            "{label}: flushed merged cycle {expect} diverged from the single node"
        );
        fanout.publish(&merged);
        expect += 1;
    }
    assert_eq!(
        expect,
        work.len(),
        "{label}: the pipeline dropped merged cycles"
    );
    assert_eq!(
        coord.epoch(),
        final_server.epoch(),
        "{label}: final epochs diverged"
    );
    for id in tracked {
        let (_, replayed) = fanout.resync(id).expect("subscribed");
        match final_server.result(id) {
            Some(want) => assert_eq!(
                replayed.as_slice(),
                want,
                "{label}: replicated result of {id} diverged"
            ),
            None => assert_eq!(id, TRANSIENT_ID, "{label}: {id} vanished from lane A"),
        }
    }
    coord
        .shutdown()
        .unwrap_or_else(|e| panic!("{label}: shutdown failed: {e}"));
    extra_handles
}

/// [`verify_cluster`] with the coordinator in pipelined mode: same
/// seeds, worker counts, index backends and mid-run restart, but lane B
/// routes epoch *e+1* while *e* is still in flight. The acceptance bar
/// is unchanged — every merged batch and every replicated result must be
/// bit-identical to the single node, and the restart must drain the
/// pipeline before its snapshot transfer.
pub fn verify_cluster_pipelined(
    n_objects: u32,
    cycles: usize,
    grid_dim: u32,
    seeds: &[u64],
    worker_counts: &[u32],
) {
    assert!(cycles >= 5, "the harness protocol needs at least 5 cycles");
    let overlap = (grid_dim / 3).max(1);
    let extra_at = cycles / 2;
    for &seed in seeds {
        let installs = build_installs(seed);
        let extra = extra_install(seed);
        let work = build_workload(seed, n_objects, cycles, &installs, Placement::Uniform);
        for index in [IndexKind::Uniform, IndexKind::quadtree()] {
            let (final_server, reference) = reference_run(&work, extra_at, &extra, grid_dim, index);
            for &workers in worker_counts {
                let label = format!(
                    "pipelined seed {seed}/{workers} workers/{} index",
                    match index {
                        IndexKind::Uniform => "uniform",
                        IndexKind::Quadtree { .. } => "quadtree",
                    }
                );
                let config = ClusterConfig::new(grid_dim, workers)
                    .overlap(overlap)
                    .index(index)
                    .pipelined(true);
                let (coord, handles) = ClusterCoordinator::spawn_in_process(config)
                    .unwrap_or_else(|e| panic!("{label}: spawn failed: {e}"));
                let restart_worker = (seed % u64::from(workers)) as usize;
                type Restart = Box<
                    dyn FnMut(
                        &mut ClusterCoordinator<ChannelTransport>,
                    ) -> Result<WorkerHandle, ClusterError>,
                >;
                let spawn: Restart = Box::new(move |c| c.restart_worker_in_process(restart_worker));
                let restart = Some((cycles / 2, spawn));
                let spawned = drive_cluster_pipelined(
                    coord,
                    &work,
                    (extra_at, &extra),
                    &reference,
                    &final_server,
                    restart,
                    &label,
                );
                join_workers(handles, &label);
                join_workers(spawned, &label);
            }
        }
    }
}

/// The pipelined protocol over TCP loopback transports, including a
/// mid-run restart through
/// [`ClusterCoordinator::restart_worker_tcp_loopback`] — the restart
/// drains the pipeline, snapshots over TCP, and resumes pipelined
/// operation without losing a merged cycle.
pub fn verify_cluster_tcp_pipelined(
    n_objects: u32,
    cycles: usize,
    grid_dim: u32,
    seed: u64,
    workers: u32,
) {
    assert!(cycles >= 5, "the harness protocol needs at least 5 cycles");
    let installs = build_installs(seed);
    let extra = extra_install(seed);
    let extra_at = cycles / 2;
    let work = build_workload(seed, n_objects, cycles, &installs, Placement::Uniform);
    let (final_server, reference) =
        reference_run(&work, extra_at, &extra, grid_dim, IndexKind::Uniform);
    let label = format!("tcp pipelined seed {seed}/{workers} workers");
    let config = ClusterConfig::new(grid_dim, workers)
        .overlap((grid_dim / 3).max(1))
        .pipelined(true);
    let (coord, handles) = ClusterCoordinator::spawn_tcp_loopback(config)
        .unwrap_or_else(|e| panic!("{label}: spawn failed: {e}"));
    let restart_worker = (seed % u64::from(workers)) as usize;
    type Restart = Box<
        dyn FnMut(
            &mut ClusterCoordinator<cpm_cluster::TcpTransport>,
        ) -> Result<WorkerHandle, ClusterError>,
    >;
    let spawn: Restart = Box::new(move |c| c.restart_worker_tcp_loopback(restart_worker));
    let restart = Some((cycles / 2, spawn));
    let spawned = drive_cluster_pipelined(
        coord,
        &work,
        (extra_at, &extra),
        &reference,
        &final_server,
        restart,
        &label,
    );
    join_workers(handles, &label);
    join_workers(spawned, &label);
}

/// The same two-lane protocol over TCP loopback transports (uniform
/// index, no restart — the transport is what's under test here; restart
/// coverage lives in [`verify_cluster`]).
pub fn verify_cluster_tcp(n_objects: u32, cycles: usize, grid_dim: u32, seed: u64, workers: u32) {
    assert!(cycles >= 5, "the harness protocol needs at least 5 cycles");
    let installs = build_installs(seed);
    let extra = extra_install(seed);
    let extra_at = cycles / 2;
    let work = build_workload(seed, n_objects, cycles, &installs, Placement::Uniform);
    let (final_server, reference) =
        reference_run(&work, extra_at, &extra, grid_dim, IndexKind::Uniform);
    let label = format!("tcp seed {seed}/{workers} workers");
    let config = ClusterConfig::new(grid_dim, workers).overlap((grid_dim / 3).max(1));
    let (coord, handles) = ClusterCoordinator::spawn_tcp_loopback(config)
        .unwrap_or_else(|e| panic!("{label}: spawn failed: {e}"));
    let spawned = drive_cluster(
        coord,
        &work,
        (extra_at, &extra),
        &reference,
        &final_server,
        None,
        &label,
    );
    join_workers(handles, &label);
    join_workers(spawned, &label);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let installs = build_installs(5);
        let a = build_workload(5, 40, 8, &installs, Placement::Uniform);
        let b = build_workload(5, 40, 8, &installs, Placement::Uniform);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.object_events, y.object_events);
            assert_eq!(x.query_events.len(), y.query_events.len());
        }
        assert!(a[1].query_events.len() >= installs.len());
        assert!(a[0].query_events.is_empty());
    }

    #[test]
    fn smoke_one_seed_two_workers() {
        verify_cluster(Placement::Uniform, 80, 6, 16, &[3], &[2]);
    }

    #[test]
    fn smoke_pipelined_one_seed_two_workers() {
        verify_cluster_pipelined(80, 6, 16, &[3], &[2]);
    }
}
