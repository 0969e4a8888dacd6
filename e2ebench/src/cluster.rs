//! `depots_cluster`: the road-network object stream served by a 2-worker
//! in-process `ClusterCoordinator` in its default serial mode, with about
//! 1K stationary k-NN depots and circular geofences whose deltas reach
//! subscriber replicas through `DeltaFanout`.
//!
//! Queries stay stationary: the coordinator refuses a query that moves
//! out of its owning tile (`ClusterError::QueryOutOfTile`) and has no
//! query migration, so a moving-query stream would fail almost every
//! cycle once one query crossed a tile edge.

use std::time::Instant;

use cpm_cluster::{ChannelTransport, ClusterConfig, ClusterCoordinator, WorkerHandle};
use cpm_core::{
    AnyQuerySpec, CpmServer, CpmServerBuilder, CycleDeltas, PointQuery, RangeQuery, SpecEvent,
};
use cpm_gen::NetworkWorkload;
use cpm_geom::{clamp_coord, Point, QueryId};
use cpm_grid::{apply_events, GridBuilder, IndexKind, ObjectEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::city::{network_stream, DIM, K};
use crate::common::{
    check_sample, deliver, fold_respawns, journal_record_bytes, kind_slot, record_core_metrics,
    record_grid_stats, record_receipt, sample_queries, timed, Args, Run, Subscribers,
};
use crate::reference::Reference;
use crate::trace::{Tracer, NO_SPAN};

/// Coverage margin of each tile, in grid cells (0.125 of the
/// workspace). A depot's 16-NN radius reaches about 0.045 in the sparse
/// parts of the network and a worker refuses a query whose influence
/// region leaves its coverage, so the margin is sized well beyond it.
pub const OVERLAP: u32 = 16;
/// Worker count.
pub const WORKERS: u32 = 2;
/// Stationary k-NN depots.
pub const DEPOTS: u32 = 600;
/// Stationary circular geofences.
pub const GEOFENCES: u32 = 400;
/// Geofence radius.
pub const GEOFENCE_RADIUS: f64 = 0.01;
/// Largest offset of a depot or geofence from its street intersection.
pub const SITE_JITTER: f64 = 0.002;
/// Cycles per round; a run attempts whole rounds.
pub const ROUND: u64 = 20;
/// Rounds between worker restarts.
pub const RESTART_EVERY: u64 = 2;
/// Untimed cycles after set-up.
pub const WARMUP: u64 = 2;
/// Queries of each kind checked against the reference per round.
pub const CHECK_PER_KIND: usize = 4;

type Coordinator = ClusterCoordinator<ChannelTransport>;

struct System {
    coord: Coordinator,
    /// Join handle of each worker slot's current thread.
    workers: Vec<WorkerHandle>,
    subs: Subscribers,
}

fn join(handles: impl IntoIterator<Item = WorkerHandle>) -> Result<(), String> {
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("worker exited with {e}")),
            Err(_) => return Err("worker panicked".into()),
        }
    }
    Ok(())
}

impl System {
    fn shutdown(self) -> Result<(), String> {
        self.coord
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        join(self.workers)
    }
}

fn setup(
    tr: &mut Tracer,
    run: &mut Run,
    appears: &[ObjectEvent],
    installs: &[SpecEvent<AnyQuerySpec>],
) -> Result<System, String> {
    let (coord, workers) =
        Coordinator::spawn_in_process(ClusterConfig::new(DIM, WORKERS).overlap(OVERLAP))
            .map_err(|e| format!("cluster spawn failed: {e}"))?;
    run.threads_started += workers.len();
    let mut sys = System {
        coord,
        workers,
        subs: Subscribers::new(),
    };
    for ev in installs {
        sys.subs.subscribe(ev.id());
    }
    for (name, objs, qevs) in [
        ("core.populate", appears, &[][..]),
        ("core.install", &[][..], installs),
    ] {
        let merged = tr
            .span(name, NO_SPAN, 0, || sys.coord.process_cycle(objs, qevs))
            .map_err(|e| format!("set-up cycle refused: {e}"))?;
        sys.subs.publish(&merged);
        sys.subs.apply();
    }
    Ok(sys)
}

/// A single-node server fed the same stream: the base of the
/// cluster-overhead ratio and the reference for the merged stream.
struct SingleNode {
    server: CpmServer,
    out: CycleDeltas,
}

impl SingleNode {
    fn new(appears: &[ObjectEvent], installs: &[SpecEvent<AnyQuerySpec>]) -> Result<Self, String> {
        let mut node = SingleNode {
            server: CpmServerBuilder::new(DIM).deltas(true).build(),
            out: CycleDeltas::default(),
        };
        for (objs, qevs) in [(appears, &[][..]), (&[][..], installs)] {
            node.server
                .process_cycle_with_deltas_into(objs, qevs, &mut node.out)
                .map_err(|e| format!("single-node set-up refused: {e}"))?;
        }
        Ok(node)
    }
}

/// Where the depots and geofences stand: street intersections, offset
/// by up to `SITE_JITTER`.
fn sites(gen: &NetworkWorkload, rng: &mut StdRng) -> Vec<(AnyQuerySpec, usize)> {
    let net = gen.network();
    (0..DEPOTS + GEOFENCES)
        .map(|i| {
            let node = net.position(net.random_node(rng));
            let p = Point::new(
                clamp_coord(node.x + rng.gen_range(-SITE_JITTER..SITE_JITTER)),
                clamp_coord(node.y + rng.gen_range(-SITE_JITTER..SITE_JITTER)),
            );
            if i < DEPOTS {
                (AnyQuerySpec::Knn(PointQuery(p)), K)
            } else {
                (
                    AnyQuerySpec::Range(RangeQuery::circle(p, GEOFENCE_RADIUS)),
                    RangeQuery::UNBOUNDED_K,
                )
            }
        })
        .collect()
}

/// Run the workload, recording into `run`.
pub fn run(args: &Args, tr: &mut Tracer, run: &mut Run) -> Result<(), String> {
    // The workers compute while the main thread waits on them.
    run.busy_threads = WORKERS as usize;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xDE90_7500);
    let ((mut gen, appears, specs), g) = timed(|| {
        let (gen, objects, _) = network_stream(args.seed, 0);
        let appears: Vec<ObjectEvent> = objects
            .iter()
            .map(|&(id, pos)| ObjectEvent::Appear { id, pos })
            .collect();
        let specs = sites(&gen, &mut rng);
        (gen, appears, specs)
    });
    run.generator_s += g;
    run.notes.push(format!("generator set-up {g:.3} s"));
    let installs: Vec<SpecEvent<AnyQuerySpec>> = specs
        .iter()
        .enumerate()
        .map(|(i, (spec, k))| SpecEvent::Install {
            id: QueryId(i as u32),
            spec: spec.clone(),
            k: *k,
        })
        .collect();
    let kinds: Vec<(QueryId, usize)> = specs
        .iter()
        .enumerate()
        .map(|(i, (s, _))| (QueryId(i as u32), kind_slot(s)))
        .collect();
    let mut reference = Reference::default();
    reference.apply(&appears);

    run.setups.attempted += 1;
    let (built, secs) = timed(|| setup(tr, run, &appears, &installs));
    let mut sys = built.inspect_err(|_| run.setups.failed += 1)?;
    run.setup_s.push(secs);
    sys.coord.take_metrics();
    let partition = sys.coord.partition().clone();
    let mut single = if tr.on() {
        Some(SingleNode::new(&appears, &installs)?)
    } else {
        None
    };
    let mut shadow = tr.on().then(|| {
        let mut g = GridBuilder::new(DIM).index(IndexKind::Uniform).build();
        apply_events(&mut g, &appears, &mut Vec::new());
        g
    });
    let mut records = Vec::new();
    let started = Instant::now();
    let mut idle = Tracer::new(false);
    let mut cycles_done = 0u64;
    let mut round = 0u64;
    let mut slot = 0usize;
    loop {
        for _ in 0..ROUND {
            let (tick, g) = timed(|| gen.tick());
            run.generator_s += g;
            let mut objs = tick.object_events;
            run.adapt("respawns folded into moves", fold_respawns(&mut objs));
            if tr.on() {
                // Events delivered to workers per input event: a worker
                // receives an event when its coverage holds the object's
                // old or new position.
                let mut delivered = 0usize;
                for ev in &objs {
                    let (old, new) = match *ev {
                        ObjectEvent::Move { id, to } => (reference.position(id), Some(to)),
                        ObjectEvent::Appear { pos, .. } => (None, Some(pos)),
                        ObjectEvent::Disappear { id } => (reference.position(id), None),
                    };
                    delivered += (0..partition.workers())
                        .filter(|&w| {
                            old.is_some_and(|p| partition.covers(w, p))
                                || new.is_some_and(|p| partition.covers(w, p))
                        })
                        .count();
                }
                run.layer(
                    "cluster.replication",
                    delivered as f64 / objs.len().max(1) as f64,
                );
            }
            reference.apply(&objs);
            let measured = cycles_done >= WARMUP;
            let jbytes = journal_record_bytes(if measured { tr } else { &mut idle }, 0, &objs, &[]);
            run.cycles.attempted += 1;
            let t_r = if measured { &mut *tr } else { &mut idle };
            let epoch = sys.coord.epoch() + 1;
            let root = t_r.begin("cycle", NO_SPAN, epoch);
            let t = Instant::now();
            let merged = t_r
                .span("cluster.cycle", root, epoch, || {
                    sys.coord.process_cycle(&objs, &[])
                })
                .map_err(|e| format!("cycle {epoch} refused: {e}"))
                .inspect_err(|_| run.cycles.failed += 1)?;
            let (bytes, receipt) = deliver(t_r, root, epoch, &merged, &mut sys.subs);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            t_r.end(root);
            let stages = sys.coord.take_metrics();
            cycles_done += 1;
            if let Some(node) = single.as_mut() {
                let t_r = if measured { &mut *tr } else { &mut idle };
                t_r.span("core.cycle", NO_SPAN, epoch, || {
                    node.server
                        .process_cycle_with_deltas_into(&objs, &[], &mut node.out)
                })
                .map_err(|e| format!("single-node cycle {epoch} refused: {e}"))?;
                if merged == node.out {
                    run.check(String::new, Ok(()));
                } else {
                    // The streams diverged; every replica of the merged
                    // stream must still hold a valid result of the
                    // single node's.
                    for (i, (spec, k)) in specs.iter().enumerate() {
                        let id = QueryId(i as u32);
                        run.judge(
                            "merged stream vs single node",
                            || format!("cycle {epoch}: replica of {id} vs single node"),
                            sys.subs.client(id),
                            node.server.result(id).unwrap_or_default(),
                            (spec, *k),
                            None,
                        );
                    }
                }
                let work = node.server.take_metrics();
                if let Some(shadow) = shadow.as_mut() {
                    t_r.span("grid.ingest", NO_SPAN, epoch, || {
                        apply_events(shadow, &objs, &mut records)
                    });
                }
                if measured {
                    run.layer("cluster.single_node_cycle_ms", tr.last_ms("core.cycle"));
                    run.layer("cluster.route_ms", stages.route.as_secs_f64() * 1e3);
                    run.layer(
                        "cluster.worker_wait_ms",
                        stages.worker_wait.as_secs_f64() * 1e3,
                    );
                    run.layer("cluster.merge_ms", stages.merge.as_secs_f64() * 1e3);
                    record_core_metrics(run, &work);
                    record_grid_stats(run, node.server.grid());
                }
            }
            if !measured {
                continue;
            }
            run.cycle_ms.push(ms);
            run.object_events += objs.len() as u64;
            run.delta_bytes += bytes as u64;
            run.journal_bytes += jbytes as u64;
            record_receipt(run, &receipt);
        }
        round += 1;
        let ids = sample_queries(&kinds, CHECK_PER_KIND, |n| rng.gen_range(0..n));
        let node = single.as_ref();
        check_sample(
            run,
            &reference,
            sys.coord.epoch(),
            &ids,
            |id| specs[id.0 as usize].clone(),
            |id| node.and_then(|n| n.server.result(id)).map(<[_]>::to_vec),
            &sys.subs,
        );
        if round.is_multiple_of(RESTART_EVERY) {
            // Hot-swap one worker through a snapshot transfer.
            slot = (slot + 1) % sys.workers.len();
            run.recoveries.attempted += 1;
            let t = Instant::now();
            let fresh = sys.coord.restart_worker_in_process(slot);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let fresh = fresh
                .map_err(|e| format!("worker {slot} restart failed: {e}"))
                .inspect_err(|_| run.recoveries.failed += 1)?;
            run.threads_started += 1;
            run.restart_ms.push(ms);
            join([std::mem::replace(&mut sys.workers[slot], fresh)])?;
        }
        // One more identical set-up each round, beside the running
        // system: spread over the run, the set-ups see the host as the
        // cycles do.
        run.setups.attempted += 1;
        let (built, secs) = timed(|| setup(tr, run, &appears, &installs));
        let built = built.inspect_err(|_| run.setups.failed += 1)?;
        run.setup_s.push(secs);
        built.shutdown()?;
        let enough = run.cycle_ms.len() >= crate::MIN_CYCLES
            && run.restart_ms.len() >= 2
            && run.setup_s.len() >= crate::MIN_SETUPS;
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Every replica equals its query's exact result at the end.
    for (i, (spec, k)) in specs.iter().enumerate() {
        let id = QueryId(i as u32);
        let want = reference.result(spec, *k);
        run.judge(
            "replica vs reference",
            || format!("end of run: replica of {id}"),
            sys.subs.client(id),
            &want,
            (spec, *k),
            Some(&reference),
        );
        if let Some(node) = single.as_ref() {
            run.judge(
                "merged stream vs single node",
                || format!("end of run: replica of {id} vs single node"),
                sys.subs.client(id),
                node.server.result(id).unwrap_or_default(),
                (spec, *k),
                None,
            );
        }
    }
    run.notes.push(format!(
        "population {} objects, {} queries; {} rounds; at most {} busy worker threads: the main thread waits while they compute, and the running cluster's workers wait while a set-up's compute",
        reference.live(),
        specs.len(),
        round,
        WORKERS
    ));
    sys.shutdown()?;
    Ok(())
}
