//! `hotspot_durable`: the drifting-hotspot stream, whose population
//! swings between 10K and 100K around a moving centre, served by a
//! `DurableCpmServer` on the quadtree index with automatic re-gridding.
//! Every cycle is journaled, a checkpoint is taken every
//! `CHECKPOINT_EVERY` cycles, queries move, some are terminated while
//! fresh ones are installed, and each round crashes and recovers once.

use std::collections::BTreeMap;
use std::time::Instant;

use cpm_core::{
    AnyQuerySpec, CpmServer, CpmServerBuilder, CycleDeltas, DurableCpmServer, RegridPolicy,
    SpecEvent,
};
use cpm_gen::{DriftConfig, DriftingHotspotWorkload, WorkloadConfig};
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{
    apply_events, DynIndex, Grid, GridBuilder, IndexKind, Metrics, ObjectEvent, QueryEvent,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    check_sample, deliver, journal_record_bytes, kind_slot, mixed_spec, record_core_metrics,
    record_grid_stats, record_receipt, sample_queries, timed, Args, Run, Subscribers,
};
use crate::reference::{compare, Reference};
use crate::trace::{Tracer, NO_SPAN};

/// Base population; the stream breathes up to `PEAK_FACTOR` times it.
pub const BASE_OBJECTS: usize = 10_000;
/// Peak population as a multiple of the base.
pub const PEAK_FACTOR: f64 = 10.0;
/// Cycles of one base-to-peak ramp; a round is one full period.
pub const RAMP_TICKS: usize = 15;
/// Standard deviation of object positions around the centre.
pub const SIGMA: f64 = 0.04;
/// How far the centre moves per cycle.
pub const CENTER_SPEED: f64 = 0.01;
/// Query slots.
pub const N_QUERIES: usize = 500;
/// Result size `k`.
pub const K: usize = 16;
/// Object agility.
pub const F_OBJ: f64 = 0.5;
/// Query agility.
pub const F_QRY: f64 = 0.3;
/// Query slots whose query is terminated and replaced by a fresh one
/// each cycle.
pub const REPLACED_PER_CYCLE: usize = 5;
/// Initial grid resolution (the re-grid policy moves it).
pub const DIM: u32 = 64;
/// Cycles between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 10;
/// Cycles per round: one population period.
pub const ROUND: u64 = 2 * RAMP_TICKS as u64;
/// The cycle of each round after which the server crashes: on the
/// descending ramp at 40K objects, six journaled cycles after a
/// checkpoint. The same point of every round, so that every restart
/// replays the same kind of work.
pub const CRASH_AFTER: u64 = 25;
/// Untimed cycles after set-up.
pub const WARMUP: u64 = 2;
/// Queries of each kind checked against the reference per round.
pub const CHECK_PER_KIND: usize = 4;

fn build_server(objects: &[(ObjectId, Point)], tr: &mut Tracer) -> CpmServer {
    let mut server = CpmServerBuilder::new(DIM)
        .index(IndexKind::quadtree())
        .regrid(RegridPolicy::auto())
        .deltas(true)
        .build();
    tr.span("core.populate", NO_SPAN, 0, || {
        server.populate(objects.iter().copied());
    });
    server
}

struct System {
    durable: DurableCpmServer,
    subs: Subscribers,
    deltas: CycleDeltas,
    /// Work counters at the end of the previous cycle.
    seen: Metrics,
}

fn setup(
    tr: &mut Tracer,
    objects: &[(ObjectId, Point)],
    installs: &[SpecEvent<AnyQuerySpec>],
) -> Result<System, String> {
    let server = build_server(objects, tr);
    let mut durable = DurableCpmServer::new(server, 0);
    let mut subs = Subscribers::new();
    for ev in installs {
        subs.subscribe(ev.id());
    }
    let mut deltas = CycleDeltas::default();
    tr.span("core.install", NO_SPAN, 0, || {
        durable.process_cycle_with_deltas_into(&[], installs, &mut deltas)
    })
    .map_err(|e| format!("install cycle refused: {e}"))?;
    subs.publish(&deltas);
    subs.apply();
    let seen = durable.server().metrics();
    Ok(System {
        durable,
        subs,
        deltas,
        seen,
    })
}

/// `cur - prev`, counter by counter.
fn since(cur: &Metrics, prev: &Metrics) -> Metrics {
    let mut m = *cur;
    m.cell_accesses -= prev.cell_accesses;
    m.objects_processed -= prev.objects_processed;
    m.computations -= prev.computations;
    m.recomputations -= prev.recomputations;
    m.merge_resolutions -= prev.merge_resolutions;
    m.regrids -= prev.regrids;
    m.regrid_objects_migrated -= prev.regrid_objects_migrated;
    for (k, p) in m.by_kind.iter_mut().zip(&prev.by_kind) {
        k.cell_accesses -= p.cell_accesses;
        k.objects_processed -= p.objects_processed;
        k.computations -= p.computations;
        k.recomputations -= p.recomputations;
        k.merge_resolutions -= p.merge_resolutions;
    }
    m
}

/// A standalone grid of the server's index kind and dimension holding
/// the reference's objects.
fn shadow_grid(dim: u32, reference: &Reference) -> Grid<DynIndex> {
    let mut g = GridBuilder::new(dim).index(IndexKind::quadtree()).build();
    let appear: Vec<ObjectEvent> = reference
        .objects()
        .map(|(id, pos)| ObjectEvent::Appear { id, pos })
        .collect();
    apply_events(&mut g, &appear, &mut Vec::new());
    g
}

/// Crash after the current cycle and recover from the last checkpoint's
/// snapshot plus the journal written since, timing
/// `DurableCpmServer::recover`. The recovered server must return the
/// crashed one's results at the same epoch.
fn crash_and_recover(
    sys: &mut System,
    tr: &mut Tracer,
    run: &mut Run,
    live: &BTreeMap<QueryId, (AnyQuerySpec, usize)>,
) -> Result<(), String> {
    let epoch = sys.durable.server().epoch();
    let snapshot = sys.durable.snapshot_bytes().to_vec();
    let journal = sys.durable.journal_bytes().to_vec();
    run.recoveries.attempted += 1;
    let t = Instant::now();
    let recovered = DurableCpmServer::recover(&snapshot, &journal, 0);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (fresh, report) = recovered
        .map_err(|e| format!("recovery at epoch {epoch} failed: {e}"))
        .inspect_err(|_| run.recoveries.failed += 1)?;
    run.restart_ms.push(ms);
    run.layer("snapshot.bytes", snapshot.len() as f64);
    run.layer("snapshot.replayed_cycles", report.replayed as f64);
    if tr.on() {
        let snap = tr.span("snapshot.decode", NO_SPAN, epoch, || {
            cpm_core::Snapshot::from_frame(&snapshot)
        });
        let decode_ms = tr.last_ms("snapshot.decode");
        if let Ok(snap) = snap {
            let _ = tr.span("snapshot.restore", NO_SPAN, epoch, || {
                CpmServer::restore(&snap)
            });
        }
        let restore_ms = tr.last_ms("snapshot.restore");
        run.layer("snapshot.replay_ms", (ms - decode_ms - restore_ms).max(0.0));
    }
    run.check(
        || format!("recovery at epoch {epoch}: epoch"),
        if report.epoch == epoch {
            Ok(())
        } else {
            Err(format!("recovered at epoch {}", report.epoch))
        },
    );
    for (id, (spec, k)) in live {
        run.judge(
            "recovered vs crashed",
            || format!("recovery at epoch {epoch}: result of {id}"),
            fresh.server().result(*id).unwrap_or_default(),
            sys.durable.server().result(*id).unwrap_or_default(),
            (spec, *k),
            None,
        );
    }
    sys.seen = fresh.server().metrics();
    sys.durable = fresh;
    Ok(())
}

/// Run the workload, recording into `run`.
pub fn run(args: &Args, tr: &mut Tracer, run: &mut Run) -> Result<(), String> {
    let config = WorkloadConfig {
        n_objects: BASE_OBJECTS,
        n_queries: N_QUERIES,
        k: K,
        f_obj: F_OBJ,
        f_qry: F_QRY,
        seed: args.seed,
        ..WorkloadConfig::default()
    };
    let drift = DriftConfig {
        sigma: SIGMA,
        center_speed: CENTER_SPEED,
        peak_factor: PEAK_FACTOR,
        ramp_ticks: RAMP_TICKS,
    };
    let ((mut gen, objects, queries), g) = timed(|| {
        let gen = DriftingHotspotWorkload::new(config, drift);
        let objects: Vec<(ObjectId, Point)> = gen.initial_objects().collect();
        let queries: Vec<(QueryId, Point, usize)> = gen.initial_queries().collect();
        (gen, objects, queries)
    });
    run.generator_s += g;
    run.notes.push(format!("generator set-up {g:.3} s"));
    // Slot `i` holds one live query at a time; a replacement installs a
    // fresh id in the slot.
    let mut slot_pos: Vec<Point> = queries.iter().map(|&(_, p, _)| p).collect();
    let mut slot_id: Vec<QueryId> = queries.iter().map(|&(id, _, _)| id).collect();
    let mut live: BTreeMap<QueryId, (AnyQuerySpec, usize)> = queries
        .iter()
        .map(|&(id, p, k)| (id, mixed_spec(id.0, p, k)))
        .collect();
    let installs: Vec<SpecEvent<AnyQuerySpec>> = live
        .iter()
        .map(|(id, (spec, k))| SpecEvent::Install {
            id: *id,
            spec: spec.clone(),
            k: *k,
        })
        .collect();
    let mut next_id = N_QUERIES as u32;
    let mut reference = Reference::default();
    reference.populate(objects.iter().copied());

    run.setups.attempted += 1;
    let (built, secs) = timed(|| setup(tr, &objects, &installs));
    let mut sys = built.inspect_err(|_| run.setups.failed += 1)?;
    run.setup_s.push(secs);
    let mut shadow = tr
        .on()
        .then(|| shadow_grid(sys.durable.server().grid().dim(), &reference));
    let mut records = Vec::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xD0AB_1E00);
    let started = Instant::now();
    let mut idle = Tracer::new(false);
    let mut cycles_done = 0u64;
    let mut round = 0u64;
    loop {
        for in_round in 0..ROUND {
            let (tick, g) = timed(|| gen.tick());
            run.generator_s += g;
            let objs = tick.object_events;
            let mut moved: BTreeMap<usize, Point> = BTreeMap::new();
            for ev in &tick.query_events {
                match *ev {
                    QueryEvent::Move { id, to } => {
                        moved.insert(id.0 as usize, to);
                    }
                    _ => unreachable!("the drift generator only moves queries"),
                }
            }
            let mut replaced: Vec<usize> = Vec::new();
            while replaced.len() < REPLACED_PER_CYCLE {
                let s = rng.gen_range(0..N_QUERIES);
                if !replaced.contains(&s) {
                    replaced.push(s);
                }
            }
            let mut qevs: Vec<SpecEvent<AnyQuerySpec>> = Vec::new();
            let mut retired: Vec<QueryId> = Vec::new();
            for (&s, &to) in &moved {
                slot_pos[s] = to;
                if !replaced.contains(&s) {
                    let (spec, k) = mixed_spec(s as u32, to, K);
                    live.insert(slot_id[s], (spec.clone(), k));
                    qevs.push(SpecEvent::Update {
                        id: slot_id[s],
                        spec,
                    });
                }
            }
            for &s in &replaced {
                let old = slot_id[s];
                live.remove(&old);
                retired.push(old);
                qevs.push(SpecEvent::Terminate { id: old });
                let id = QueryId(next_id);
                next_id += 1;
                slot_id[s] = id;
                let (spec, k) = mixed_spec(s as u32, slot_pos[s], K);
                live.insert(id, (spec.clone(), k));
                qevs.push(SpecEvent::Install { id, spec, k });
                sys.subs.subscribe(id);
            }
            run.adapt("queries terminated and replaced", replaced.len() as u64);
            reference.apply(&objs);
            let measured = cycles_done >= WARMUP;
            let t_r = if measured { &mut *tr } else { &mut idle };
            let epoch = sys.durable.server().epoch() + 1;
            let checkpoint = epoch % CHECKPOINT_EVERY == 0;
            run.cycles.attempted += 1;
            let root = t_r.begin("cycle", NO_SPAN, epoch);
            let t = Instant::now();
            let before = sys.durable.journal_bytes().len();
            let System {
                durable,
                subs,
                deltas,
                ..
            } = &mut sys;
            t_r.span("core.cycle", root, epoch, || {
                durable.process_cycle_with_deltas_into(&objs, &qevs, deltas)
            })
            .map_err(|e| format!("cycle {epoch} refused: {e}"))
            .inspect_err(|_| run.cycles.failed += 1)?;
            let jbytes = durable.journal_bytes().len() - before;
            if checkpoint {
                t_r.span("snapshot.checkpoint", root, epoch, || durable.checkpoint());
            }
            let (bytes, receipt) = deliver(t_r, root, epoch, deltas, subs);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            t_r.end(root);
            for id in retired {
                sys.subs.unsubscribe(id);
            }
            let now = sys.durable.server().metrics();
            let work = since(&now, &sys.seen);
            sys.seen = now;
            if let Some(grid) = shadow.as_mut() {
                let dim = sys.durable.server().grid().dim();
                if grid.dim() != dim {
                    *grid = shadow_grid(dim, &reference);
                } else {
                    let t_r = if measured { &mut *tr } else { &mut idle };
                    t_r.span("grid.ingest", NO_SPAN, epoch, || {
                        apply_events(grid, &objs, &mut records)
                    });
                }
            }
            cycles_done += 1;
            if measured {
                run.cycle_ms.push(ms);
                run.object_events += objs.len() as u64;
                run.delta_bytes += bytes as u64;
                run.journal_bytes += jbytes as u64;
                record_receipt(run, &receipt);
                record_core_metrics(run, &work);
                if tr.on() {
                    journal_record_bytes(tr, epoch, &objs, &qevs);
                    record_grid_stats(run, sys.durable.server().grid());
                }
            }
            if in_round + 1 == CRASH_AFTER {
                crash_and_recover(&mut sys, tr, run, &live)?;
            }
        }
        round += 1;
        let kinds: Vec<(QueryId, usize)> = live
            .iter()
            .map(|(id, (spec, _))| (*id, kind_slot(spec)))
            .collect();
        let ids = sample_queries(&kinds, CHECK_PER_KIND, |n| rng.gen_range(0..n));
        let server = sys.durable.server();
        check_sample(
            run,
            &reference,
            server.epoch(),
            &ids,
            |id| live[&id].clone(),
            |id| server.result(id).map(<[_]>::to_vec),
            &sys.subs,
        );
        // One more identical set-up each round, beside the running
        // system: spread over the run, the set-ups see the host as the
        // cycles do.
        run.setups.attempted += 1;
        let (built, secs) = timed(|| setup(tr, &objects, &installs));
        let built = built.inspect_err(|_| run.setups.failed += 1)?;
        run.setup_s.push(secs);
        drop(built);
        let enough = run.cycle_ms.len() >= crate::MIN_CYCLES
            && run.restart_ms.len() >= 2
            && run.setup_s.len() >= crate::MIN_SETUPS;
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    for id in sys.subs.ids() {
        run.check(
            || format!("end of run: replica of {id}"),
            compare(
                sys.subs.client(id),
                sys.durable.server().result(id).unwrap_or_default(),
            ),
        );
    }
    run.notes.push(format!(
        "population {} objects at the end ({}-{} over each round), {} live queries, grid {}x{}; {} rounds",
        reference.live(),
        BASE_OBJECTS,
        (BASE_OBJECTS as f64 * PEAK_FACTOR) as usize,
        live.len(),
        sys.durable.server().grid().dim(),
        sys.durable.server().grid().dim(),
        round
    ));
    Ok(())
}
