//! `city_single`: the paper's Table 6.1 setting on the road-network
//! generator, served by one single-shard `CpmServer` with deltas on and
//! one subscriber replica per query.

use std::time::Instant;

use cpm_core::{
    AnyQuerySpec, CpmServer, CpmServerBuilder, CycleDeltas, DurableCpmServer, SpecEvent,
};
use cpm_gen::{NetworkWorkload, RoadNetwork, WorkloadConfig};
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::{apply_events, GridBuilder, IndexKind, ObjectEvent, QueryEvent};
use cpm_sub::CycleReceipt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    check_sample, deliver, fold_respawns, journal_record_bytes, kind_slot, mixed_spec,
    record_core_metrics, record_grid_stats, record_receipt, sample_queries, timed, Args, Run,
    Subscribers,
};
use crate::reference::{compare, Reference};
use crate::trace::{Tracer, NO_SPAN};

/// Grid resolution (the paper's default 128 × 128).
pub const DIM: u32 = 128;
/// Object population `N`.
pub const N_OBJECTS: usize = 100_000;
/// Continuous queries `n`.
pub const N_QUERIES: usize = 5_000;
/// Result size `k`.
pub const K: usize = 16;
/// Object agility `f_obj`.
pub const F_OBJ: f64 = 0.5;
/// Query agility `f_qry`.
pub const F_QRY: f64 = 0.3;
/// Street grid of the road network (`STREETS × STREETS` blocks).
pub const STREETS: u32 = 16;
/// Cycles per round; a run attempts whole rounds.
pub const ROUND: u64 = 10;
/// Untimed cycles between set-up and the first measured cycle.
pub const WARMUP: u64 = 2;
/// Queries of each kind checked against the reference per round.
pub const CHECK_PER_KIND: usize = 4;

/// The city: a perturbed street grid of the simulator's shape. It is
/// the same for every seed, as a real city would be; the seed drives
/// the traffic on it.
pub fn city_network() -> RoadNetwork {
    RoadNetwork::grid_city(
        STREETS,
        STREETS,
        0.25,
        0.15,
        (STREETS / 2) as usize,
        0x006E_6574_776F_726B,
    )
}

/// Generator ticks run before set-up. Every object starts a fresh trip
/// at an intersection; the measured cycles should see the stream's
/// steady mix of trips instead, and cycle cost climbs for about twenty
/// cycles before it settles.
pub const PREROLL: usize = 40;

/// A generator with the positions of its objects and queries.
pub type Stream = (
    NetworkWorkload,
    Vec<(ObjectId, Point)>,
    Vec<(QueryId, Point, usize)>,
);

/// The road-network stream of `seed` with `n_queries` queries, run
/// `PREROLL` ticks: the generator and the positions of every object and
/// query afterwards.
pub fn network_stream(seed: u64, n_queries: usize) -> Stream {
    let config = WorkloadConfig {
        n_objects: N_OBJECTS,
        n_queries,
        k: K,
        f_obj: F_OBJ,
        f_qry: F_QRY,
        seed,
        ..WorkloadConfig::default()
    };
    let mut gen = NetworkWorkload::new(city_network(), config);
    let mut objects: Vec<(ObjectId, Point)> = gen.initial_objects().collect();
    let mut queries: Vec<(QueryId, Point, usize)> = gen.initial_queries().collect();
    for _ in 0..PREROLL {
        let tick = gen.tick();
        for ev in tick.object_events {
            if let ObjectEvent::Move { id, to: p } | ObjectEvent::Appear { id, pos: p } = ev {
                objects[id.0 as usize].1 = p;
            }
        }
        for ev in tick.query_events {
            if let QueryEvent::Move { id, to } = ev {
                queries[id.0 as usize].1 = to;
            }
        }
    }
    (gen, objects, queries)
}

struct System {
    server: CpmServer,
    subs: Subscribers,
    deltas: CycleDeltas,
}

fn setup(
    tr: &mut Tracer,
    objects: &[(ObjectId, Point)],
    installs: &[SpecEvent<AnyQuerySpec>],
) -> Result<System, String> {
    let mut server = CpmServerBuilder::new(DIM).deltas(true).build();
    tr.span("core.populate", NO_SPAN, 0, || {
        server.populate(objects.iter().copied());
    });
    let mut subs = Subscribers::new();
    for ev in installs {
        subs.subscribe(ev.id());
    }
    let mut deltas = CycleDeltas::default();
    tr.span("core.install", NO_SPAN, 0, || {
        server.process_cycle_with_deltas_into(&[], installs, &mut deltas)
    })
    .map_err(|e| format!("install cycle refused: {e}"))?;
    subs.publish(&deltas);
    subs.apply();
    Ok(System {
        server,
        subs,
        deltas,
    })
}

/// One cycle: hand the batch to the server, then deliver the deltas.
/// Returns the timed window in ms, the encoded delta bytes and the
/// fan-out's receipt.
fn cycle(
    sys: &mut System,
    tr: &mut Tracer,
    objs: &[ObjectEvent],
    qevs: &[SpecEvent<AnyQuerySpec>],
) -> Result<(f64, usize, CycleReceipt), String> {
    let epoch = sys.server.epoch() + 1;
    let root = tr.begin("cycle", NO_SPAN, epoch);
    let t = Instant::now();
    let System {
        server,
        subs,
        deltas,
    } = sys;
    tr.span("core.cycle", root, epoch, || {
        server.process_cycle_with_deltas_into(objs, qevs, deltas)
    })
    .map_err(|e| format!("cycle {epoch} refused: {e}"))?;
    let (bytes, receipt) = deliver(tr, root, epoch, deltas, subs);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(root);
    Ok((ms, bytes, receipt))
}

/// Restart the server from a snapshot taken at a cycle boundary (empty
/// journal), timing `DurableCpmServer::recover`. The recovered server
/// must return the running one's results at the same epoch. The run
/// goes on with the running server: a freshly rebuilt one runs its
/// first dozen cycles measurably slower, which would tie the cycle
/// times to the restart schedule.
fn restart(
    sys: &System,
    tr: &mut Tracer,
    run: &mut Run,
    specs: &[(AnyQuerySpec, usize)],
) -> Result<(), String> {
    let epoch = sys.server.epoch();
    let frame = tr.span("snapshot.checkpoint", NO_SPAN, epoch, || {
        cpm_core::Snapshot::capture(&sys.server, 0).to_frame()
    });
    run.recoveries.attempted += 1;
    let t = Instant::now();
    let recovered = DurableCpmServer::recover(&frame, &[], 0);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (durable, report) = recovered
        .map_err(|e| format!("recovery at epoch {epoch} failed: {e}"))
        .inspect_err(|_| run.recoveries.failed += 1)?;
    run.restart_ms.push(ms);
    run.layer("snapshot.bytes", frame.len() as f64);
    run.layer("snapshot.replayed_cycles", report.replayed as f64);
    if tr.on() {
        let snap = tr.span("snapshot.decode", NO_SPAN, epoch, || {
            cpm_core::Snapshot::from_frame(&frame)
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
    let fresh = durable.into_inner();
    run.check(
        || format!("restart at epoch {epoch}: epoch"),
        if fresh.epoch() == epoch {
            Ok(())
        } else {
            Err(format!("recovered at epoch {}", fresh.epoch()))
        },
    );
    for (i, (spec, k)) in specs.iter().enumerate() {
        let id = QueryId(i as u32);
        run.judge(
            "recovered vs crashed",
            || format!("restart at epoch {epoch}: result of {id}"),
            fresh.result(id).unwrap_or_default(),
            sys.server.result(id).unwrap_or_default(),
            (spec, *k),
            None,
        );
    }
    Ok(())
}

/// Run the workload, recording into `run`.
pub fn run(args: &Args, tr: &mut Tracer, run: &mut Run) -> Result<(), String> {
    let ((mut gen, objects, queries), g) = timed(|| network_stream(args.seed, N_QUERIES));
    run.generator_s += g;
    run.notes.push(format!("generator set-up {g:.3} s"));
    let mut specs: Vec<(AnyQuerySpec, usize)> = queries
        .iter()
        .map(|&(id, p, k)| mixed_spec(id.0, p, k))
        .collect();
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
    reference.populate(objects.iter().copied());

    run.setups.attempted += 1;
    let (built, secs) = timed(|| setup(tr, &objects, &installs));
    let mut sys = built.inspect_err(|_| run.setups.failed += 1)?;
    run.setup_s.push(secs);
    // The grid layer's ingest, fed the same batches standalone.
    let mut shadow = tr.on().then(|| {
        let mut g = GridBuilder::new(DIM).index(IndexKind::Uniform).build();
        let appear: Vec<ObjectEvent> = objects
            .iter()
            .map(|&(id, pos)| ObjectEvent::Appear { id, pos })
            .collect();
        apply_events(&mut g, &appear, &mut Vec::new());
        g
    });
    let mut records = Vec::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC4EC_C5A3);
    let started = Instant::now();
    let mut idle = Tracer::new(false);
    let mut cycles_done = 0u64;
    let mut round = 0u64;
    loop {
        for _ in 0..ROUND {
            let (tick, g) = timed(|| gen.tick());
            run.generator_s += g;
            let mut objs = tick.object_events;
            let folded = fold_respawns(&mut objs);
            run.adapt("respawns folded into moves", folded);
            let qevs: Vec<SpecEvent<AnyQuerySpec>> = tick
                .query_events
                .iter()
                .map(|ev| match *ev {
                    QueryEvent::Move { id, to } => {
                        let (spec, k) = mixed_spec(id.0, to, K);
                        specs[id.0 as usize] = (spec.clone(), k);
                        SpecEvent::Update { id, spec }
                    }
                    _ => unreachable!("the network generator only moves queries"),
                })
                .collect();
            reference.apply(&objs);
            let measured = cycles_done >= WARMUP;
            let jbytes =
                journal_record_bytes(if measured { tr } else { &mut idle }, 0, &objs, &qevs);
            run.cycles.attempted += 1;
            let out = cycle(
                &mut sys,
                if measured { tr } else { &mut idle },
                &objs,
                &qevs,
            );
            let (ms, bytes, receipt) = out.inspect_err(|_| run.cycles.failed += 1)?;
            let metrics = sys.server.take_metrics();
            cycles_done += 1;
            if let Some(shadow) = shadow.as_mut() {
                let t_r = if measured { &mut *tr } else { &mut idle };
                t_r.span("grid.ingest", NO_SPAN, sys.server.epoch(), || {
                    apply_events(shadow, &objs, &mut records)
                });
            }
            if !measured {
                continue;
            }
            run.cycle_ms.push(ms);
            run.delta_bytes += bytes as u64;
            record_receipt(run, &receipt);
            run.object_events += objs.len() as u64;
            run.journal_bytes += jbytes as u64;
            record_core_metrics(run, &metrics);
            if tr.on() {
                record_grid_stats(run, sys.server.grid());
            }
        }
        round += 1;
        let ids = sample_queries(&kinds, CHECK_PER_KIND, |n| rng.gen_range(0..n));
        let server = &sys.server;
        check_sample(
            run,
            &reference,
            server.epoch(),
            &ids,
            |id| specs[id.0 as usize].clone(),
            |id| server.result(id).map(<[_]>::to_vec),
            &sys.subs,
        );
        restart(&sys, tr, run, &specs)?;
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
    // Lossless delivery: every replica equals its query's result.
    for id in sys.subs.ids() {
        run.check(
            || format!("end of run: replica of {id}"),
            compare(
                sys.subs.client(id),
                sys.server.result(id).unwrap_or_default(),
            ),
        );
    }
    run.notes.push(format!(
        "population {} objects, {} queries; {} rounds",
        reference.live(),
        sys.server.query_count(),
        round
    ));
    Ok(())
}
