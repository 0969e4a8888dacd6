//! Deterministic crash-recovery chaos harness for the durable server.
//!
//! [`verify_recovery`] replays one seeded mixed-kind workload into two
//! lanes per shard count:
//!
//! * **lane A** never crashes: a [`DurableCpmServer`] processes every
//!   cycle, recording the per-cycle [`CycleDeltas`] (changed lists plus
//!   delta streams) and, after each cycle, the snapshot/journal bytes
//!   that would be on stable storage at that instant;
//! * **lane B** crashes at the cycle a seeded [`FaultPlan`] picks, its
//!   surviving artifacts are damaged per the plan's corruption class
//!   (torn tail, duplicated/reordered frames, flipped bits in journal or
//!   snapshot), and the server is recovered from what's left.
//!
//! The harness then redelivers the cycles the recovered epoch says are
//! missing — the at-least-once window the write-after-commit journal
//! design leaves to the upstream — and asserts every redelivered cycle's
//! output is **bit-identical** to lane A's recording, then that the final
//! results, reverse-NN sets and epoch agree exactly. Corrupted artifacts
//! must fail with *typed* errors, never panics.

use cpm_core::{
    AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmServerBuilder, CycleDeltas,
    DurableCpmServer, PointQuery, RangeQuery, RecoveryError, SpecEvent,
};
use cpm_gen::{Corruption, FaultPlan};
use cpm_geom::{ObjectId, Point, QueryId, Rect};
use cpm_grid::ObjectEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Placement;

/// Ids of the persistent queries the workload tracks (mixed kinds).
const KNN_IDS: [QueryId; 2] = [QueryId(0), QueryId(1)];
const RANGE_IDS: [QueryId; 2] = [QueryId(10), QueryId(11)];
const ANN_ID: QueryId = QueryId(20);
const CON_ID: QueryId = QueryId(30);
const RNN_ID: QueryId = QueryId(40);
const TRANSIENT_ID: QueryId = QueryId(5);

/// One cycle's precomputed input: the event batches plus an optional
/// direct reverse-NN move issued immediately before the cycle.
#[derive(Debug, Clone)]
struct CycleWork {
    object_events: Vec<ObjectEvent>,
    query_events: Vec<SpecEvent<AnyQuerySpec>>,
    rnn_move: Option<Point>,
}

/// Build the whole run's workload up front, as plain data, so both lanes
/// (and any redelivery) apply byte-for-byte identical inputs.
fn build_workload(
    seed: u64,
    n_objects: u32,
    cycles: usize,
    placement: Placement,
) -> Vec<CycleWork> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut live: Vec<u32> = (0..n_objects).collect();
    let mut next_oid = n_objects;
    let install_at = cycles / 3;
    let terminate_at = (2 * cycles) / 3;
    let use_transient = install_at < terminate_at;

    (0..cycles)
        .map(|cycle| {
            let mut object_events = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(1..12) {
                match rng.gen_range(0..10) {
                    0 if live.len() > 8 => {
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

            let mut query_events: Vec<SpecEvent<AnyQuerySpec>> = Vec::new();
            if rng.gen_bool(0.4) {
                let qi = rng.gen_range(0..KNN_IDS.len());
                query_events.push(SpecEvent::Update {
                    id: KNN_IDS[qi],
                    spec: AnyQuerySpec::Knn(PointQuery(Point::new(rng.gen(), rng.gen()))),
                });
            }
            if rng.gen_bool(0.3) {
                let qi = rng.gen_range(0..RANGE_IDS.len());
                query_events.push(SpecEvent::Update {
                    id: RANGE_IDS[qi],
                    spec: AnyQuerySpec::Range(RangeQuery::circle(
                        Point::new(rng.gen(), rng.gen()),
                        0.1 + rng.gen::<f64>() * 0.2,
                    )),
                });
            }
            if use_transient && cycle == install_at {
                query_events.push(SpecEvent::Install {
                    id: TRANSIENT_ID,
                    spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.15, 0.85))),
                    k: 2,
                });
            }
            if use_transient && cycle == terminate_at {
                query_events.push(SpecEvent::Terminate { id: TRANSIENT_ID });
            }
            let rnn_move = rng.gen_bool(0.25).then(|| Point::new(rng.gen(), rng.gen()));

            CycleWork {
                object_events,
                query_events,
                rnn_move,
            }
        })
        .collect()
}

/// Build, populate and register the durable server both lanes start from.
fn fresh_durable(
    seed: u64,
    n_objects: u32,
    grid_dim: u32,
    shards: usize,
    placement: Placement,
) -> DurableCpmServer {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000B_1EC7);
    let mut server = CpmServerBuilder::new(grid_dim)
        .shards(shards)
        .deltas(true)
        .build();
    server.populate((0..n_objects).map(|i| (ObjectId(i), placement.draw(&mut rng))));
    let mut durable = DurableCpmServer::new(server, 3);
    let _ = durable
        .install_knn(KNN_IDS[0], Point::new(0.3, 0.4), 3)
        .expect("fresh id");
    let _ = durable
        .install_knn(KNN_IDS[1], Point::new(0.7, 0.6), 4)
        .expect("fresh id");
    let _ = durable
        .install_range(
            RANGE_IDS[0],
            RangeQuery::rect(Rect::new(Point::new(0.2, 0.1), Point::new(0.6, 0.5))),
        )
        .expect("fresh id");
    let _ = durable
        .install_range(RANGE_IDS[1], RangeQuery::circle(Point::new(0.6, 0.7), 0.22))
        .expect("fresh id");
    let _ = durable
        .install_ann(
            ANN_ID,
            AnnQuery::new(
                vec![
                    Point::new(0.25, 0.75),
                    Point::new(0.8, 0.3),
                    Point::new(0.5, 0.5),
                ],
                AggregateFn::Sum,
            ),
            2,
        )
        .expect("fresh id");
    let _ = durable
        .install_constrained(
            CON_ID,
            ConstrainedQuery::new(
                Point::new(0.45, 0.55),
                Rect::new(Point::new(0.3, 0.3), Point::new(0.9, 0.9)),
            ),
            3,
        )
        .expect("fresh id");
    let _ = durable
        .install_rnn(RNN_ID, Point::new(0.55, 0.45))
        .expect("fresh id");
    // Fold the registrations into the baseline snapshot so every journal
    // byte thereafter is cycle-or-move traffic — the redelivery protocol
    // below only knows how to re-send cycles.
    durable.checkpoint();
    durable
}

/// Apply cycle `t` of the workload: the optional direct reverse-NN move,
/// then the event batch. Returns the cycle's delta batch.
fn apply_cycle(durable: &mut DurableCpmServer, work: &CycleWork) -> CycleDeltas {
    if let Some(pos) = work.rnn_move {
        let h = durable.server().rnn_handle(RNN_ID).expect("installed");
        let _ = durable.update_rnn(h, pos).expect("valid move");
    }
    let mut out = CycleDeltas::default();
    durable
        .process_cycle_with_deltas_into(&work.object_events, &work.query_events, &mut out)
        .expect("validated workload");
    out
}

/// Split a byte stream of checksummed frames into whole frames (layout:
/// 12-byte header with the payload length at offset 8, then the payload,
/// then the CRC). Only used to *damage* journals, so it trusts lengths.
fn split_frames(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at + 16 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        let end = at + 12 + len + 4;
        if end > bytes.len() {
            break;
        }
        frames.push(bytes[at..end].to_vec());
        at = end;
    }
    frames
}

/// Damage `journal`/`snapshot` per the plan. Returns the corrupted pair
/// plus whether the snapshot is expected to be undecodable.
fn corrupt(plan: &FaultPlan, snapshot: &[u8], journal: &[u8]) -> (Vec<u8>, Vec<u8>, bool) {
    let mut rng = StdRng::seed_from_u64(plan.site_seed);
    let mut snap = snapshot.to_vec();
    let mut jour = journal.to_vec();
    let mut snap_broken = false;
    match plan.corruption {
        Corruption::None => {}
        Corruption::TruncateTail => {
            if !jour.is_empty() {
                let cut = rng.gen_range(1..=jour.len());
                jour.truncate(jour.len() - cut);
            }
        }
        Corruption::DuplicateFrame => {
            let frames = split_frames(&jour);
            if !frames.is_empty() {
                let dup = frames[rng.gen_range(0..frames.len())].clone();
                jour.extend_from_slice(&dup);
            }
        }
        Corruption::ReorderFrames => {
            let mut frames = split_frames(&jour);
            if frames.len() >= 2 {
                let at = rng.gen_range(0..frames.len() - 1);
                frames.swap(at, at + 1);
                jour = frames.concat();
            }
        }
        Corruption::BitFlipJournal => {
            if !jour.is_empty() {
                let at = rng.gen_range(0..jour.len());
                jour[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        Corruption::BitFlipSnapshot => {
            let at = rng.gen_range(0..snap.len());
            snap[at] ^= 1 << rng.gen_range(0..8u32);
            snap_broken = true;
        }
    }
    (snap, jour, snap_broken)
}

/// Chaos-test crash recovery: for every `seed` × entry of
/// `shard_counts`, run the two-lane protocol described in the
/// [module docs](self) over `cycles` cycles of a mixed-kind workload on
/// `n_objects` objects placed per `placement`. Panics on any divergence;
/// corrupted artifacts must surface as typed errors only.
///
/// [`Placement::Stacked`] makes distances tie exactly at the k-th rank, so
/// the recovered server (rebuilt by from-scratch searches) must resolve
/// every tie the way the crashed server's incremental maintenance did.
pub fn verify_recovery(
    placement: Placement,
    n_objects: u32,
    cycles: usize,
    grid_dim: u32,
    seeds: &[u64],
    shard_counts: &[usize],
) {
    for &seed in seeds {
        let work = build_workload(seed, n_objects, cycles, placement);
        let plan = FaultPlan::from_seed(seed, cycles as u32);
        for &shards in shard_counts {
            // Lane A: the uninterrupted reference run.
            let mut lane_a = fresh_durable(seed, n_objects, grid_dim, shards, placement);
            let mut outputs: Vec<CycleDeltas> = Vec::with_capacity(cycles);
            let mut artifacts: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(cycles);
            for w in &work {
                outputs.push(apply_cycle(&mut lane_a, w));
                artifacts.push((
                    lane_a.snapshot_bytes().to_vec(),
                    lane_a.journal_bytes().to_vec(),
                ));
            }

            // Lane B: crash after `plan.crash_cycle`, damage the
            // artifacts, recover from what survives.
            let crash = plan.crash_cycle as usize;
            let (snapshot, journal) = &artifacts[crash];
            let (bad_snap, bad_jour, snap_broken) = corrupt(&plan, snapshot, journal);

            let recovered = DurableCpmServer::recover(&bad_snap, &bad_jour, 3);
            let (mut lane_b, report) = if snap_broken {
                match recovered {
                    Err(RecoveryError::Wire(_)) => {}
                    other => panic!(
                        "seed {seed}/{shards} shards: flipped snapshot bit must fail \
                         with a typed wire error, got {other:?}"
                    ),
                }
                // The operator falls back to the intact snapshot copy
                // (the harness models mirrored snapshot storage).
                DurableCpmServer::recover(snapshot, &bad_jour, 3).expect("intact snapshot recovers")
            } else {
                recovered
                    .unwrap_or_else(|e| panic!("seed {seed}/{shards} shards: recovery failed: {e}"))
            };
            let resumed = report.epoch as usize;
            assert!(
                resumed <= crash + 1,
                "seed {seed}/{shards} shards: recovered epoch {resumed} is beyond \
                 the crash point {crash}"
            );
            if matches!(
                plan.corruption,
                Corruption::None | Corruption::DuplicateFrame | Corruption::ReorderFrames
            ) {
                assert_eq!(
                    resumed,
                    crash + 1,
                    "seed {seed}/{shards} shards: a lossless journal must recover \
                     to the crash point exactly"
                );
                assert!(report.tail_error.is_none());
            }
            lane_b.server().check_invariants();

            // Redeliver the missing cycles (at-least-once upstream) and
            // demand bit-identical outputs, including every delta.
            for (t, w) in work.iter().enumerate().skip(resumed) {
                let out = apply_cycle(&mut lane_b, w);
                assert_eq!(
                    out, outputs[t],
                    "seed {seed}/{shards} shards: redelivered cycle {t} diverged"
                );
            }

            // Final states agree bit-for-bit on everything observable.
            assert_eq!(lane_b.server().epoch(), lane_a.server().epoch());
            let mut tracked = vec![
                KNN_IDS[0],
                KNN_IDS[1],
                RANGE_IDS[0],
                RANGE_IDS[1],
                ANN_ID,
                CON_ID,
            ];
            if lane_a.server().kind_of(TRANSIENT_ID).is_some() {
                tracked.push(TRANSIENT_ID);
            }
            for &id in &tracked {
                assert_eq!(
                    lane_b.server().result(id).expect("tracked"),
                    lane_a.server().result(id).expect("tracked"),
                    "seed {seed}/{shards} shards: final result of {id} diverged"
                );
            }
            assert_eq!(
                lane_b.server().rnn_result(RNN_ID).expect("tracked"),
                lane_a.server().rnn_result(RNN_ID).expect("tracked"),
                "seed {seed}/{shards} shards: final reverse-NN set diverged"
            );
            lane_b.server().check_invariants();

            // A crash immediately after recovery must recover again: the
            // rebuilt journal carries the redelivered records.
            let (again, _) =
                DurableCpmServer::recover(lane_b.snapshot_bytes(), lane_b.journal_bytes(), 3)
                    .expect("post-recovery artifacts recover");
            assert_eq!(again.server().epoch(), lane_b.server().epoch());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = build_workload(7, 40, 10, Placement::Uniform);
        let b = build_workload(7, 40, 10, Placement::Uniform);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.object_events, y.object_events);
            assert_eq!(x.rnn_move, y.rnn_move);
        }
    }

    #[test]
    fn frame_splitting_reassembles_exactly() {
        let mut durable = fresh_durable(3, 30, 16, 1, Placement::Uniform);
        // 7 cycles: not a multiple of the checkpoint interval (3), so
        // the run ends with journal traffic past the last checkpoint.
        let work = build_workload(3, 30, 7, Placement::Uniform);
        for w in &work {
            let _ = apply_cycle(&mut durable, w);
        }
        let journal = durable.journal_bytes();
        let frames = split_frames(journal);
        assert!(!frames.is_empty());
        assert_eq!(frames.concat(), journal);
    }

    #[test]
    fn smoke_one_seed() {
        verify_recovery(Placement::Uniform, 60, 8, 16, &[11], &[2]);
    }
}
