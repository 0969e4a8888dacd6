//! Every query kind runs on the one CPM engine, so the degenerate
//! instances of the Section 5 extensions must collapse onto the plain
//! k-NN query — and all of them must agree with a brute-force oracle:
//!
//! * a constrained query whose region is the whole workspace reports the
//!   plain k-NN result, at the same search cost;
//! * a single-point aggregate query reports the plain k-NN result for
//!   every aggregate function;
//! * the two `CpmConfig` ablations change the work done, never the result.

use cpm_suite::core::ann::{AggregateFn, AnnQuery};
use cpm_suite::core::constrained::ConstrainedQuery;
use cpm_suite::core::{AnyQuerySpec, CpmConfig, PointQuery, ShardedCpmEngine};
use cpm_suite::geom::{ObjectId, Point, QueryId, Rect};
use cpm_suite::grid::QueryKind;
use cpm_suite::sim::{knn_spec_events, SimParams, SimulationInput, WorkloadKind};

fn params(seed: u64) -> SimParams {
    SimParams {
        n_objects: 500,
        n_queries: 0, // queries installed manually below
        k: 5,
        timestamps: 15,
        grid_dim: 32,
        seed,
        workload: WorkloadKind::Network { grid_streets: 10 },
        ..SimParams::default()
    }
}

fn query_points(seed: u64) -> Vec<Point> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..8).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

/// Brute-force k-NN distances from `q` over every live object.
fn oracle(objects: impl Iterator<Item = (ObjectId, Point)>, q: Point, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = objects.map(|(_, p)| q.dist(p)).collect();
    d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    d.truncate(k);
    d
}

/// One engine hosting every query kind side by side.
type MixedEngine = ShardedCpmEngine<AnyQuerySpec>;

fn dists(engine: &MixedEngine, id: QueryId) -> Vec<f64> {
    engine.result(id).unwrap().iter().map(|n| n.dist).collect()
}

fn ids(engine: &MixedEngine, id: QueryId) -> Vec<ObjectId> {
    engine.result(id).unwrap().iter().map(|n| n.id).collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert!((g - w).abs() < 1e-12, "{what}: {got:?} vs {want:?}");
    }
}

#[test]
fn workspace_constrained_equals_plain_knn() {
    let input = SimulationInput::generate(&params(42));
    let points = query_points(7);
    let n = points.len() as u32;

    // Plain k-NN queries on ids 0..n, their workspace-constrained twins on
    // n..2n, all on one grid.
    let mut engine = MixedEngine::new(input.params.grid_dim, 1);
    engine.populate(input.initial_objects.iter().copied());
    for (i, &p) in points.iter().enumerate() {
        let i = i as u32;
        engine
            .install(QueryId(i), AnyQuerySpec::Knn(PointQuery(p)), 5)
            .unwrap();
        let constrained = ConstrainedQuery::new(p, Rect::WORKSPACE);
        engine
            .install(QueryId(n + i), AnyQuerySpec::Constrained(constrained), 5)
            .unwrap();
    }

    for tick in &input.ticks {
        engine.process_cycle(&tick.object_events, &[]);
        for (i, &p) in points.iter().enumerate() {
            let i = i as u32;
            let truth = oracle(engine.grid().iter_objects(), p, 5);
            assert_close(&dists(&engine, QueryId(i)), &truth, &format!("knn q{i}"));
            assert_close(
                &dists(&engine, QueryId(n + i)),
                &truth,
                &format!("constrained q{i}"),
            );
        }
        engine.check_invariants();
    }

    // An all-admitting region searches exactly like the plain query: the
    // per-kind counters of the two query sets agree.
    let m = engine.metrics();
    let (plain, constrained) = (
        m.for_kind(QueryKind::Knn),
        m.for_kind(QueryKind::Constrained),
    );
    assert_eq!(plain.computations, constrained.computations);
    assert_eq!(plain.recomputations, constrained.recomputations);
    assert_eq!(plain.merge_resolutions, constrained.merge_resolutions);
    assert_eq!(plain.cell_accesses, constrained.cell_accesses);
}

#[test]
fn singleton_aggregate_equals_plain_knn() {
    let input = SimulationInput::generate(&params(43));
    let points = query_points(11);
    let n = points.len() as u32;
    let fns = [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max];

    // Plain k-NN queries on ids 0..n; for aggregate function `j`, the
    // singleton ANN twins on (j + 1)·n..(j + 2)·n.
    let mut engine = MixedEngine::new(input.params.grid_dim, 1);
    engine.populate(input.initial_objects.iter().copied());
    for (i, &p) in points.iter().enumerate() {
        let i = i as u32;
        engine
            .install(QueryId(i), AnyQuerySpec::Knn(PointQuery(p)), 4)
            .unwrap();
        for (j, &f) in fns.iter().enumerate() {
            let id = QueryId((j as u32 + 1) * n + i);
            let singleton = AnnQuery::new(vec![p], f);
            engine.install(id, AnyQuerySpec::Ann(singleton), 4).unwrap();
        }
    }

    for tick in &input.ticks {
        engine.process_cycle(&tick.object_events, &[]);
        for (i, &p) in points.iter().enumerate() {
            let i = i as u32;
            let truth = oracle(engine.grid().iter_objects(), p, 4);
            assert_close(&dists(&engine, QueryId(i)), &truth, &format!("knn q{i}"));
            for (j, f) in fns.iter().enumerate() {
                let id = QueryId((j as u32 + 1) * n + i);
                assert_close(&dists(&engine, id), &truth, &format!("{f:?} q{i}"));
                assert_eq!(ids(&engine, id), ids(&engine, QueryId(i)), "{f:?} q{i}");
            }
        }
    }
}

#[test]
fn ablated_configs_agree_with_the_oracle() {
    let mut p = params(44);
    p.n_queries = 30;
    let input = SimulationInput::generate(&p);
    let ablations = [
        CpmConfig {
            merge_optimization: false,
            reuse_visit_list: true,
        },
        CpmConfig {
            merge_optimization: true,
            reuse_visit_list: false,
        },
        CpmConfig {
            merge_optimization: false,
            reuse_visit_list: false,
        },
    ];
    let build = |config: CpmConfig| {
        let mut e: ShardedCpmEngine<PointQuery> = ShardedCpmEngine::new(p.grid_dim, 1);
        e.set_config(config);
        e.populate(input.initial_objects.iter().copied());
        for &(qid, pos, k) in &input.initial_queries {
            e.install(qid, PointQuery(pos), k).unwrap();
        }
        e
    };
    let mut full = build(CpmConfig::default());
    let mut lanes: Vec<ShardedCpmEngine<PointQuery>> = ablations.map(build).into();

    for (t, tick) in input.ticks.iter().enumerate() {
        let query_events = knn_spec_events(&tick.query_events);
        let changed = full.process_cycle(&tick.object_events, &query_events);
        for (lane, config) in lanes.iter_mut().zip(&ablations) {
            let lane_changed = lane.process_cycle(&tick.object_events, &query_events);
            assert_eq!(lane_changed, changed, "{config:?} at t={t}");
            lane.check_invariants();
            for qid in full.query_ids() {
                let st = full.query_state(qid).unwrap();
                let truth = oracle(full.grid().iter_objects(), st.spec.0, st.k());
                let got: Vec<f64> = lane.result(qid).unwrap().iter().map(|n| n.dist).collect();
                assert_close(&got, &truth, &format!("{config:?} {qid} at t={t}"));
            }
        }
    }
    // The ablations only ever trade merges for searches.
    let base = full.metrics();
    for (lane, config) in lanes.iter().zip(&ablations) {
        let m = lane.metrics();
        assert_eq!(m.updates_applied, base.updates_applied, "{config:?}");
        assert!(m.cell_accesses >= base.cell_accesses, "{config:?}");
        if !config.merge_optimization {
            assert_eq!(m.merge_resolutions, 0, "{config:?}");
        }
    }
}
