//! The brute-force reference: a full scan over the benchmark's own table
//! of object positions, with ties broken by `(dist, id)`.
//!
//! It shares no code with the program beyond the query geometry's plain
//! data (points, rectangles, radii): distances, region membership and
//! aggregation are computed here, by the definitions of the paper
//! (Sections 3 and 5), so a fault in the program's kernels or
//! bookkeeping cannot hide in the check.

use cpm_core::ann::AggregateFn;
use cpm_core::range::Region;
use cpm_core::{AnyQuerySpec, Neighbor};
use cpm_geom::{ObjectId, Point, Rect};
use cpm_grid::ObjectEvent;

/// Every live object's position, indexed by object id.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    pos: Vec<Option<Point>>,
}

fn euclid(a: Point, b: Point) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    (dx * dx + dy * dy).sqrt()
}

fn in_rect(r: &Rect, p: Point) -> bool {
    p.x >= r.lo.x && p.x <= r.hi.x && p.y >= r.lo.y && p.y <= r.hi.y
}

/// The score `spec` gives an object at `p`; `None` when the object
/// cannot qualify.
fn score(spec: &AnyQuerySpec, p: Point) -> Option<f64> {
    match spec {
        AnyQuerySpec::Knn(q) => Some(euclid(q.0, p)),
        AnyQuerySpec::Range(q) => match q.region {
            Region::Rect(r) => in_rect(&r, p).then(|| {
                let c = Point::new((r.lo.x + r.hi.x) / 2.0, (r.lo.y + r.hi.y) / 2.0);
                euclid(c, p)
            }),
            Region::Circle { center, radius } => {
                let dx = center.x - p.x;
                let dy = center.y - p.y;
                (dx * dx + dy * dy <= radius * radius).then(|| euclid(center, p))
            }
        },
        AnyQuerySpec::Ann(q) => {
            let dists = q.points().iter().map(|&c| euclid(c, p));
            Some(match q.aggregate() {
                AggregateFn::Sum => dists.sum(),
                AggregateFn::Min => dists.fold(f64::INFINITY, f64::min),
                AggregateFn::Max => dists.fold(0.0, f64::max),
            })
        }
        AnyQuerySpec::Constrained(q) => in_rect(&q.region, p).then(|| euclid(q.q, p)),
        AnyQuerySpec::Rnn(_) => unreachable!("the benchmark installs no reverse-NN query"),
    }
}

impl Reference {
    /// Record the initial population.
    pub fn populate(&mut self, objects: impl IntoIterator<Item = (ObjectId, Point)>) {
        for (id, p) in objects {
            self.set(id, Some(p));
        }
    }

    fn set(&mut self, id: ObjectId, p: Option<Point>) {
        let i = id.0 as usize;
        if i >= self.pos.len() {
            self.pos.resize(i + 1, None);
        }
        self.pos[i] = p;
    }

    /// Apply one cycle's object events.
    pub fn apply(&mut self, events: &[ObjectEvent]) {
        for ev in events {
            match *ev {
                ObjectEvent::Appear { id, pos } => self.set(id, Some(pos)),
                ObjectEvent::Move { id, to } => self.set(id, Some(to)),
                ObjectEvent::Disappear { id } => self.set(id, None),
            }
        }
    }

    /// Object `id`'s position, if live.
    pub fn position(&self, id: ObjectId) -> Option<Point> {
        self.pos.get(id.0 as usize).copied().flatten()
    }

    /// Every live object and its position, ascending by id.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.pos
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (ObjectId(i as u32), p)))
    }

    /// Live objects.
    pub fn live(&self) -> usize {
        self.pos.iter().filter(|p| p.is_some()).count()
    }

    /// The exact result of `spec` with result size `k`: the `k` best
    /// qualifying objects, ascending by `(dist, id)`.
    pub fn result(&self, spec: &AnyQuerySpec, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = self
            .pos
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let p = (*p)?;
                score(spec, p).map(|dist| Neighbor {
                    id: ObjectId(i as u32),
                    dist,
                })
            })
            .collect();
        let by_rank = |a: &Neighbor, b: &Neighbor| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id));
        if all.len() > k {
            all.select_nth_unstable_by(k - 1, by_rank);
            all.truncate(k);
        }
        all.sort_unstable_by(by_rank);
        all
    }
}

/// Compare a result the program produced with the expected one: same
/// objects, same order, same distance bits.
pub fn compare(got: &[Neighbor], want: &[Neighbor]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} entries, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.id != w.id || g.dist.to_bits() != w.dist.to_bits() {
            return Err(format!(
                "rank {i}: got ({}, {}), expected ({}, {})",
                g.id, g.dist, w.id, w.dist
            ));
        }
    }
    Ok(())
}

/// How a result differs from the expected one.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Bit-identical.
    Equal,
    /// A full result (`k` entries) with the same distance bits at every
    /// rank, differing only in which of several objects lying at exactly
    /// the k-th distance it keeps: a valid k-NN answer that does not
    /// follow the `(dist, id)` tie-break.
    BoundaryTie,
    /// Anything else: a wrong answer.
    Wrong(String),
}

/// Classify `got` against `want` for a query of result size `k`.
pub fn classify(got: &[Neighbor], want: &[Neighbor], k: usize) -> Verdict {
    let Err(e) = compare(got, want) else {
        return Verdict::Equal;
    };
    let full = want.len() == k && got.len() == k;
    let same_dists = got
        .iter()
        .zip(want)
        .all(|(g, w)| g.dist.to_bits() == w.dist.to_bits());
    if !(full && same_dists) {
        return Verdict::Wrong(e);
    }
    let boundary = want[k - 1].dist.to_bits();
    let inner_equal = got
        .iter()
        .zip(want)
        .filter(|(_, w)| w.dist.to_bits() != boundary)
        .all(|(g, w)| g.id == w.id);
    if inner_equal {
        Verdict::BoundaryTie
    } else {
        Verdict::Wrong(e)
    }
}

impl Reference {
    /// Check that every entry of `got` is a live object whose score under
    /// `spec` has exactly the reported distance bits.
    pub fn verify_entries(&self, spec: &AnyQuerySpec, got: &[Neighbor]) -> Result<(), String> {
        for n in got {
            let p = self.position(n.id).ok_or(format!("{} is not live", n.id))?;
            match score(spec, p) {
                Some(d) if d.to_bits() == n.dist.to_bits() => {}
                other => {
                    return Err(format!(
                        "{} reported at {}, lies at {other:?}",
                        n.id, n.dist
                    ))
                }
            }
        }
        Ok(())
    }
}

/// Show that the check can fail: a reference result must pass and each
/// deliberately corrupted copy of it must be refused.
pub fn self_test() -> Result<(), String> {
    use cpm_core::{AnnQuery, ConstrainedQuery, PointQuery, RangeQuery};
    let mut r = Reference::default();
    r.populate((0..200u32).map(|i| {
        let t = f64::from(i);
        (
            ObjectId(i),
            Point::new((t * 0.618_034) % 1.0, (t * 0.414_214) % 1.0),
        )
    }));
    let q = Point::new(0.4, 0.6);
    let specs = [
        (AnyQuerySpec::Knn(PointQuery(q)), 8),
        (AnyQuerySpec::Range(RangeQuery::circle(q, 0.2)), usize::MAX),
        (
            AnyQuerySpec::Ann(AnnQuery::new(
                vec![q, Point::new(0.5, 0.5)],
                AggregateFn::Sum,
            )),
            8,
        ),
        (
            AnyQuerySpec::Constrained(ConstrainedQuery::northeast_of(q)),
            8,
        ),
    ];
    for (spec, k) in &specs {
        let want = r.result(spec, *k);
        if want.len() < 2 {
            return Err("self-test query selects fewer than two objects".into());
        }
        compare(&want, &want)?;
        let mut swapped = want.clone();
        swapped.swap(0, 1);
        let mut moved = want.clone();
        moved[0].dist = f64::from_bits(moved[0].dist.to_bits() + 1);
        let mut dropped = want.clone();
        dropped.pop();
        for bad in [swapped, moved, dropped] {
            if compare(&bad, &want).is_ok()
                || !matches!(classify(&bad, &want, *k), Verdict::Wrong(_))
            {
                return Err(format!("a corrupted {spec:?} result passed the check"));
            }
        }
        // A boundary entry swapped for an object that does not lie at the
        // k-th distance looks like a tie by distances alone; the entry
        // check must refuse it.
        if want.len() == *k {
            let mut bogus = want.clone();
            let far = (0..200u32)
                .map(ObjectId)
                .find(|id| !want.iter().any(|n| n.id == *id))
                .expect("more objects than k");
            bogus[*k - 1].id = far;
            if classify(&bogus, &want, *k) != Verdict::BoundaryTie
                || r.verify_entries(spec, &bogus).is_ok()
            {
                return Err(format!(
                    "a fabricated tie in a {spec:?} result passed the check"
                ));
            }
        }
    }
    // The reference itself must follow the moves it is fed.
    let before = r.result(&specs[0].0, 1);
    r.apply(&[ObjectEvent::Move {
        id: ObjectId(199),
        to: q,
    }]);
    let after = r.result(&specs[0].0, 1);
    if before == after || after[0].id != ObjectId(199) {
        return Err("the reference ignored an object move".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn corrupted_results_fail_the_check() {
        super::self_test().unwrap();
    }
}
