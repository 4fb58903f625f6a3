//! Agglomerative clustering by mutual-nearest-neighbour merging.
//!
//! The paper cites agglomerative clustering (Tan–Steinbach–Kumar) as an
//! amorphous-data-parallel workload. The speculative formulation here:
//! one task per live cluster; a task finds its nearest neighbour among
//! a candidate list (initialized from the k-NN graph of the input
//! points) and merges when the nearest-neighbour relation is *mutual*
//! and the distance is below a threshold. Merging clusters is exactly
//! the cavity-style morphing the paper models: the two clusters die, a
//! combined cluster is born, and neighbouring clusters' tasks are
//! re-spawned because their nearest neighbour may have changed.
//!
//! **Substitution note (DESIGN.md):** production agglomerative
//! clustering uses a kd-tree for exact global nearest neighbours;
//! here candidates are restricted to the k-NN graph of the initial
//! points, which preserves the conflict structure (local, shrinking
//! parallelism) while keeping the substrate small. On well-separated
//! data the result is identical (tests cover this).

use crate::geometry::Point;
use optpar_runtime::{Abort, LockSpace, Operator, SpecStore, TaskCtx};
use rand::Rng;

/// A live or dead cluster.
#[derive(Clone, Debug, Default)]
pub struct Cluster {
    /// Dead clusters were absorbed by a merge.
    pub alive: bool,
    /// Sum of member x coordinates (centroid = sum / count).
    pub sum_x: f64,
    /// Sum of member y coordinates.
    pub sum_y: f64,
    /// Member point indices.
    pub members: Vec<u32>,
    /// Candidate neighbour cluster ids (may be stale; resolved through
    /// the forwarding table).
    pub cands: Vec<u32>,
}

impl Cluster {
    /// The cluster's centroid.
    pub fn centroid(&self) -> Point {
        let n = self.members.len().max(1) as f64;
        Point::new(self.sum_x / n, self.sum_y / n)
    }
}

/// The speculative clustering operator.
pub struct ClusteringOp {
    /// The input points (immutable).
    pub points: Vec<Point>,
    /// Cluster state, one slot per initial point.
    pub clusters: SpecStore<Cluster>,
    /// Union-find-style forwarding: dead cluster → the cluster that
    /// absorbed it.
    pub fwd: SpecStore<u32>,
    /// Merge only pairs closer than this.
    pub threshold: f64,
}

impl ClusteringOp {
    /// Build from points with a `k`-NN candidate graph.
    pub fn new(points: Vec<Point>, k: usize, threshold: f64) -> (LockSpace, ClusteringOp) {
        let n = points.len();
        let mut b = LockSpace::builder();
        let r_clus = b.region(n);
        let r_fwd = b.region(n);
        let space = b.build();

        // Brute-force k-NN (O(n²); inputs are experiment-sized).
        let mut clusters = Vec::with_capacity(n);
        for i in 0..n {
            let mut dists: Vec<(f64, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (points[i].dist2(points[j]), j as u32))
                .collect();
            dists.sort_by(|a, b| a.0.total_cmp(&b.0));
            clusters.push(Cluster {
                alive: true,
                sum_x: points[i].x,
                sum_y: points[i].y,
                members: vec![i as u32],
                cands: dists.iter().take(k).map(|&(_, j)| j).collect(),
            });
        }
        let clusters = SpecStore::new(r_clus, clusters, n);
        let fwd = SpecStore::new(r_fwd, (0..n as u32).collect(), n);
        (
            space,
            ClusteringOp {
                points,
                clusters,
                fwd,
                threshold,
            },
        )
    }

    /// One task per initial cluster.
    pub fn initial_tasks(&self) -> Vec<u32> {
        (0..self.clusters.len() as u32).collect()
    }

    /// Resolve a possibly-stale cluster id to its live representative.
    fn resolve(&self, cx: &mut TaskCtx<'_>, mut id: u32) -> Result<u32, Abort> {
        loop {
            cx.lock(&self.fwd, id as usize)?;
            let next = *cx.read(&self.fwd, id as usize)?;
            if next == id {
                return Ok(id);
            }
            id = next;
        }
    }

    /// Nearest live candidate of cluster `c` (requires `c` locked):
    /// `(candidate, squared distance)`.
    fn nearest(&self, cx: &mut TaskCtx<'_>, c: u32) -> Result<Option<(u32, f64)>, Abort> {
        let my_centroid = cx.read(&self.clusters, c as usize)?.centroid();
        let cands = cx.read(&self.clusters, c as usize)?.cands.clone();
        let mut best: Option<(u32, f64)> = None;
        for cand in cands {
            let live = self.resolve(cx, cand)?;
            if live == c {
                continue; // absorbed into us
            }
            cx.lock(&self.clusters, live as usize)?;
            let cl = cx.read(&self.clusters, live as usize)?;
            debug_assert!(cl.alive, "forwarding must end at a live cluster");
            let d = my_centroid.dist2(cl.centroid());
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((live, d));
            }
        }
        Ok(best)
    }

    /// Final clustering (quiesced): member lists of live clusters.
    pub fn final_clusters(&mut self) -> Vec<Vec<u32>> {
        let n = self.clusters.len();
        (0..n)
            .filter_map(|i| {
                let c = self.clusters.get_mut(i);
                if c.alive {
                    let mut m = c.members.clone();
                    m.sort_unstable();
                    Some(m)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Partition check: every point in exactly one live cluster, and
    /// centroids consistent with members.
    pub fn validate(&mut self) -> Result<(), String> {
        let n = self.clusters.len();
        let points = self.points.clone();
        let mut seen = vec![false; n];
        for i in 0..n {
            let c = self.clusters.get_mut(i);
            if !c.alive {
                continue;
            }
            let mut sx = 0.0;
            let mut sy = 0.0;
            for &m in &c.members {
                if seen[m as usize] {
                    return Err(format!("point {m} in two clusters"));
                }
                seen[m as usize] = true;
                sx += points[m as usize].x;
                sy += points[m as usize].y;
            }
            if (sx - c.sum_x).abs() > 1e-6 || (sy - c.sum_y).abs() > 1e-6 {
                return Err(format!("cluster {i} has inconsistent centroid sums"));
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("a point is in no live cluster".into());
        }
        Ok(())
    }
}

impl Operator for ClusteringOp {
    type Task = u32;

    fn execute(&self, &c0: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        // The task may reference an absorbed cluster; resolve first.
        let c = self.resolve(cx, c0)?;
        cx.lock(&self.clusters, c as usize)?;
        if !cx.read(&self.clusters, c as usize)?.alive {
            return Ok(vec![]);
        }
        let Some((nn, d)) = self.nearest(cx, c)? else {
            return Ok(vec![]); // isolated cluster: done
        };
        if d.sqrt() > self.threshold {
            return Ok(vec![]); // nothing close enough: done
        }
        // Mutuality: is c the nearest neighbour of nn?
        let Some((nn_of_nn, _)) = self.nearest(cx, nn)? else {
            return Ok(vec![]);
        };
        if nn_of_nn != c {
            // Not mutual; nn's own task will handle the pair when it
            // becomes mutual. No spawn needed: any change to the
            // neighbourhood re-spawns us (see merge below).
            return Ok(vec![]);
        }
        // Merge nn into c.
        let (lm, lsx, lsy, lcands) = {
            let l = cx.write(&self.clusters, nn as usize)?;
            l.alive = false;
            (
                std::mem::take(&mut l.members),
                l.sum_x,
                l.sum_y,
                std::mem::take(&mut l.cands),
            )
        };
        *cx.write(&self.fwd, nn as usize)? = c;
        let mut spawn = Vec::new();
        {
            let wc = cx.write(&self.clusters, c as usize)?;
            wc.members.extend(lm);
            wc.sum_x += lsx;
            wc.sum_y += lsy;
            wc.cands.extend(lcands);
            wc.cands.retain(|&x| x != c && x != nn);
            wc.cands.sort_unstable();
            wc.cands.dedup();
            // Re-examine the merged cluster and everyone whose nearest
            // neighbour may have been c or nn.
            spawn.push(c);
            spawn.extend(wc.cands.iter().copied());
        }
        Ok(spawn)
    }
}

/// Generate `k` Gaussian-ish blobs of `per` points each, centres on a
/// coarse grid with separation `sep`, intra-blob spread `spread`.
pub fn blobs<R: Rng + ?Sized>(
    k: usize,
    per: usize,
    sep: f64,
    spread: f64,
    rng: &mut R,
) -> Vec<Point> {
    let side = (k as f64).sqrt().ceil() as usize;
    let mut pts = Vec::with_capacity(k * per);
    for b in 0..k {
        let cx = (b % side) as f64 * sep;
        let cy = (b / side) as f64 * sep;
        for _ in 0..per {
            // Uniform disc offsets are enough for separation tests.
            let dx = (rng.random::<f64>() - 0.5) * 2.0 * spread;
            let dy = (rng.random::<f64>() - 0.5) * 2.0 * spread;
            pts.push(Point::new(cx + dx, cy + dy));
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_clustering(
        points: Vec<Point>,
        k: usize,
        threshold: f64,
        workers: usize,
        m: usize,
        seed: u64,
    ) -> ClusteringOp {
        let (space, op) = ClusteringOp::new(points, k, threshold);
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers,
                ..ExecutorConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WorkSet::from_vec(op.initial_tasks());
        let mut rounds = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m, &mut rng);
            rounds += 1;
            assert!(rounds < 1_000_000, "clustering did not terminate");
        }
        op
    }

    #[test]
    fn blobs_generator_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = blobs(4, 10, 100.0, 1.0, &mut rng);
        assert_eq!(pts.len(), 40);
    }

    #[test]
    fn well_separated_blobs_resolve_to_k_clusters() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = blobs(4, 12, 1000.0, 1.0, &mut rng);
        let mut op = run_clustering(pts, 8, 10.0, 4, 12, 3);
        op.validate().unwrap();
        let fin = op.final_clusters();
        assert_eq!(fin.len(), 4, "clusters: {:?}", fin.len());
        for c in &fin {
            assert_eq!(c.len(), 12);
            // Members are contiguous blocks (blob layout).
            let base = c[0] / 12;
            assert!(c.iter().all(|&m| m / 12 == base));
        }
    }

    #[test]
    fn sequential_worker_agrees_on_blob_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = blobs(3, 10, 500.0, 1.0, &mut rng);
        let mut op = run_clustering(pts, 6, 8.0, 1, 6, 5);
        op.validate().unwrap();
        assert_eq!(op.final_clusters().len(), 3);
    }

    #[test]
    fn zero_threshold_merges_nothing() {
        let mut rng = StdRng::seed_from_u64(6);
        let pts = blobs(2, 8, 100.0, 1.0, &mut rng);
        let n = pts.len();
        let mut op = run_clustering(pts, 4, 0.0, 4, 8, 7);
        op.validate().unwrap();
        assert_eq!(op.final_clusters().len(), n);
    }

    #[test]
    fn two_points_merge() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let mut op = run_clustering(pts, 1, 2.0, 2, 2, 8);
        op.validate().unwrap();
        let fin = op.final_clusters();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0], vec![0, 1]);
    }

    #[test]
    fn centroid_math() {
        let c = Cluster {
            alive: true,
            sum_x: 3.0,
            sum_y: 6.0,
            members: vec![0, 1, 2],
            cands: vec![],
        };
        let g = c.centroid();
        assert!((g.x - 1.0).abs() < 1e-12);
        assert!((g.y - 2.0).abs() < 1e-12);
    }
}
