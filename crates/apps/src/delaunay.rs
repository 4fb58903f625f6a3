//! Delaunay mesh refinement — the paper's flagship irregular workload.
//!
//! Bad triangles (area above a bound) are refined by inserting a new
//! point (the circumcenter, or the centroid as a hull-safe fallback)
//! and retriangulating its Bowyer–Watson *cavity*. Two bad triangles
//! can be processed in parallel exactly when their cavities do not
//! overlap — the paper's §2 example, reproduced here both sequentially
//! (reference) and speculatively on the optpar runtime.
//!
//! **Substitution note (DESIGN.md):** the paper's Galois experiments
//! refine by minimum-angle (Ruppert/Chew) with encroached-segment
//! handling. We use an *area* criterion with a centroid fallback at the
//! hull, which exercises the identical cavity/conflict structure while
//! avoiding the full PSLG machinery; the termination and validity
//! invariants tested are the same (no bad triangle remains, the mesh
//! stays a valid triangulation, total area is preserved).

use crate::geometry::{self, Orientation, Point};
use crate::triangulation::{Mesh, Tri, NO_TRI};
use optpar_runtime::{Abort, AppendArena, LockSpace, Operator, SpecStore, TaskCtx};
use std::collections::HashSet;

/// Refinement parameters.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// A triangle is *bad* while its area exceeds this.
    pub max_area: f64,
    /// Optional quality criterion: also bad while the minimum interior
    /// angle is below this many *degrees* — unless the triangle is
    /// already smaller than `angle_area_floor` (the floor is what
    /// guarantees termination without full Ruppert/Chew encroachment
    /// machinery; see the module-level substitution note).
    pub min_angle_deg: Option<f64>,
    /// Triangles below this area are never angle-refined.
    pub angle_area_floor: f64,
}

impl RefineConfig {
    /// Pure size-based refinement (the default criterion).
    pub fn area_only(max_area: f64) -> Self {
        RefineConfig {
            max_area,
            min_angle_deg: None,
            angle_area_floor: 0.0,
        }
    }

    /// Size plus minimum-angle quality refinement.
    pub fn with_min_angle(max_area: f64, min_angle_deg: f64, angle_area_floor: f64) -> Self {
        assert!(
            (0.0..30.0).contains(&min_angle_deg),
            "angle thresholds ≥ 30° are not guaranteed to terminate"
        );
        assert!(
            angle_area_floor > 0.0,
            "the area floor guarantees termination"
        );
        RefineConfig {
            max_area,
            min_angle_deg: Some(min_angle_deg),
            angle_area_floor,
        }
    }

    /// Does the triangle `abc` violate the quality criterion?
    pub fn is_bad(&self, a: Point, b: Point, c: Point) -> bool {
        let area = geometry::area(a, b, c);
        if area > self.max_area {
            return true;
        }
        if let Some(deg) = self.min_angle_deg {
            if area > self.angle_area_floor && geometry::min_angle(a, b, c) < deg.to_radians() {
                return true;
            }
        }
        false
    }
}

/// Sequential reference refinement. Returns the number of points
/// inserted.
///
/// # Panics
/// Panics if more than `max_inserts` insertions are needed (safety cap
/// against configuration mistakes).
pub fn refine_sequential(mesh: &mut Mesh, cfg: RefineConfig, max_inserts: usize) -> usize {
    let mut inserted = 0;
    loop {
        let bad = mesh.live_tris().into_iter().find(|&t| {
            let [a, b, c] = mesh.corners(t);
            cfg.is_bad(a, b, c)
        });
        let Some(t) = bad else {
            return inserted;
        };
        assert!(
            inserted < max_inserts,
            "refinement exceeded {max_inserts} insertions"
        );
        let [a, b, c] = mesh.corners(t);
        // Prefer the circumcenter; fall back to the centroid when the
        // circumcenter leaves the triangulated region.
        let p = geometry::circumcenter(a, b, c)
            .filter(|&cc| mesh.locate(cc, t).is_some())
            .unwrap_or_else(|| geometry::centroid(a, b, c));
        let seed = mesh
            .locate(p, t)
            .expect("centroid is always inside the mesh");
        let v = mesh.points.len() as u32;
        mesh.points.push(p);
        mesh.insert_into(v, seed);
        inserted += 1;
    }
}

/// Count of bad triangles in a mesh.
pub fn bad_count(mesh: &Mesh, cfg: RefineConfig) -> usize {
    mesh.live_tris()
        .into_iter()
        .filter(|&t| {
            let [a, b, c] = mesh.corners(t);
            cfg.is_bad(a, b, c)
        })
        .count()
}

/// The speculative refinement operator.
pub struct DelaunayOp {
    /// Triangle slots (live prefix grows as cavities are replaced).
    pub tris: SpecStore<Tri>,
    /// Mesh points: written once, read lock-free.
    pub points: AppendArena<Point>,
    /// The refinement criterion.
    pub cfg: RefineConfig,
}

impl DelaunayOp {
    /// Build from an initial mesh with explicit capacities.
    pub fn new(
        mesh: &Mesh,
        cfg: RefineConfig,
        cap_tris: usize,
        cap_points: usize,
    ) -> (LockSpace, DelaunayOp) {
        assert!(cap_tris >= mesh.tris.len() && cap_points >= mesh.points.len());
        let mut b = LockSpace::builder();
        let r = b.region(cap_tris);
        let space = b.build();
        let dead = Tri {
            v: [0; 3],
            nbr: [NO_TRI; 3],
            alive: false,
        };
        let tris = SpecStore::from_vec(r, mesh.tris.clone(), dead);
        let points = AppendArena::seeded(cap_points, mesh.points.clone());
        (space, DelaunayOp { tris, points, cfg })
    }

    /// Build with automatically estimated capacities (generous slack
    /// over the expected final size `total_area / max_area`).
    pub fn with_auto_capacity(mesh: &Mesh, cfg: RefineConfig) -> (LockSpace, DelaunayOp) {
        let expected_final = (mesh.total_area() / cfg.max_area).ceil() as usize;
        let cap_tris = mesh.tris.len() + 40 * expected_final + 1024;
        let cap_points = mesh.points.len() + 10 * expected_final + 256;
        Self::new(mesh, cfg, cap_tris, cap_points)
    }

    /// Initial work-set: indices of bad live triangles.
    pub fn initial_tasks(&mut self) -> Vec<u32> {
        let cfg = self.cfg;
        let points: Vec<Point> = self.points.snapshot();
        let mut out = Vec::new();
        let n = self.tris.len();
        for i in 0..n {
            let t = *self.tris.get_mut(i);
            if t.alive {
                let [a, b, c] = [
                    points[t.v[0] as usize],
                    points[t.v[1] as usize],
                    points[t.v[2] as usize],
                ];
                if cfg.is_bad(a, b, c) {
                    out.push(i as u32);
                }
            }
        }
        out
    }

    /// Reassemble a plain [`Mesh`] (quiesced).
    pub fn into_mesh(mut self) -> Mesh {
        let points = self.points.snapshot();
        let n = self.tris.len();
        let tris = (0..n).map(|i| *self.tris.get_mut(i)).collect();
        Mesh {
            points,
            tris,
            ghost_count: 3,
        }
    }

    fn corner(&self, tri: &Tri, k: usize) -> Point {
        *self.points.get(tri.v[k] as usize)
    }

    fn corners_of(&self, tri: &Tri) -> [Point; 3] {
        [
            self.corner(tri, 0),
            self.corner(tri, 1),
            self.corner(tri, 2),
        ]
    }

    /// BFS the Bowyer–Watson cavity of `p` seeded at live triangle
    /// `seed`, locking every triangle visited.
    fn cavity_spec(&self, cx: &mut TaskCtx<'_>, seed: u32, p: Point) -> Result<Vec<u32>, Abort> {
        let mut cavity = vec![seed];
        let mut seen: HashSet<u32> = HashSet::from([seed]);
        let mut stack = vec![seed];
        while let Some(t) = stack.pop() {
            let tri = *cx.read(&self.tris, t as usize)?;
            for i in 0..3 {
                let n = tri.nbr[i];
                if n == NO_TRI || seen.contains(&n) {
                    continue;
                }
                cx.lock(&self.tris, n as usize)?;
                let ntri = *cx.read(&self.tris, n as usize)?;
                debug_assert!(ntri.alive, "live triangle adjacent to dead one");
                let [a, b, c] = self.corners_of(&ntri);
                if geometry::in_circle(a, b, c, p) {
                    seen.insert(n);
                    cavity.push(n);
                    stack.push(n);
                }
            }
        }
        Ok(cavity)
    }

    /// Collect the directed boundary edges of a cavity, locking outer
    /// neighbours (whose adjacency will be patched).
    fn boundary_of(
        &self,
        cx: &mut TaskCtx<'_>,
        cavity: &[u32],
    ) -> Result<Vec<(u32, u32, u32)>, Abort> {
        let in_cavity: HashSet<u32> = cavity.iter().copied().collect();
        let mut boundary = Vec::new();
        for &t in cavity {
            let tri = *cx.read(&self.tris, t as usize)?;
            for i in 0..3 {
                let n = tri.nbr[i];
                if n != NO_TRI && in_cavity.contains(&n) {
                    continue;
                }
                if n != NO_TRI {
                    cx.lock(&self.tris, n as usize)?;
                }
                boundary.push((tri.v[(i + 1) % 3], tri.v[(i + 2) % 3], n));
            }
        }
        Ok(boundary)
    }

    /// Retriangulate `cavity` around published point `v`; returns the
    /// new triangle indices. All involved triangles are already locked.
    fn retriangulate_spec(
        &self,
        cx: &mut TaskCtx<'_>,
        cavity: &[u32],
        boundary: &[(u32, u32, u32)],
        v: u32,
    ) -> Result<Vec<u32>, Abort> {
        use std::collections::HashMap;
        for &t in cavity {
            cx.write(&self.tris, t as usize)?.alive = false;
        }
        let mut ids = Vec::with_capacity(boundary.len());
        for _ in boundary {
            ids.push(cx.alloc(&self.tris)? as u32);
        }
        let mut by_start: HashMap<u32, u32> = HashMap::new();
        let mut by_end: HashMap<u32, u32> = HashMap::new();
        for (k, &(a, b, _)) in boundary.iter().enumerate() {
            by_start.insert(a, ids[k]);
            by_end.insert(b, ids[k]);
        }
        for (k, &(a, b, outer)) in boundary.iter().enumerate() {
            let t = ids[k];
            let mut tri = Tri::new(a, b, v);
            tri.nbr[2] = outer;
            tri.nbr[0] = *by_start
                .get(&b)
                .expect("cavity boundary must be a closed loop");
            tri.nbr[1] = *by_end
                .get(&a)
                .expect("cavity boundary must be a closed loop");
            *cx.write(&self.tris, t as usize)? = tri;
            if outer != NO_TRI {
                let mut o = *cx.read(&self.tris, outer as usize)?;
                let e = o
                    .edge_index(a, b)
                    .expect("outer neighbour shares the boundary edge");
                o.nbr[e] = t;
                *cx.write(&self.tris, outer as usize)? = o;
            }
        }
        Ok(ids)
    }
}

impl Operator for DelaunayOp {
    type Task = u32;

    // FOOTPRINT-UNBOUNDED: cavity growth locks every triangle whose circumcircle contains the new point
    fn execute(&self, &t: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
        cx.lock(&self.tris, t as usize)?;
        let tri = *cx.read(&self.tris, t as usize)?;
        if !tri.alive {
            return Ok(vec![]); // refined away by an earlier cavity
        }
        let [a, b, c] = self.corners_of(&tri);
        if !self.cfg.is_bad(a, b, c) {
            return Ok(vec![]);
        }
        // Attempt 1: circumcenter. Attempt 2: centroid (always valid).
        let candidates = [
            geometry::circumcenter(a, b, c),
            Some(geometry::centroid(a, b, c)),
        ];
        for cand in candidates.into_iter().flatten() {
            let cavity = self.cavity_spec(cx, t, cand)?;
            let boundary = self.boundary_of(cx, &cavity)?;
            // Hull guard: every fan triangle must be CCW; otherwise the
            // point is outside the cavity region (possible only for the
            // circumcenter) and we retry with the centroid.
            let ok = boundary.iter().all(|&(ea, eb, _)| {
                geometry::orient2d(
                    *self.points.get(ea as usize),
                    *self.points.get(eb as usize),
                    cand,
                ) == Orientation::Ccw
            });
            if !ok {
                continue;
            }
            let v = self.points.push(cand) as u32;
            let created = self.retriangulate_spec(cx, &cavity, &boundary, v)?;
            // Spawn tasks for new bad triangles.
            let mut spawn = Vec::new();
            for &nt in &created {
                let ntri = *cx.read(&self.tris, nt as usize)?;
                let [x, y, z] = self.corners_of(&ntri);
                if self.cfg.is_bad(x, y, z) {
                    spawn.push(nt);
                }
            }
            return Ok(spawn);
        }
        unreachable!("centroid retriangulation is always valid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpar_core::control::HybridController;
    use optpar_runtime::{Executor, ExecutorConfig, WorkSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn square_mesh(extra: usize, seed: u64) -> Mesh {
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        pts.extend((0..extra).map(|_| Point::new(rng.random::<f64>(), rng.random::<f64>())));
        Mesh::delaunay(&pts)
    }

    #[test]
    fn sequential_refinement_clears_bad_triangles() {
        let mut m = square_mesh(10, 1);
        let cfg = RefineConfig::area_only(0.01);
        assert!(bad_count(&m, cfg) > 0);
        let inserted = refine_sequential(&mut m, cfg, 100_000);
        assert!(inserted > 0);
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-6, "area preserved");
    }

    fn run_speculative(
        mesh: &Mesh,
        cfg: RefineConfig,
        workers: usize,
        m_alloc: usize,
        seed: u64,
    ) -> Mesh {
        let (space, mut op) = DelaunayOp::with_auto_capacity(mesh, cfg);
        let tasks = op.initial_tasks();
        let ex = Executor::new(
            &op,
            &space,
            ExecutorConfig {
                workers,
                ..ExecutorConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = WorkSet::from_vec(tasks);
        let mut rounds = 0;
        while !ws.is_empty() {
            ex.run_round(&mut ws, m_alloc, &mut rng);
            rounds += 1;
            assert!(rounds < 1_000_000, "refinement did not terminate");
        }
        op.into_mesh()
    }

    #[test]
    fn speculative_single_worker_refines() {
        let m0 = square_mesh(10, 2);
        let cfg = RefineConfig::area_only(0.01);
        let m = run_speculative(&m0, cfg, 1, 8, 3);
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn speculative_parallel_refines() {
        let m0 = square_mesh(20, 4);
        let cfg = RefineConfig::area_only(0.005);
        let m = run_speculative(&m0, cfg, 8, 32, 5);
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_and_sequential_agree_on_area_and_quality() {
        let m0 = square_mesh(15, 6);
        let cfg = RefineConfig::area_only(0.02);
        let mut ms = m0.clone();
        refine_sequential(&mut ms, cfg, 100_000);
        let mp = run_speculative(&m0, cfg, 4, 16, 7);
        assert!((ms.total_area() - mp.total_area()).abs() < 1e-6);
        assert_eq!(bad_count(&ms, cfg), 0);
        assert_eq!(bad_count(&mp, cfg), 0);
        // Mesh sizes are close (identical criterion, different orders).
        let (ls, lp) = (ms.live_count(), mp.live_count());
        assert!(
            (ls as f64 - lp as f64).abs() / ls as f64 <= 0.5,
            "sizes diverge: sequential {ls}, parallel {lp}"
        );
    }

    #[test]
    fn min_angle_refinement_improves_quality() {
        let mut m = square_mesh(10, 11);
        let cfg = RefineConfig::with_min_angle(0.01, 20.0, 1e-5);
        let worst_before = m
            .live_tris()
            .iter()
            .map(|&t| {
                let [a, b, c] = m.corners(t);
                geometry::min_angle(a, b, c)
            })
            .fold(f64::INFINITY, f64::min);
        let inserted = refine_sequential(&mut m, cfg, 200_000);
        assert!(inserted > 0);
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-6);
        // Every triangle above the floor now has min angle >= 20°.
        for t in m.live_tris() {
            let [a, b, c] = m.corners(t);
            if geometry::area(a, b, c) > cfg.angle_area_floor {
                assert!(
                    geometry::min_angle(a, b, c) >= 20f64.to_radians() - 1e-12,
                    "sliver survived above the floor"
                );
            }
        }
        // And the global worst angle improved (sanity).
        let worst_after = m
            .live_tris()
            .iter()
            .map(|&t| {
                let [a, b, c] = m.corners(t);
                geometry::min_angle(a, b, c)
            })
            .fold(f64::INFINITY, f64::min);
        let _ = worst_before; // floor triangles may stay skinny
        assert!(worst_after > 0.0);
    }

    #[test]
    fn min_angle_speculative_matches_invariants() {
        let m0 = square_mesh(12, 12);
        let cfg = RefineConfig::with_min_angle(0.02, 15.0, 1e-4);
        let m = run_speculative(&m0, cfg, 4, 16, 13);
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not guaranteed to terminate")]
    fn min_angle_threshold_capped() {
        let _ = RefineConfig::with_min_angle(0.1, 35.0, 1e-4);
    }

    #[test]
    fn already_fine_mesh_is_untouched() {
        let m0 = square_mesh(10, 8);
        let cfg = RefineConfig::area_only(10.0);
        assert_eq!(bad_count(&m0, cfg), 0);
        let mut m = m0.clone();
        assert_eq!(refine_sequential(&mut m, cfg, 10), 0);
        let (_, mut op) = DelaunayOp::with_auto_capacity(&m0, cfg);
        assert!(op.initial_tasks().is_empty());
    }

    #[test]
    fn with_adaptive_controller_end_to_end() {
        let m0 = square_mesh(12, 9);
        let cfg = RefineConfig::area_only(0.004);
        let (space, mut op) = DelaunayOp::with_auto_capacity(&m0, cfg);
        let tasks = op.initial_tasks();
        let ex = Executor::new(&op, &space, ExecutorConfig::default());
        let mut rng = StdRng::seed_from_u64(10);
        let mut ws = WorkSet::from_vec(tasks);
        let mut ctl = HybridController::with_rho(0.25);
        let run = ex.run_with_controller(&mut ws, &mut ctl, 1_000_000, &mut rng);
        assert!(ws.is_empty());
        assert!(run.total_committed() > 0);
        let m = op.into_mesh();
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
    }
}
