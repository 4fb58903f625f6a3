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

    /// Grow the Bowyer–Watson cavity of `p` from live triangle `seed`
    /// (whose value is `seed_tri`) with a DFS stack, locking every
    /// triangle tested, and collect its boundary on the way: a tested
    /// neighbour outside the cavity *is* a boundary edge, and one such
    /// test per edge decides it — the neighbour's circumcircle does not
    /// change while this task holds its lock. Membership is a scan of
    /// the cavity, which is a handful of triangles.
    ///
    /// Both lists come back in [`Mesh::cavity`] /
    /// [`Mesh::retriangulate`]'s order — cavity in push order, edges
    /// by cavity triangle, then by local edge — so one insertion at a
    /// time numbers the mesh exactly as the sequential code does.
    fn cavity_spec(
        &self,
        cx: &mut TaskCtx<'_>,
        seed: u32,
        seed_tri: Tri,
        p: Point,
    ) -> Result<(Vec<u32>, Vec<BoundaryEdge>), Abort> {
        let mut cavity = Vec::with_capacity(8);
        let mut boundary = Vec::with_capacity(12);
        // (cavity position, value) of cavity triangles not yet walked.
        let mut stack = Vec::with_capacity(8);
        cavity.push(seed);
        stack.push((0u32, seed_tri));
        while let Some((from, tri)) = stack.pop() {
            for i in 0..3 {
                let n = tri.nbr[i];
                if n != NO_TRI {
                    if cavity.contains(&n) {
                        continue;
                    }
                    let ntri = *cx.read(&self.tris, n as usize)?;
                    debug_assert!(ntri.alive, "live triangle adjacent to dead one");
                    let [a, b, c] = self.corners_of(&ntri);
                    if geometry::in_circle(a, b, c, p) {
                        stack.push((cavity.len() as u32, ntri));
                        cavity.push(n);
                        continue;
                    }
                }
                boundary.push(BoundaryEdge {
                    a: tri.v[(i + 1) % 3],
                    b: tri.v[(i + 2) % 3],
                    outer: n,
                    from,
                    fan: NO_TRI,
                });
            }
        }
        // The stack walks the cavity out of push order; the sort is
        // stable, so a triangle's edges stay in local order.
        boundary.sort_by_key(|e| e.from);
        Ok((cavity, boundary))
    }

    /// Replace `cavity` with a fan around published point `v` (at `p`),
    /// one new triangle per boundary edge; returns the bad ones among
    /// them. Takes no lock but the fresh slots': every cavity triangle
    /// and outer neighbour was locked by [`DelaunayOp::cavity_spec`].
    fn retriangulate_spec(
        &self,
        cx: &mut TaskCtx<'_>,
        cavity: &[u32],
        boundary: &mut [BoundaryEdge],
        v: u32,
        p: Point,
    ) -> Result<Vec<u32>, Abort> {
        for &t in cavity {
            cx.write(&self.tris, t as usize)?.alive = false;
        }
        for e in boundary.iter_mut() {
            e.fan = cx.alloc(&self.tris)? as u32;
        }
        let boundary = &*boundary;
        let mut spawn = Vec::new();
        for e in boundary {
            let mut tri = Tri::new(e.a, e.b, v);
            // Edge (a, b) is opposite v; (b, v) is shared with the fan
            // triangle whose edge starts at b, (v, a) with the one
            // whose edge ends at a.
            tri.nbr[2] = e.outer;
            tri.nbr[0] = fan_where(boundary, |o| o.a == e.b);
            tri.nbr[1] = fan_where(boundary, |o| o.b == e.a);
            *cx.write(&self.tris, e.fan as usize)? = tri;
            if e.outer != NO_TRI {
                let o = cx.write(&self.tris, e.outer as usize)?;
                let back = o
                    .edge_index(e.a, e.b)
                    .expect("outer neighbour shares the boundary edge");
                o.nbr[back] = e.fan;
            }
            let (a, b) = (self.points.get(e.a as usize), self.points.get(e.b as usize));
            if self.cfg.is_bad(*a, *b, p) {
                spawn.push(e.fan);
            }
        }
        Ok(spawn)
    }
}

/// A directed edge `a → b` (CCW in its cavity triangle) of a cavity's
/// boundary.
#[derive(Clone, Copy, Debug)]
struct BoundaryEdge {
    a: u32,
    b: u32,
    /// The triangle across the edge, outside the cavity ([`NO_TRI`] on
    /// the hull).
    outer: u32,
    /// Position in the cavity of the triangle the edge belongs to.
    from: u32,
    /// The fan triangle that replaces that one along this edge
    /// ([`NO_TRI`] until [`DelaunayOp::retriangulate_spec`] allocates
    /// it).
    fan: u32,
}

/// The fan triangle on the boundary edge `pick` selects. The boundary
/// is a closed loop of a handful of edges, so a scan finds an edge's
/// successor or predecessor — from the back, as the hash maps this
/// replaces resolved a vertex the loop passes twice.
fn fan_where(boundary: &[BoundaryEdge], pick: impl Fn(&BoundaryEdge) -> bool) -> u32 {
    let at = boundary.iter().rposition(pick);
    boundary[at.expect("cavity boundary must be a closed loop")].fan
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
            let (cavity, mut boundary) = self.cavity_spec(cx, t, tri, cand)?;
            // Hull guard: every fan triangle must be CCW; otherwise the
            // point is outside the cavity region (possible only for the
            // circumcenter) and we retry with the centroid.
            let ok = boundary.iter().all(|e| {
                geometry::orient2d(
                    *self.points.get(e.a as usize),
                    *self.points.get(e.b as usize),
                    cand,
                ) == Orientation::Ccw
            });
            if !ok {
                continue;
            }
            let v = self.points.push(cand) as u32;
            // The new triangles that are bad in turn are the spawn.
            return self.retriangulate_spec(cx, &cavity, &mut boundary, v, cand);
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

    /// Inserts given points into `op`'s mesh, one task each, through
    /// the speculative kernel — no badness test, no candidate retry —
    /// recording what each task's walk found.
    struct InsertOp<'a> {
        op: &'a DelaunayOp,
        /// Per task: the seed triangle, the point, and a triangle to
        /// lock after the insertion (to collide on).
        inserts: Vec<(u32, Point, Option<u32>)>,
        /// The walks, in execution order.
        walked: std::sync::Mutex<Vec<Walk>>,
    }

    /// `(task, cavity, boundary)` of one insertion.
    type Walk = (u32, Vec<u32>, Vec<BoundaryEdge>);

    impl Operator for InsertOp<'_> {
        type Task = u32;

        fn execute(&self, &k: &u32, cx: &mut TaskCtx<'_>) -> Result<Vec<u32>, Abort> {
            let (seed, p, then_lock) = self.inserts[k as usize];
            let tri = *cx.read(&self.op.tris, seed as usize)?;
            let (cavity, mut boundary) = self.op.cavity_spec(cx, seed, tri, p)?;
            let v = self.op.points.push(p) as u32;
            self.op
                .retriangulate_spec(cx, &cavity, &mut boundary, v, p)?;
            self.walked.lock().unwrap().push((k, cavity, boundary));
            if let Some(t) = then_lock {
                cx.lock(&self.op.tris, t as usize)?;
            }
            Ok(vec![])
        }
    }

    /// Run `inserts` as one inline round; returns `(committed,
    /// aborted)` and the walks in execution order.
    fn insert_round(
        space: &LockSpace,
        op: &DelaunayOp,
        inserts: Vec<(u32, Point, Option<u32>)>,
    ) -> ((usize, usize), Vec<Walk>) {
        let n = inserts.len();
        let ins = InsertOp {
            op,
            inserts,
            walked: Default::default(),
        };
        let cfg = ExecutorConfig {
            workers: 1,
            ..ExecutorConfig::default()
        };
        let mut ws = WorkSet::from_vec((0..n as u32).collect());
        let rs =
            Executor::new(&ins, space, cfg).run_round(&mut ws, n, &mut StdRng::seed_from_u64(1));
        assert_eq!(rs.launched, n);
        ((rs.committed, rs.aborted), ins.walked.into_inner().unwrap())
    }

    /// The directed boundary of `cavity` as [`Mesh::retriangulate`]
    /// derives it: `(a, b, outer)` by cavity triangle, then local edge.
    fn boundary_of(mesh: &Mesh, cavity: &[u32]) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for &t in cavity {
            let tri = mesh.tris[t as usize];
            for i in 0..3 {
                if tri.nbr[i] == NO_TRI || !cavity.contains(&tri.nbr[i]) {
                    out.push((tri.v[(i + 1) % 3], tri.v[(i + 2) % 3], tri.nbr[i]));
                }
            }
        }
        out
    }

    fn edges_of(boundary: &[BoundaryEdge]) -> Vec<(u32, u32, u32)> {
        boundary.iter().map(|e| (e.a, e.b, e.outer)).collect()
    }

    /// Is `boundary` one closed loop through all its edges?
    fn is_closed_loop(boundary: &[(u32, u32, u32)]) -> bool {
        let (start, mut at) = (boundary[0].0, boundary[0].1);
        let mut steps = 1;
        while at != start && steps <= boundary.len() {
            let next = boundary.iter().filter(|e| e.0 == at).collect::<Vec<_>>();
            if next.len() != 1 {
                return false;
            }
            at = next[0].1;
            steps += 1;
        }
        at == start && steps == boundary.len()
    }

    fn interior_point(rng: &mut StdRng) -> Point {
        Point::new(
            0.05 + 0.9 * rng.random::<f64>(),
            0.05 + 0.9 * rng.random::<f64>(),
        )
    }

    /// The one-pass walk against the sequential two-pass code: same
    /// cavity, same boundary loop, and — insertion by insertion — the
    /// same mesh, triangle numbering included.
    #[test]
    fn one_pass_cavity_matches_the_sequential_mesh() {
        for seed in 0..6 {
            let mut mirror = square_mesh(25, seed);
            let cfg = RefineConfig::area_only(1.0);
            let (space, mut op) = DelaunayOp::new(&mirror, cfg, 4096, 512);
            let mut rng = StdRng::seed_from_u64(100 + seed);
            for _ in 0..40 {
                let q = interior_point(&mut rng);
                let containing = mirror.locate(q, 0).expect("inside the unit square");
                let cavity = mirror.cavity(q, containing);
                let boundary = boundary_of(&mirror, &cavity);
                assert!(is_closed_loop(&boundary));

                let (outcome, walked) = insert_round(&space, &op, vec![(containing, q, None)]);
                assert_eq!(outcome, (1, 0));
                let (_, spec_cavity, spec_boundary) = &walked[0];
                assert_eq!(*spec_cavity, cavity, "seed {seed}: cavity, in push order");
                assert_eq!(edges_of(spec_boundary), boundary, "seed {seed}: boundary");

                let v = mirror.points.len() as u32;
                mirror.points.push(q);
                let created = mirror.insert_into(v, containing);
                let fans: Vec<u32> = spec_boundary.iter().map(|e| e.fan).collect();
                assert_eq!(fans, created, "seed {seed}: new triangle ids");
                assert_eq!(op.tris.snapshot(), mirror.tris, "seed {seed}: mesh");
                mirror.check_valid().unwrap();
                mirror.check_delaunay().unwrap();
            }
            assert_eq!(op.into_mesh().points, mirror.points);
        }
    }

    /// Four corners and 48 near-cocircular points around the centre.
    fn ring_mesh() -> Mesh {
        let mut pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        pts.extend((0..48).map(|k| {
            let r = 0.3 * (1.0 + 1e-4 * ((k * 7) % 5) as f64);
            let phi = std::f64::consts::TAU * k as f64 / 48.0;
            Point::new(0.5 + r * phi.cos(), 0.5 + r * phi.sin())
        }));
        Mesh::delaunay(&pts)
    }

    /// A cavity far past any inline bound: the centre of a ring lies in
    /// the circumcircle of every triangle the ring encloses.
    #[test]
    fn a_forty_triangle_cavity_refines() {
        let m0 = ring_mesh();
        m0.check_delaunay().unwrap();
        let centre = Point::new(0.5, 0.5);
        let containing = m0.locate(centre, 0).unwrap();
        let cfg = RefineConfig::area_only(1.0);
        let (space, op) = DelaunayOp::new(&m0, cfg, 1024, 128);
        let (outcome, walked) = insert_round(&space, &op, vec![(containing, centre, None)]);
        assert_eq!(outcome, (1, 0));
        let (_, cavity, boundary) = &walked[0];
        assert!(cavity.len() >= 40, "cavity of {}", cavity.len());
        assert_eq!(*cavity, m0.cavity(centre, containing));
        assert_eq!(edges_of(boundary), boundary_of(&m0, cavity));
        let m = op.into_mesh();
        m.check_valid().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-9);

        // And through the operator proper: the enclosed triangles are
        // bad, their circumcentres all but coincide with the centre.
        let cfg = RefineConfig::area_only(2e-3);
        let m = run_speculative(&m0, cfg, 1, 8, 3);
        assert_eq!(bad_count(&m, cfg), 0);
        m.check_valid().unwrap();
        m.check_delaunay().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-6);
    }

    /// Two insertions in one round, the later colliding with the
    /// earlier — mid-cavity, or after its whole retriangulation is
    /// written: rollback leaves every triangle as the earlier task
    /// alone would have.
    #[test]
    fn an_aborted_refinement_leaves_the_mesh_untouched() {
        let m0 = square_mesh(40, 21);
        let cfg = RefineConfig::area_only(1.0);
        let (p, q) = (Point::new(0.2, 0.2), Point::new(0.8, 0.8));
        let (tp, tq) = (m0.locate(p, 0).unwrap(), m0.locate(q, 0).unwrap());
        // Every triangle a walk from `seed` for `at` locks.
        let locked = |at: Point, seed: u32| {
            let mut all = m0.cavity(at, seed);
            let outer = boundary_of(&m0, &all);
            all.extend(outer.iter().map(|e| e.2));
            all
        };
        let bystander = m0.locate(Point::new(0.8, 0.2), 0).unwrap();
        assert!(
            locked(p, tp)
                .iter()
                .all(|t| *t != bystander && !locked(q, tq).contains(t)),
            "far-apart cavities"
        );
        assert!(!locked(q, tq).contains(&bystander));
        // Each task ends by locking the bystander, so whichever runs
        // second loses with its fan already written.
        let late = vec![(tp, p, Some(bystander)), (tq, q, Some(bystander))];
        // Two points in one triangle: the second walk stops at its seed
        // or a neighbour, nothing written yet.
        let p2 = Point::new(p.x + 1e-3, p.y + 1e-3);
        assert_eq!(m0.locate(p2, tp), Some(tp));
        let early = vec![(tp, p, None), (tp, p2, None)];

        for (inserts, walks) in [(late, 2), (early, 1)] {
            let (space, mut op) = DelaunayOp::new(&m0, cfg, 1024, 128);
            let (outcome, walked) = insert_round(&space, &op, inserts.clone());
            assert_eq!(outcome, (1, 1));
            assert_eq!(walked.len(), walks, "how far the loser got");
            assert!(space.check_all_free().is_ok());
            let (first, ..) = walked[0];
            let (seed, point, _) = inserts[first as usize];
            let mut mirror = m0.clone();
            let v = mirror.points.len() as u32;
            mirror.points.push(point);
            mirror.insert_into(v, seed);

            let tris = op.tris.snapshot();
            let (kept, leaked) = tris.split_at(mirror.tris.len());
            assert_eq!(kept, mirror.tris, "the winner's mesh, nothing else");
            // The loser's fresh slots leak, restored to the pad.
            let fans = walked.get(1).map_or(0, |(_, _, boundary)| boundary.len());
            assert_eq!(leaked.len(), fans);
            assert!(leaked.iter().all(|t| !t.alive && t.nbr == [NO_TRI; 3]));
            mirror.check_valid().unwrap();
        }
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
