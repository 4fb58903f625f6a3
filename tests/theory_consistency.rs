//! Facade-level consistency sweep: the closed-form theory, the
//! Monte-Carlo estimators, the abstract scheduler, and the runtime all
//! have to tell one coherent story about the same graphs.

use optpar::core::control::{HybridController, HybridParams};
use optpar::core::{estimate, seating, theory};
use optpar::graph::{gen, mis, ConflictGraph, CsrGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn four_ways_to_the_same_number_on_the_worst_case() {
    // EM_m(K_d^n) via: (1) Thm. 3 closed form, (2) the b_m series of
    // Eq. (21), (3) Monte-Carlo on the actual graph, (4) the eager-rule
    // estimator (equal on K_d^n).
    let mut rng = StdRng::seed_from_u64(1);
    let (n, d) = (210, 6); // s = 30 cliques of 7
    let g = gen::clique_union(n, d);
    for &m in &[5usize, 30, 105, 210] {
        let closed = theory::em_worst_exact(n, d, m);
        let series = theory::b_m_worst(n, d, m);
        let mc = estimate::em_m_mc(&g, m, 8000, &mut rng);
        let eager = estimate::b_m_mc(&g, m, 8000, &mut rng);
        assert!((closed - series).abs() < 1e-9);
        assert!(mc.consistent_with(closed, 4.0), "m={m}: {mc:?} vs {closed}");
        assert!(
            eager.consistent_with(closed, 4.0),
            "m={m}: eager {eager:?} vs {closed}"
        );
    }
}

#[test]
fn seating_is_the_full_prefix_of_the_model() {
    // seating(path) == EM_n(path): launching everything at once in the
    // paper's model is exactly the unfriendly seating process.
    let n = 9;
    let mut b = GraphBuilder::new(n);
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    b.path(&nodes);
    let g = b.build();
    let dp = seating::seating_path_exact(n);
    let brute = mis::exact_em_m(&g, n);
    assert!((dp - brute).abs() < 1e-9);
}

#[test]
fn turan_b_m_em_m_sandwich() {
    // For every graph: b_m ≤ EM_m, and at m = n Turán bounds EM from
    // below. Spot-check on three families at moderate size.
    let mut rng = StdRng::seed_from_u64(2);
    let graphs: Vec<CsrGraph> = vec![
        gen::random_with_avg_degree(300, 8.0, &mut rng),
        gen::cliques_plus_isolated(20, 7, 160),
        gen::preferential_attachment(300, 4, &mut rng),
    ];
    for g in &graphs {
        let n = g.node_count();
        for &m in &[n / 10, n / 2, n] {
            let b = theory::b_m_exact(g, m);
            let em = estimate::em_m_mc(g, m, 4000, &mut rng);
            assert!(
                b <= em.mean + 4.0 * em.stderr,
                "b_m {b} above EM_m {} (m = {m})",
                em.mean
            );
        }
        let em_full = estimate::em_m_mc(g, n, 4000, &mut rng);
        let turan = theory::turan_bound(n, g.average_degree());
        assert!(
            em_full.mean + 4.0 * em_full.stderr >= turan,
            "Turán violated: {} < {turan}",
            em_full.mean
        );
    }
}

#[test]
fn static_recommendation_is_safe_on_adversarial_graph() {
    // recommended_m gives a worst-case-safe allocation: on the actual
    // worst-case graph the realized conflict ratio must respect ρ.
    let mut rng = StdRng::seed_from_u64(3);
    let (n, d) = (1020, 16);
    let worst = gen::clique_union(n, d);
    for &rho in &[0.1, 0.25] {
        let m = theory::recommended_m(n, d, rho);
        let r = estimate::conflict_ratio_mc(&worst, m, 8000, &mut rng);
        assert!(
            r.mean <= rho + 4.0 * r.stderr + 1e-9,
            "ρ = {rho}: measured {} at recommended m = {m}",
            r.mean
        );
    }
}

#[test]
fn controller_holds_target_on_large_static_workload() {
    // Facade-level replay of the paper's main loop: steady-state r
    // must sit near ρ on a static plant.
    use optpar::core::sim::{run_loop, StaticGraphPlant};
    let mut rng = StdRng::seed_from_u64(5);
    let g = gen::random_with_avg_degree(4000, 20.0, &mut rng);
    let mut plant = StaticGraphPlant::new(g);
    let mut ctl = HybridController::new(HybridParams {
        rho: 0.2,
        m_max: 4096,
        ..HybridParams::default()
    });
    let tr = run_loop(&mut plant, &mut ctl, 400, &mut rng);
    let r = tr.steady_r(200);
    assert!((r - 0.2).abs() < 0.06, "steady r = {r}");
}
