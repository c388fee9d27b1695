//! Tests of the independent checker: hand-computed cases, acceptance of
//! the program's exact oracles, and rejection of the known-wrong fast
//! DAG search.

use perfbench::check::{check_cell, CellFault, CellReference, Fig1, Fig1Optimum, Fig2, Net};
use perfbench::workloads::{chain_net, topology_net, LOGALYTICS_SEED};
use rtsdf::apps::logalytics;
use rtsdf::core::comparison::SweepConfig;
use rtsdf::core::{
    EnforcedDagProblem, EnforcedWaitsProblem, MonolithicDagProblem, MonolithicProblem,
};
use rtsdf::model::{RtParams, Topology};

fn value(opt: Option<Fig1Optimum>) -> (f64, f64) {
    match opt {
        Some(Fig1Optimum::Value { lower, upper }) => (lower, upper),
        other => panic!("expected an optimum, got {other:?}"),
    }
}

fn assert_brackets(opt: Option<Fig1Optimum>, expected: f64) {
    let (lower, upper) = value(opt);
    assert!(
        lower <= expected * (1.0 + 1e-9) && upper >= expected * (1.0 - 1e-9),
        "[{lower}, {upper}] does not bracket {expected}"
    );
    assert!(
        upper - lower <= 1e-8 * expected,
        "gap too wide: [{lower}, {upper}]"
    );
}

#[test]
fn fig2_scan_on_one_stage_by_hand() {
    // v = 4, t = 10, τ0 = 5, D = 100, b = S = 1: T(M) = ⌈M/4⌉·10.
    // M = 1 is unstable (10 > 5); M = 4, 8 and 12 all give 0.5 and the
    // first is kept; M = 13 breaks the deadline (65 + 40 > 100).
    let net = Net::chain(4.0, vec![10.0], &[1.0]);
    let fig2 = Fig2::new(&net, 1.0, 1.0);
    assert_eq!(fig2.value(1, 5.0, 100.0), None);
    assert_eq!(fig2.value(3, 5.0, 100.0), Some(10.0 / 15.0));
    assert_eq!(fig2.value(13, 5.0, 100.0), None);
    assert_eq!(fig2.scan(5.0, 100.0), Some((4, 0.5)));
    // D = 14: even M = 1 breaks the deadline (1·5 + 10 > 14).
    assert_eq!(fig2.scan(5.0, 14.0), None);
}

#[test]
fn fig1_on_one_and_two_stages_by_hand() {
    // One stage, t = 10, v = 4, τ0 = 5 (x ≤ 20), b = 1, D = 15: the
    // deadline binds, x = 15, active fraction 10/15.
    let one = Net::chain(4.0, vec![10.0], &[1.0]);
    let fig1 = Fig1::new(&one, 5.0, 15.0, &[1.0]);
    assert!(fig1.feasible());
    assert_brackets(fig1.solve_barrier(), 2.0 / 3.0);
    let (pav, z) = fig1.solve_chain_pav().expect("feasible");
    assert!((pav - 2.0 / 3.0).abs() < 1e-12 && (z[0] - 15.0).abs() < 1e-9);
    // D = 9 < t and τ0 = 2 (x ≤ 8 < t) are both infeasible.
    assert!(!Fig1::new(&one, 5.0, 9.0, &[1.0]).feasible());
    assert!(!Fig1::new(&one, 2.0, 15.0, &[1.0]).feasible());
    assert_eq!(
        Fig1::new(&one, 2.0, 15.0, &[1.0]).solve_barrier(),
        Some(Fig1Optimum::Infeasible)
    );

    // Two unit stages, gain 1, v = 1, τ0 = 10, b = (1, 1).
    let two = Net::chain(1.0, vec![1.0, 1.0], &[1.0, 1.0]);
    // D = 10: x0 + x1 ≤ 10 binds symmetrically, x = (5, 5), af = 0.2.
    let tight = Fig1::new(&two, 10.0, 10.0, &[1.0, 1.0]);
    assert_brackets(tight.solve_barrier(), 0.2);
    assert!((tight.solve_chain_pav().expect("feasible").0 - 0.2).abs() < 1e-12);
    // D = 30: the head bound binds instead, x = (10, 10), af = 0.1.
    let loose = Fig1::new(&two, 10.0, 30.0, &[1.0, 1.0]);
    assert_brackets(loose.solve_barrier(), 0.1);
    assert!((loose.solve_chain_pav().expect("feasible").0 - 0.1).abs() < 1e-12);
    // Periods check: (5, 5) passes; (6, 5) breaks the deadline and
    // (4, 5) breaks edge stability (x1·g ≤ x0).
    assert!(tight.check_periods(&[5.0, 5.0], &[1.0, 1.0]).is_ok());
    assert!(tight.check_periods(&[6.0, 5.0], &[1.0, 1.0]).is_err());
    assert!(tight.check_periods(&[4.0, 5.0], &[1.0, 1.0]).is_err());
}

#[test]
fn fig1_on_a_diamond_by_hand() {
    // 0 → {1, 2} with weight ½ each, {1, 2} → 3: G = (1, ½, ½, 1).
    // With a loose deadline every scaled period sits at v·τ0 = 10, so
    // x = (10, 20, 20, 10) and af = (0.1 + 0.05 + 0.05 + 0.1)/4.
    let net = Net {
        v: 1.0,
        t: vec![1.0; 4],
        edges: vec![
            (0, 1, 1.0, 0.5),
            (0, 2, 1.0, 0.5),
            (1, 3, 1.0, 1.0),
            (2, 3, 1.0, 1.0),
        ],
    };
    assert_eq!(net.totals(), vec![1.0, 0.5, 0.5, 1.0]);
    let fig1 = Fig1::new(&net, 10.0, 1e9, &[1.0; 4]);
    assert_brackets(fig1.solve_barrier(), 0.075);
}

#[test]
fn cell_rules() {
    let reference = CellReference {
        enforced: Some(Fig1Optimum::Value {
            lower: 0.5,
            upper: 0.5,
        }),
        enforced_feasible: true,
        monolithic: Some((4, 0.8)),
    };
    assert!(check_cell(&reference, Some(0.5), Some(0.8), true).is_empty());
    // Chains must hit the optimum; DAGs may only not undercut it.
    assert_eq!(
        check_cell(&reference, Some(0.51), Some(0.8), true),
        vec![CellFault::EnforcedValue]
    );
    assert!(check_cell(&reference, Some(0.51), Some(0.8), false).is_empty());
    assert_eq!(
        check_cell(&reference, Some(0.49), Some(0.8), false),
        vec![CellFault::EnforcedValue]
    );
    assert_eq!(
        check_cell(&reference, None, Some(0.81), true),
        vec![CellFault::EnforcedFeasibility, CellFault::MonolithicValue]
    );
    assert_eq!(
        check_cell(&reference, Some(0.5), None, true),
        vec![CellFault::MonolithicFeasibility]
    );
}

/// Every ninth grid point on both axes: 8 × 8 cells spanning the grid.
fn subsample() -> Vec<(f64, f64)> {
    let (tau0s, ds) = RtParams::paper_grid(64, 64);
    let mut cells = Vec::new();
    for i in (0..64).step_by(9) {
        for j in (0..64).step_by(9) {
            cells.push((tau0s[i], ds[j]));
        }
    }
    cells
}

#[test]
fn accepts_the_chain_oracles_on_the_fig3_grid() {
    let pipeline = rtsdf::blast::paper_pipeline();
    let net = chain_net(&pipeline);
    let cfg = SweepConfig::paper_blast();
    for (tau0, d) in subsample() {
        let params = RtParams::new(tau0, d).unwrap();
        let reference = CellReference::compute(&net, &cfg.enforced_b, 1.0, 1.0, tau0, d);
        let enforced = EnforcedWaitsProblem::new(&pipeline, params, cfg.enforced_b.clone())
            .solve_with_fallback()
            .ok()
            .map(|s| s.active_fraction);
        let monolithic = MonolithicProblem::new(&pipeline, params, 1.0, 1.0)
            .solve()
            .ok()
            .map(|s| s.active_fraction);
        let faults = check_cell(&reference, enforced, monolithic, true);
        assert!(faults.is_empty(), "tau0={tau0} D={d}: {faults:?}");
    }
}

fn logalytics() -> Topology {
    logalytics::synthesize(&logalytics::LogalyticsConfig::default(), LOGALYTICS_SEED).unwrap()
}

#[test]
fn accepts_the_dag_oracles_on_the_dag_grid() {
    let topo = logalytics();
    let net = topology_net(&topo);
    let b = EnforcedDagProblem::optimistic_backlog(&topo);
    for (tau0, d) in subsample() {
        let params = RtParams::new(tau0, d).unwrap();
        let reference = CellReference::compute(&net, &b, 1.0, 1.0, tau0, d);
        let enforced = EnforcedDagProblem::new(&topo, params, b.clone())
            .solve()
            .ok()
            .map(|s| s.active_fraction);
        let monolithic = MonolithicDagProblem::new(&topo, params, 1.0, 1.0)
            .solve()
            .ok()
            .map(|s| s.active_fraction);
        let faults = check_cell(&reference, enforced, monolithic, false);
        assert!(faults.is_empty(), "tau0={tau0} D={d}: {faults:?}");
    }
}

#[test]
fn rejects_the_fast_dag_search_at_the_named_cell() {
    // Grid cell (44, 11): τ0 ≈ 24.94, D ≈ 77,619.
    let (tau0s, ds) = RtParams::paper_grid(64, 64);
    let (tau0, d) = (tau0s[44], ds[11]);
    assert!((tau0 - 24.94).abs() < 0.01 && (d - 77_619.0).abs() < 1.0);
    let topo = logalytics();
    let net = topology_net(&topo);
    let params = RtParams::new(tau0, d).unwrap();
    let fast = MonolithicDagProblem::new(&topo, params, 1.0, 1.0)
        .solve_fast()
        .unwrap();
    let exact = MonolithicDagProblem::new(&topo, params, 1.0, 1.0)
        .solve()
        .unwrap();
    let (m, best) = Fig2::new(&net, 1.0, 1.0).scan(tau0, d).unwrap();
    assert_eq!(fast.block_size, 1008);
    assert_eq!((m, exact.block_size), (1386, 1386));
    assert!((best - 0.9809).abs() < 1e-4 && (fast.active_fraction - 0.9922).abs() < 1e-4);
    let b = EnforcedDagProblem::optimistic_backlog(&topo);
    let reference = CellReference::compute(&net, &b, 1.0, 1.0, tau0, d);
    let faults = check_cell(&reference, None, Some(fast.active_fraction), false);
    assert!(faults.contains(&CellFault::MonolithicValue), "{faults:?}");
}

#[test]
fn barrier_and_pav_agree_on_blast() {
    let net = chain_net(&rtsdf::blast::paper_pipeline());
    let b = SweepConfig::paper_blast().enforced_b;
    for (tau0, d) in subsample() {
        let fig1 = Fig1::new(&net, tau0, d, &b);
        match (fig1.solve_barrier(), fig1.solve_chain_pav()) {
            (Some(Fig1Optimum::Infeasible), None) => {}
            (Some(Fig1Optimum::Value { lower, upper }), Some((pav, _))) => assert!(
                pav >= lower * (1.0 - 1e-9) && pav <= upper * (1.0 + 1e-9),
                "tau0={tau0} D={d}: PAV {pav} outside barrier [{lower}, {upper}]"
            ),
            (a, b) => panic!("tau0={tau0} D={d}: barrier {a:?} vs PAV {b:?}"),
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&perfbench::END_TO_END));
    assert_eq!(listed("per_layer"), own(&perfbench::PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert_eq!(workloads, perfbench::workloads::WORKLOADS);
}
