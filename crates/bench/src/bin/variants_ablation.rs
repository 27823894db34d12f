//! Ablation of the Section 5 optimizations the paper deferred to future
//! work: vanilla S&F vs. undeletion, replace-when-full, and batched sends,
//! under identical loss schedules, each run through the `Engine` trait on
//! the flat engine.
//!
//! The design questions this answers (DESIGN.md, experiment B2):
//!
//! * does *undeletion* reduce neighbor dependence compared to duplication,
//!   as the paper's motivation for avoiding in-view replication suggests?
//! * does *replace-when-full* change the degree balance (it trades
//!   deletion-loss for displacement churn)?
//! * how much does *batching* coarsen the degree distribution (moves of
//!   ±(b+1) instead of ±2)?

use sandf_bench::sweeps::{ring_views, with_protocol, ProtocolJob};
use sandf_bench::{fmt, header, note};
use sandf_core::{NodeId, SfConfig};
use sandf_graph::DegreeStats;
use sandf_sim::{Engine, FlatSimulation, ProtocolBehavior, UniformLoss};

const N: usize = 256;
const ROUNDS: usize = 400;

/// One ablation run: `ROUNDS` lossy rounds from a ring bootstrap, then
/// the row's metrics.
struct Ablation {
    config: SfConfig,
    views: Vec<(NodeId, Vec<NodeId>)>,
    loss: f64,
    seed: u64,
}

impl ProtocolJob for Ablation {
    type Output = Vec<String>;

    fn run<B: ProtocolBehavior>(self, behavior: B) -> Vec<String> {
        let loss = UniformLoss::new(self.loss).expect("valid rate");
        let mut sim =
            FlatSimulation::from_views(behavior, self.config, self.views, loss, self.seed);
        sim.run_rounds(ROUNDS);
        let graph = sim.graph();
        let stats = sim.stats();
        let sent = stats.sent.max(1) as f64;
        vec![
            fmt(DegreeStats::from_samples(&graph.out_degrees()).mean),
            fmt(DegreeStats::from_samples(&graph.in_degrees()).std_dev()),
            fmt(1.0 - Engine::dependence(&sim).independent_fraction()),
            graph.edge_count().to_string(),
            fmt(stats.duplications as f64 / sent),
            fmt(stats.deleted as f64 / sent),
            graph.is_weakly_connected().to_string(),
        ]
    }
}

fn main() {
    note("Section 5 optimization ablation, n=256, 400 rounds, s=16, d_L=6 (batched: s=24)");
    header(&[
        "variant",
        "loss",
        "mean_out",
        "in_std",
        "dependent_frac",
        "total_ids",
        "compensation_rate",
        "displacement_rate",
        "connected",
    ]);
    let config = SfConfig::new(16, 6).expect("legal");
    let batched_config = SfConfig::new(24, 6).expect("legal");
    let rows = [
        ("vanilla", "sandf", config, 10, 0),
        ("undelete", "undelete", config, 10, 10),
        ("replace", "replace", config, 10, 20),
        ("batched_b3", "batched", batched_config, 12, 30),
    ];
    for (k, &loss) in [0.0, 0.01, 0.05, 0.1].iter().enumerate() {
        for (label, protocol, config, degree, salt) in rows {
            let job = Ablation {
                config,
                views: ring_views(N, degree),
                loss,
                seed: 1000 + k as u64 + salt,
            };
            println!("{label}\t{}\t{}", fmt(loss), with_protocol(protocol, job).join("\t"));
        }
    }
    println!();
    note("reading guide: dependent_frac counts tagged entries, in-view duplicates beyond the");
    note("first, and self-edges; compare variants within a loss row, not against Lemma 7.9");
}
