//! Conformance suite for the engine/protocol matrix: every protocol in
//! the zoo (S&F, the three Section 3.1 baselines, and the three Section 5
//! variants) is written once as a [`ProtocolBehavior`] and runs on all
//! three engines. Each (engine, protocol) pair is checked for
//!
//! 1. **lockstep** — the classic reference engine and the flat arena
//!    engine are seed-for-seed byte-identical for every protocol: equal
//!    [`SimStats`], live order, per-node counters, and visible views after
//!    every round, under uniform and bursty loss, delayed delivery with
//!    replies in flight, churn, and permuted rounds;
//! 2. **degree bounds** — outdegrees never exceed the slot capacity `s`,
//!    and for the S&F family (variants) the full Observation 5.1 band
//!    (even, inside `[d_L, s]`) holds;
//! 3. **id provenance** — views only ever hold ids the system assigned
//!    (a forged id would expose e.g. a sentinel leak in the arena slot
//!    encoding);
//! 4. **statistical agreement** — for shuffle and push-pull, the par
//!    engine's phase-split rounds agree with the classic reference within
//!    overlapping 95% confidence bands over seed replicates;
//! 5. **Section 3.1 drainage ordering** at n = 10⁴ — the shuffle
//!    population drains under loss while S&F holds its band.

use proptest::collection::vec;
use proptest::prelude::*;
use sandf::baselines::behaviors::{PushOnlyBehavior, PushPullBehavior, ShuffleBehavior};
use sandf::sim::DelayModel;
use sandf::variants::behaviors::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};
use sandf::{
    Engine, FaultModel, FlatSimulation, GilbertElliott, NodeId, ParSimulation, ProtocolBehavior,
    SfBehavior, SfConfig, SimStats, Simulation, UniformLoss,
};

/// Ring bootstrap: node `i`'s view is the next `k` ids around the ring.
fn ring_views(n: usize, k: usize) -> Vec<(NodeId, Vec<NodeId>)> {
    (0..n as u64)
        .map(|i| {
            let view: Vec<NodeId> =
                (1..=k as u64).map(|d| NodeId::new((i + d) % n as u64)).collect();
            (NodeId::new(i), view)
        })
        .collect()
}

fn loss(rate: f64) -> UniformLoss {
    UniformLoss::new(rate).expect("valid rate")
}

/// Degree-bound + id-provenance schedule for one (engine, protocol)
/// pair. `band` additionally enforces the Observation 5.1 band (even
/// degrees in `[d_L, s]`) — on for the S&F variants, off for the
/// baselines (which obey only the capacity bound).
fn bounds_hold<E: Engine>(
    mut sim: E,
    n: usize,
    config: SfConfig,
    leaves: &[u8],
    rounds: usize,
    band: bool,
) -> Result<(), TestCaseError> {
    let mut live: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
    for &x in leaves {
        sim.run_rounds(rounds);
        if live.len() > n / 2 {
            let id = live[usize::from(x) % live.len()];
            prop_assert!(sim.leave(id), "{} should have been live", id);
            live.retain(|&v| v != id);
        }
        let graph = sim.graph();
        for d in graph.out_degrees() {
            prop_assert!(d <= config.view_size(), "outdegree {} exceeds s", d);
            if band {
                prop_assert_eq!(d % 2, 0, "odd outdegree");
                prop_assert!(d >= config.lower_threshold(), "outdegree {} below d_L", d);
            }
        }
        for &u in graph.ids() {
            for v in graph.out_neighbors(u).expect("id comes from the graph") {
                prop_assert!(
                    v.as_u64() < n as u64,
                    "view of {} holds {}, an id the system never assigned",
                    u,
                    v
                );
            }
        }
    }
    Ok(())
}

const N: usize = 24;

fn zoo_config() -> SfConfig {
    SfConfig::new(8, 2).expect("legal config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Baselines × {classic, flat, par}: capacity bound + provenance
    /// under random loss rates, churn (leaves), and round counts.
    #[test]
    fn baselines_respect_bounds_on_both_engines(
        leaves in vec(any::<u8>(), 1..5),
        rate_milli in 0..300u32,
        seed in any::<u64>(),
    ) {
        let config = zoo_config();
        let l = loss(f64::from(rate_milli) / 1000.0);
        let views = ring_views(N, 4);
        bounds_hold(
            Simulation::from_views(PushOnlyBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            FlatSimulation::from_views(PushOnlyBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            ParSimulation::from_views(PushOnlyBehavior, config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            Simulation::from_views(PushPullBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            FlatSimulation::from_views(PushPullBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            ParSimulation::from_views(PushPullBehavior::new(3), config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            Simulation::from_views(ShuffleBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            FlatSimulation::from_views(ShuffleBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            ParSimulation::from_views(ShuffleBehavior::new(3), config, views, l, seed, 2),
            N, config, &leaves, 2, false,
        )?;
    }

    /// Variants × {classic, flat, par}: the full Observation 5.1 band
    /// (even degrees in `[d_L, s]`) plus provenance. Replace and undelete keep
    /// the vanilla two-slot draws; batched clears `b + 1` at a time with
    /// odd `b`, preserving parity.
    #[test]
    fn variants_respect_the_band_on_both_engines(
        leaves in vec(any::<u8>(), 1..5),
        rate_milli in 0..300u32,
        seed in any::<u64>(),
    ) {
        let config = zoo_config();
        let l = loss(f64::from(rate_milli) / 1000.0);
        let views = ring_views(N, 4);
        bounds_hold(
            Simulation::from_views(ReplaceBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            FlatSimulation::from_views(ReplaceBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            ParSimulation::from_views(ReplaceBehavior, config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            Simulation::from_views(UndeleteBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            FlatSimulation::from_views(UndeleteBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            ParSimulation::from_views(UndeleteBehavior, config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            Simulation::from_views(BatchedBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            FlatSimulation::from_views(BatchedBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            ParSimulation::from_views(BatchedBehavior::new(3), config, views, l, seed, 2),
            N, config, &leaves, 2, true,
        )?;
    }
}

// ---------------------------------------------------------------------
// Lockstep: the classic reference engine vs. the flat arena engine.
// ---------------------------------------------------------------------

const LOCK_N: usize = 24;

fn lockstep_config() -> SfConfig {
    SfConfig::new(12, 4).expect("legal config")
}

/// Asserts full observable equality of the two engines: stats, in-flight
/// count, live order, and every live node's visible view (slot positions,
/// ids, dependence tags) and counters.
fn assert_lockstep<L: FaultModel, B: ProtocolBehavior>(
    label: &str,
    classic: &Simulation<L, B>,
    flat: &FlatSimulation<L, B>,
) {
    assert_eq!(classic.stats(), flat.stats(), "{label}: SimStats diverged");
    assert_eq!(classic.in_flight(), flat.in_flight(), "{label}: in-flight count diverged");
    assert_eq!(classic.live_ids(), flat.live_ids().as_slice(), "{label}: live order diverged");
    for &id in classic.live_ids() {
        assert_eq!(classic.node_view(id), flat.node_view(id), "{label}: view of {id} diverged");
        assert_eq!(classic.node_stats(id), flat.node_stats(id), "{label}: stats of {id} diverged");
    }
}

/// Both engines over the same behavior, ring views, fault model, and seed.
fn engine_pair<L: FaultModel + Clone, B: ProtocolBehavior>(
    behavior: &B,
    fault: &L,
    seed: u64,
) -> (Simulation<L, B>, FlatSimulation<L, B>) {
    let views = ring_views(LOCK_N, 6);
    let config = lockstep_config();
    (
        Simulation::from_views(behavior.clone(), config, views.clone(), fault.clone(), seed),
        FlatSimulation::from_views(behavior.clone(), config, views, fault.clone(), seed),
    )
}

/// Runs one behavior through every lockstep schedule, asserting equality
/// after every round (or step, under delay). Returns the delayed run's
/// final stats so callers can check that replies really were in flight.
fn lockstep_suite<B: ProtocolBehavior>(behavior: B) -> SimStats {
    for seed in [1u64, 2009] {
        let (mut classic, mut flat) = engine_pair(&behavior, &loss(0.1), seed);
        for round in 0..30 {
            classic.round();
            flat.round();
            assert_lockstep(&format!("uniform seed {seed} round {round}"), &classic, &flat);
        }
    }

    let bursty = GilbertElliott::new(0.05, 0.2, 0.01, 0.5).expect("valid chain");
    let (mut classic, mut flat) = engine_pair(&behavior, &bursty, 7);
    for round in 0..30 {
        classic.round();
        flat.round();
        assert_lockstep(&format!("bursty round {round}"), &classic, &flat);
    }

    let (mut classic, mut flat) = engine_pair(&behavior, &loss(0.05), 11);
    for round in 0..20 {
        let victim = classic.live_ids()[round % classic.len()];
        assert!(classic.leave(victim).is_some() && flat.leave(victim).is_some());
        let sponsor = classic.live_ids()[0];
        assert_eq!(classic.join_via(sponsor), flat.join_via(sponsor), "joins diverged");
        classic.round();
        flat.round();
        assert_lockstep(&format!("churn round {round}"), &classic, &flat);
    }
    assert!(classic.stats().dead_letters > 0, "churn should produce dead letters");

    let (mut classic, mut flat) = engine_pair(&behavior, &loss(0.05), 13);
    for round in 0..20 {
        classic.round_permuted();
        flat.round_permuted();
        assert_lockstep(&format!("permuted round {round}"), &classic, &flat);
    }

    let delay = DelayModel::UniformSteps { max: 40 };
    let (classic, flat) = engine_pair(&behavior, &loss(0.05), 17);
    let (mut classic, mut flat) = (classic.delayed(delay), flat.delayed(delay));
    let mut peak_in_flight = 0;
    for step in 0..1_500 {
        assert_eq!(classic.step(), flat.step(), "delayed step {step} reports diverged");
        peak_in_flight = peak_in_flight.max(flat.in_flight());
        if step % 24 == 0 {
            assert_lockstep(&format!("delayed step {step}"), &classic, &flat);
        }
    }
    assert!(peak_in_flight > 0, "no message was ever in flight");
    classic.settle();
    flat.settle();
    assert_eq!(flat.in_flight(), 0);
    assert_lockstep("settled", &classic, &flat);
    *flat.stats()
}

#[test]
fn sf_runs_in_lockstep_on_classic_and_flat() {
    lockstep_suite(SfBehavior);
}

#[test]
fn push_only_runs_in_lockstep_on_classic_and_flat() {
    lockstep_suite(PushOnlyBehavior);
}

#[test]
fn push_pull_runs_in_lockstep_on_classic_and_flat() {
    let delayed = lockstep_suite(PushPullBehavior::new(3));
    assert!(delayed.replies > 0, "delayed pull replies never routed");
}

#[test]
fn shuffle_runs_in_lockstep_on_classic_and_flat() {
    let delayed = lockstep_suite(ShuffleBehavior::new(3));
    assert!(delayed.replies > 0, "delayed shuffle replies never routed");
}

#[test]
fn replace_runs_in_lockstep_on_classic_and_flat() {
    lockstep_suite(ReplaceBehavior);
}

#[test]
fn undelete_runs_in_lockstep_on_classic_and_flat() {
    lockstep_suite(UndeleteBehavior);
}

#[test]
fn batched_runs_in_lockstep_on_classic_and_flat() {
    lockstep_suite(BatchedBehavior::new(3));
}

/// Tombstones are protocol state: every measurement reader — the
/// dependence report included — sees exactly the slots the graph
/// snapshot records, on every engine.
#[test]
fn undelete_tombstones_stay_hidden_from_every_reader() {
    fn check<E: Engine>(label: &str, mut sim: E) {
        sim.run_rounds(30);
        let edges = sim.graph().edge_count();
        assert_eq!(sim.dependence().total_entries, edges, "{label}: dependence counts tombstones");
        let mut visited = 0;
        sim.for_each_live_view(&mut |_, view| visited += view.len());
        assert_eq!(visited, edges, "{label}: live views count tombstones");
    }
    let config = SfConfig::new(16, 6).expect("legal config");
    let views = ring_views(64, 10);
    let l = loss(0.05);
    check("classic", Simulation::from_views(UndeleteBehavior, config, views.clone(), l, 7));
    check("flat", FlatSimulation::from_views(UndeleteBehavior, config, views.clone(), l, 7));
    check("par", ParSimulation::from_views(UndeleteBehavior, config, views, l, 7, 2));
}

// ---------------------------------------------------------------------
// Statistical agreement: the classic reference vs. the par engine.
// ---------------------------------------------------------------------

/// Mean and 95% confidence half-width over replicates.
fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let k = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / k;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
    (mean, 1.96 * (var / k).sqrt())
}

fn assert_bands_overlap(label: &str, a: (f64, f64), b: (f64, f64), allowance: f64) {
    assert!(
        (a.0 - b.0).abs() <= a.1 + b.1 + allowance,
        "{label}: ci95 bands disjoint — {:.1}±{:.1} vs {:.1}±{:.1}",
        a.0,
        a.1,
        b.0,
        b.1
    );
}

const AGREE_N: usize = 400;
const AGREE_BOOT: usize = 6;
const AGREE_LOSS: f64 = 0.08;
const AGREE_SEEDS: u64 = 12;

/// Agreement runs use a roomy capacity (s = 16 for views of 6) and low
/// per-exchange mobility, so the statistic tracks the *protocol's* id
/// dynamics rather than scheduling artifacts. Par's phase-split round
/// (all sends, then all deliveries, then reply waves) is a documented
/// distinct statistical mode (see `par_statistics.rs`): under heavy slot
/// pressure or high per-round id mobility, its within-round ordering
/// differences dominate the comparison without any protocol drift.
fn agree_config() -> SfConfig {
    SfConfig::new(16, 2).expect("legal config")
}

/// Pinned phase-split bias allowance for par on the push-pull growth
/// statistic. The sequential engines' within-round delivery lets freshly
/// pushed ids attract more same-round traffic, skewing arrivals toward
/// full views (more capacity overwrites, fewer net inserts); par's phase
/// split spreads arrivals evenly. Measured bias ≈ 71 ids at these
/// parameters; pinned with headroom but tight enough that a real drift
/// (e.g. the ≈ 390-id gap a reply-size-3 run exposes) still fails.
const PAR_PUSH_PULL_ALLOWANCE: f64 = 150.0;

/// Total surviving id instances after `rounds` lossy rounds, per seed, on
/// the classic reference and on par.
fn classic_and_par_ids<B: ProtocolBehavior>(behavior: B, rounds: usize) -> (Vec<f64>, Vec<f64>) {
    let views = || ring_views(AGREE_N, AGREE_BOOT);
    let l = loss(AGREE_LOSS);
    let config = agree_config();
    (0..AGREE_SEEDS)
        .map(|seed| {
            let mut classic = Simulation::from_views(behavior.clone(), config, views(), l, seed);
            classic.run_rounds(rounds);
            let mut par = ParSimulation::from_views(behavior.clone(), config, views(), l, seed, 2);
            par.run_rounds(rounds);
            (classic.graph().edge_count() as f64, par.graph().edge_count() as f64)
        })
        .unzip()
}

/// Shuffle: par tracks the classic reference (total surviving id
/// instances after 12 lossy rounds, ci95 over 12 seeds) — strict overlap.
#[test]
fn shuffle_par_agrees_with_the_classic_reference() {
    let (classic, par) = classic_and_par_ids(ShuffleBehavior::new(2), 12);
    let c = mean_ci(&classic);
    assert_bands_overlap("shuffle classic vs par", c, mean_ci(&par), 0.0);
    // Sanity: the comparison is meaningful only if loss actually drained
    // ids (otherwise both trivially sit at the initial count).
    let initial = (AGREE_N * AGREE_BOOT) as f64;
    assert!(c.0 < initial * 0.95, "no drainage — the agreement check is vacuous");
}

/// Push-pull: the same comparison on the growth statistic (it only copies
/// ids, so the population grows toward capacity), with the pinned
/// phase-split allowance.
#[test]
fn push_pull_par_agrees_with_the_classic_reference() {
    let (classic, par) = classic_and_par_ids(PushPullBehavior::new(1), 4);
    let c = mean_ci(&classic);
    assert_bands_overlap("push-pull classic vs par", c, mean_ci(&par), PAR_PUSH_PULL_ALLOWANCE);
    let initial = (AGREE_N * AGREE_BOOT) as f64;
    assert!(c.0 > initial * 1.05, "no growth — the agreement check is vacuous");
}

/// Section 3.1 drainage ordering at n = 10⁴: under the same uniform
/// loss, the shuffle population loses a visible fraction of its ids
/// while S&F (whose compensation floor replenishes deletions) keeps its
/// total at or above the `d_L · n` band floor — and strictly above
/// shuffle. Runs on the flat engine, which makes n = 10⁴ cheap.
#[test]
fn drainage_ordering_holds_at_ten_thousand_nodes() {
    let n = 10_000;
    let config = zoo_config();
    let rate = 0.10;
    let rounds = 50;
    let initial = (n * 4) as f64;

    let mut shuffle = FlatSimulation::from_views(
        ShuffleBehavior::new(3),
        config,
        ring_views(n, 4),
        loss(rate),
        7,
    );
    shuffle.run_rounds(rounds);
    let shuffle_total = shuffle.graph().edge_count() as f64;

    let mut sf = FlatSimulation::from_views(SfBehavior, config, ring_views(n, 4), loss(rate), 7);
    sf.run_rounds(rounds);
    let sf_total = sf.graph().edge_count() as f64;

    assert!(
        shuffle_total < initial * 0.90,
        "shuffle should drain under {rate} loss: {shuffle_total} of {initial}"
    );
    assert!(
        sf_total >= (config.lower_threshold() * n) as f64,
        "S&F fell through the d_L band floor: {sf_total}"
    );
    assert!(
        sf_total > shuffle_total,
        "drainage ordering inverted: S&F {sf_total} ≤ shuffle {shuffle_total}"
    );
}
