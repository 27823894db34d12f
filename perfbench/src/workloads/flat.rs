//! `membership-flat`: the single-threaded arena engine at n = 2·10⁶.
//!
//! Bootstrap from `topology::random_iter` (d0 = 8), then whole membership
//! rounds under 1 % uniform loss for the run's time budget. No rumor,
//! threads, Markov chain or sockets run here.

use std::time::Instant;

use sandf_core::NodeId;
use sandf_sim::{FlatSimulation, SimStats, UniformLoss};

use super::{arena_mib, bootstrap, sf_config, TimedTotals, LOSS};
use crate::report::{median, quantile, rate};
use crate::Ctx;

pub const NODES: usize = 2_000_000;
const ENGINES: usize = 3;
const MIN_ROUNDS: usize = 2;

/// One set-up: the seeded bootstrap drained into a fresh engine.
fn set_up(ctx: &mut Ctx, totals: &TimedTotals) -> (FlatSimulation<UniformLoss>, f64) {
    let before = totals.spent.get();
    let t = Instant::now();
    let open = ctx.tracer.open("flat.new");
    let sim = FlatSimulation::new(
        bootstrap(NODES, ctx.seed, ctx.traced(), totals),
        UniformLoss::new(LOSS).expect("legal loss"),
        ctx.seed,
    );
    ctx.tracer.aggregate("topology.random_iter", totals.spent.get() - before);
    ctx.tracer.close(open);
    (sim, t.elapsed().as_secs_f64())
}

/// Rounds on one engine until `budget_s` is spent; returns the round
/// times and the engine's counters over them, after the output checks.
fn measure(
    ctx: &mut Ctx,
    sim: &mut FlatSimulation<UniformLoss>,
    budget_s: f64,
) -> (Vec<f64>, SimStats) {
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        ctx.tracer.span("flat.round", || sim.round());
        rounds.push(t.elapsed().as_secs_f64());
    }
    let stats = *sim.stats();

    // Output checks, outside the timed loop.
    let config = sim.config();
    let expected = (NODES * rounds.len()) as u64;
    let r = &mut ctx.report;
    r.check(
        "actions = n·rounds",
        stats.actions == expected,
        format!("{} actions over {} rounds of {NODES}", stats.actions, rounds.len()),
    );
    r.check(
        "actions = self_loops + sent",
        stats.actions == stats.self_loops + stats.sent - stats.replies,
        format!("{} = {} + {}", stats.actions, stats.self_loops, stats.sent),
    );
    let initiated =
        ctx.tracer.span("flat.aggregate_node_stats", || sim.aggregate_node_stats()).initiated;
    ctx.report.check(
        "aggregate_node_stats().initiated = n·rounds",
        initiated == expected,
        format!("{initiated} initiated"),
    );
    let (d_l, s) = (config.lower_threshold(), config.view_size());
    let bad = ctx.tracer.span("flat.out_degree_of", || {
        (0..NODES as u64)
            .filter(|&i| match sim.out_degree_of(NodeId::new(i)) {
                Some(d) => d % 2 == 1 || d < d_l || d > s,
                None => true,
            })
            .count()
    });
    ctx.report.check(
        "every out-degree even and in [d_L, s] (Obs 5.1)",
        bad == 0,
        format!("{bad} of {NODES} nodes outside the even band [{d_l}, {s}]"),
    );
    (rounds, stats)
}

pub fn run(ctx: &mut Ctx) -> f64 {
    let config = sf_config();
    let totals = TimedTotals::default();
    // The budget is split over several engines, each built afresh: a
    // process's speed on this DRAM-bound loop depends on where its arena
    // lands, so rounds on several arenas average that out, and the set-up
    // samples span the run.
    let mut setups = Vec::with_capacity(ENGINES);
    let mut rounds = Vec::new();
    let mut stats = SimStats::default();
    let mut loop_s = 0.0;
    for _ in 0..ENGINES {
        let (mut sim, secs) = set_up(ctx, &totals);
        setups.push(secs);
        let t = Instant::now();
        let (times, delta) = measure(ctx, &mut sim, ctx.seconds / ENGINES as f64);
        loop_s += times.iter().sum::<f64>();
        println!("# engine rounds (s): {times:?} ({:.3}s with checks)", t.elapsed().as_secs_f64());
        rounds.extend(times);
        for (sum, part) in [
            (&mut stats.actions, delta.actions),
            (&mut stats.self_loops, delta.self_loops),
            (&mut stats.sent, delta.sent),
            (&mut stats.lost, delta.lost),
            (&mut stats.stored, delta.stored),
            (&mut stats.deleted, delta.deleted),
            (&mut stats.duplications, delta.duplications),
        ] {
            *sum += part;
        }
        ctx.tracer.span("flat.drop", || drop(sim));
    }
    ctx.timed_calls += totals.calls.get();

    let actions = stats.actions as f64;
    let n_rounds = rounds.len();
    println!("# set-up samples (s): {setups:?}");
    let r = &mut ctx.report;
    r.e2e("setup_s", median(&setups), ENGINES);
    r.e2e("actions_per_s", actions / loop_s, n_rounds);
    // Mean, not median: the host's speed shifts for seconds at a time, so
    // a run's round times fall into a fast and a slow group and their
    // median jumps between the groups from run to run.
    r.e2e("job_s", loop_s / n_rounds as f64, n_rounds);
    r.named("steps_per_s", actions / loop_s, "1/s", n_rounds);

    r.layer(
        "topology.nodes_per_s",
        (NODES * ENGINES) as f64 * rate(totals.spent.get().as_secs_f64()),
    );
    r.layer("topology.arena_mib", arena_mib(NODES, config));
    r.layer("flat.rounds_per_s", rate(median(&rounds)));
    r.layer("flat.round_max_over_p50", quantile(&rounds, 1.0) / median(&rounds));
    r.layer("flat.rounds", n_rounds as f64);
    r.layer("flat.actions_per_us", actions / (loop_s * 1e6));
    r.layer("flat.actions", actions);
    r.layer("flat.self_loops", stats.self_loops as f64);
    r.layer("flat.sent", stats.sent as f64);
    r.layer("flat.lost", stats.lost as f64);
    r.layer("flat.stored", stats.stored as f64);
    r.layer("flat.deleted", stats.deleted as f64);
    r.layer("flat.duplications", stats.duplications as f64);
    r.layer("flat.useful_ratio", stats.sent as f64 / actions);
    r.layer("flat.self_loop_share", stats.self_loops as f64 / actions);
    println!(
        "# membership-flat: n={NODES} rounds={n_rounds} self-loop share {:.3} (initiator picked an empty slot)",
        stats.self_loops as f64 / actions
    );
    arena_mib(NODES, config)
}
