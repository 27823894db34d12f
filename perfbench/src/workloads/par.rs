//! `dissemination-par`: a push rumor over the sharded engine's live views.
//!
//! `ParSimulation` at 2 threads and n = 5·10⁵ is bootstrapped and burned
//! in; then a fanout-1 push rumor (max_age 255) under 1 % rumor loss is
//! seeded at the smallest live id and spread, one membership round and
//! one rumor step at a time, until 99 % of live nodes hold it. Spreads
//! repeat over the same engine until the time budget is spent.

use std::time::Instant;

use sandf_obs::MetricsRegistry;
use sandf_sim::{
    doerr_spread_prediction, BroadcastConfig, BroadcastLayer, Engine, ParSimulation, RumorChannel,
    UniformLoss,
};

use super::{arena_mib, bootstrap, sf_config, TimedTotals, LOSS};
use crate::machine::{nproc, process_cpu_s};
use crate::report::{median, quantile, rate};
use crate::Ctx;

pub const NODES: usize = 500_000;
const BURN_IN: usize = 10;
const SETUPS: usize = 3;
/// Rounds allowed above the Doerr et al. `log₂ n + ln n` prediction.
const SPREAD_MARGIN: f64 = 4.0;
/// A spread that has not reached 99 % by then has failed.
const MAX_SPREAD_ROUNDS: u64 = 200;

pub fn threads() -> usize {
    nproc().min(2)
}

/// One set-up: the seeded bootstrap drained into a fresh engine, then
/// the burn-in rounds.
fn set_up(ctx: &mut Ctx, totals: &TimedTotals) -> (ParSimulation<UniformLoss>, f64) {
    let before = totals.spent.get();
    let t = Instant::now();
    let open = ctx.tracer.open("par.new");
    let mut sim = ParSimulation::new(
        bootstrap(NODES, ctx.seed, ctx.traced(), totals),
        UniformLoss::new(LOSS).expect("legal loss"),
        ctx.seed,
        threads(),
    );
    ctx.tracer.aggregate("topology.random_iter", totals.spent.get() - before);
    ctx.tracer.close(open);
    for _ in 0..BURN_IN {
        ctx.tracer.span("par.round", || sim.round());
    }
    (sim, t.elapsed().as_secs_f64())
}

pub fn run(ctx: &mut Ctx) -> f64 {
    let threads = threads();
    let traced = ctx.traced();
    let totals = TimedTotals::default();
    // Set-up is timed once before the spreads and again after them, so
    // the median spans the run instead of one moment of host load.
    let (mut sim, first) = set_up(ctx, &totals);
    let mut setups = vec![first];
    let registry = MetricsRegistry::new();
    if traced {
        sim.attach_profiler(&registry);
    }

    let prediction = doerr_spread_prediction(NODES);
    let mut spreads: Vec<f64> = Vec::new();
    let mut to_99: Vec<f64> = Vec::new();
    let mut msgs: Vec<f64> = Vec::new();
    let mut par_rounds: Vec<f64> = Vec::new();
    let mut steps: Vec<f64> = Vec::new();
    let mut totals_b = sandf_sim::BroadcastStats::default();
    let mut actions = 0u64;
    let cpu_start = process_cpu_s();
    let loop_start = Instant::now();
    let mut spread_index = 0u64;
    while spreads.is_empty() || loop_start.elapsed().as_secs_f64() < ctx.seconds {
        let config = BroadcastConfig::push(1, u8::MAX);
        let channel = RumorChannel::Uniform { rate: LOSS };
        let mut layer = BroadcastLayer::with_channel(ctx.seed ^ spread_index, config, channel);
        let origin = ctx.tracer.span("par.live_ids", || Engine::live_ids(&sim)).into_iter().min();
        layer.seed_rumor_at(origin.expect("live node"));
        let t = Instant::now();
        while layer.coverage() < 0.99 && layer.rounds() < MAX_SPREAD_ROUNDS {
            let live = sim.len() as u64;
            let r = Instant::now();
            ctx.tracer.span("par.round", || sim.round());
            par_rounds.push(r.elapsed().as_secs_f64());
            let b = Instant::now();
            ctx.tracer.span("broadcast.step", || layer.step(&sim));
            steps.push(b.elapsed().as_secs_f64());
            actions += live;
        }
        spreads.push(t.elapsed().as_secs_f64());
        let report = layer.report();
        let s = report.stats;
        let tag = format!("spread {spread_index}");
        let r = &mut ctx.report;
        r.check(
            format!("{tag}: coverage ≥ 0.99"),
            report.coverage >= 0.99,
            format!("coverage {:.5} after {} rounds", report.coverage, report.rounds),
        );
        let rounds = report.to_99.unwrap_or(u64::MAX);
        r.check(
            format!("{tag}: rounds_to_99 ≤ log₂n + ln n + {SPREAD_MARGIN}"),
            (rounds as f64) <= prediction + SPREAD_MARGIN,
            format!("{rounds} rounds against a prediction of {prediction:.2}"),
        );
        r.check(
            format!("{tag}: rumor ledger balances"),
            s.sent == s.lost + s.dead_letters + s.delivered
                && s.pull_requests == 0
                && report.informed <= report.live,
            format!(
                "sent {} = lost {} + dead {} + delivered {}; informed {} of {} live",
                s.sent, s.lost, s.dead_letters, s.delivered, report.informed, report.live
            ),
        );
        to_99.push(rounds as f64);
        msgs.push(report.messages_per_node);
        totals_b.sent += s.sent;
        totals_b.lost += s.lost;
        totals_b.delivered += s.delivered;
        totals_b.duplicates += s.duplicates;
        spread_index += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_start;
    ctx.tracer.span("par.drop", || drop(sim));
    while setups.len() < SETUPS {
        let (extra, secs) = set_up(ctx, &totals);
        setups.push(secs);
        ctx.tracer.span("par.drop", || drop(extra));
    }
    ctx.timed_calls += totals.calls.get();

    let n_spreads = spreads.len();
    println!("# set-up samples (s): {setups:?}");
    let r = &mut ctx.report;
    r.e2e("setup_s", median(&setups), SETUPS);
    r.e2e("actions_per_s", actions as f64 / loop_s, par_rounds.len());
    r.e2e("job_s", median(&spreads), n_spreads);
    r.named("steps_per_s", actions as f64 / loop_s, "1/s", par_rounds.len());
    r.named("time_to_99_s", median(&spreads), "s", n_spreads);
    r.named("rounds_to_99", median(&to_99), "rounds", n_spreads);
    r.named("msgs_per_node", median(&msgs), "count", n_spreads);

    r.layer(
        "topology.nodes_per_s",
        (NODES * SETUPS) as f64 * rate(totals.spent.get().as_secs_f64()),
    );
    r.layer("topology.arena_mib", arena_mib(NODES, sf_config()));
    r.layer("par.rounds_per_s", rate(median(&par_rounds)));
    r.layer("par.rounds", par_rounds.len() as f64);
    r.layer("par.cpu_util", cpu_s / (loop_s * threads as f64));
    if traced {
        // Profiled phase time as a share of the par rounds' wall time.
        let round_s: f64 = par_rounds.iter().sum();
        let share = |name: &str| {
            registry.histogram(name, sandf_obs::duration_buckets()).sum() as f64 * 1e-9 / round_s
        };
        r.layer("par.action_share", share("sim.profile.par.action_ns"));
        r.layer("par.merge_share", share("sim.profile.par.merge_ns"));
        r.layer("par.deliver_share", share("sim.profile.par.deliver_ns"));
        r.layer("par.shard_imbalance", registry.gauge("sim.par.shard_imbalance").get());
    }
    r.layer("broadcast.steps_per_s", rate(median(&steps)));
    r.layer("broadcast.step_max_over_p50", quantile(&steps, 1.0) / median(&steps));
    r.layer("broadcast.steps", steps.len() as f64);
    r.layer("broadcast.sent", totals_b.sent as f64);
    r.layer("broadcast.lost", totals_b.lost as f64);
    r.layer("broadcast.delivered", totals_b.delivered as f64);
    r.layer("broadcast.duplicates", totals_b.duplicates as f64);
    r.layer(
        "broadcast.useful_ratio",
        (totals_b.delivered - totals_b.duplicates) as f64 / totals_b.sent.max(1) as f64,
    );
    r.layer("broadcast.rounds_to_99", median(&to_99));
    r.layer("broadcast.msgs_per_node", median(&msgs));
    // Engine arena plus the rumor arena (id, age, epoch and hash-map
    // entry per node, about 40 B).
    arena_mib(NODES, sf_config()) + (NODES * 40) as f64 / crate::machine::MIB
}
