//! `scenario-paper`: the paper-reproduction path, `Scenario::parse` plus
//! `run_scenario`, at the §6.4 view parameters (`view 40 18`).
//!
//! n = 2·10⁴ with 2 replicates; the bootstrap degree sits near the
//! degree-MC mean, so the uniform phase starts in steady state. Phases:
//! uniform 1 % loss; a two-region hard partition; uniform 5 % with churn;
//! victims with churn. Each distinct phase rate costs one degree-MC solve,
//! and every sweep cell replays the scenario from round 0.

use std::time::Instant;

use sandf_bench::scenario::{run_scenario, Scenario, MC_MEAN_TOLERANCE};
use sandf_markov::{DegreeMc, DegreeMcParams};
use sandf_obs::MetricsRegistry;

use crate::report::{median, rate};
use crate::Ctx;

pub const NODES: usize = 20_000;
const REPLICATES: usize = 2;
const BURN_IN: usize = 10;
const PHASE_ROUNDS: usize = 30;
/// Short enough that the degrees are still far from the chain's
/// prediction at the partition's marginal rate when the phase ends.
const PARTITION_ROUNDS: usize = 10;
/// Set-up samples each time a batch of parses (one parse takes
/// microseconds, too short to time alone). Batches repeat for a fixed
/// wall-clock window before `run_scenario` and again after it: a parse
/// runs 1.6 times slower on a vCPU whose sibling is busy, and that state
/// lasts for seconds, so one window catches one state while two windows
/// far apart in the run usually catch both.
const PARSES_PER_SETUP: usize = 1000;
const SETUP_WINDOW_S: f64 = 0.5;

/// Parse batches for one window; returns the last parse and appends the
/// per-parse time of each batch to `setups`.
fn parse_window(ctx: &mut Ctx, text: &str, setups: &mut Vec<f64>) -> Scenario {
    let mut scenario = None;
    let window = Instant::now();
    while scenario.is_none() || window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        let t = Instant::now();
        let open = ctx.tracer.open("scenario.parse");
        for _ in 0..PARSES_PER_SETUP {
            scenario = Some(Scenario::parse(text).expect("the benchmark spec parses"));
        }
        ctx.tracer.close(open);
        setups.push(t.elapsed().as_secs_f64() / PARSES_PER_SETUP as f64);
    }
    scenario.expect("at least one parse")
}

pub fn spec(seed: u64) -> String {
    format!(
        "scenario paper-6-4\n\
         n {NODES}\n\
         view 40 18\n\
         degree 26\n\
         replicates {REPLICATES}\n\
         seed {seed}\n\
         burn_in {BURN_IN}\n\
         \n\
         phase {PHASE_ROUNDS} uniform 0.01\n\
         phase {PARTITION_ROUNDS} partition 2 1 0.01\n\
         phase {PHASE_ROUNDS} uniform 0.05\n\
         churn 200 200\n\
         phase {PHASE_ROUNDS} victims 200 0.9 0.01\n\
         churn 200 200\n"
    )
}

/// Engine threads per replicate. The sweep runs one replicate at a time
/// (`SANDF_SWEEP_THREADS=1`) on one engine thread: at n = 2·10⁴ a round is
/// too short to gain from a second thread, and spawning one per round
/// phase makes the wall time hostage to the host's vCPU wake-ups.
const ENGINE_THREADS: usize = 1;

pub fn run(ctx: &mut Ctx) -> f64 {
    let text = spec(ctx.seed);
    let mut setups = Vec::new();
    let scenario = parse_window(ctx, &text, &mut setups);

    let registry = MetricsRegistry::new();
    let t = Instant::now();
    let report = ctx
        .tracer
        .span("scenario.run_scenario", || run_scenario(&scenario, ENGINE_THREADS, &registry));
    let scenario_s = t.elapsed().as_secs_f64();
    parse_window(ctx, &text, &mut setups);

    // Output checks on the envelope report.
    let r = &mut ctx.report;
    for row in &report.outcomes {
        let verdict = row.within_envelope(MC_MEAN_TOLERANCE);
        let gap = row.mc_gap().map_or("-".to_string(), |g| format!("{g:.3}"));
        let detail = format!(
            "mean_in {:.3} ± {:.3}, mc_mean {:?}, gap {gap}",
            row.mean_in.mean, row.mean_in.ci95, row.mc_mean
        );
        match row.fault {
            "uniform" if row.phase == 0 => {
                r.check(
                    "uniform phase inside the degree-MC envelope",
                    verdict == Some(true),
                    detail,
                );
            }
            "partition" => {
                r.check("partition phase outside the envelope", verdict == Some(false), detail);
            }
            _ => {}
        }
        if let Some(bound) = row.decay_bound {
            r.check(
                format!("phase {} ({}): stale_frac ≤ Lemma 6.10 ceiling", row.phase, row.fault),
                row.stale_frac.mean <= bound,
                format!("stale {:.5} against {bound:.5}", row.stale_frac.mean),
            );
        }
    }
    let churn_phases = scenario.phases.iter().filter(|p| p.churn.is_some()).count();
    let bounded = report.outcomes.iter().filter(|o| o.decay_bound.is_some()).count();
    r.check(
        "every churn phase carries a decay ceiling",
        bounded == churn_phases,
        format!("{bounded} of {churn_phases}"),
    );

    let counter = |name: &str| registry.counter_value(name).unwrap_or(0) as f64;
    let sim_rounds = counter("sim.fault.rounds");
    let phase_rounds: usize = scenario.phases.iter().map(|p| p.rounds).sum();
    let report_rounds = (phase_rounds * scenario.replicates) as f64;
    let cells = (scenario.phases.len() * scenario.replicates) as f64;
    let burn_in_rounds = cells * scenario.burn_in as f64;
    let actions = (sim_rounds + burn_in_rounds) * scenario.n as f64;

    let r = &mut ctx.report;
    r.e2e("setup_s", median(&setups), setups.len());
    r.e2e("actions_per_s", actions / scenario_s, 1);
    r.e2e("job_s", scenario_s, 1);
    r.named("scenario_s", scenario_s, "s", 1);

    r.layer("scenario.sim_rounds", sim_rounds);
    r.layer("scenario.report_rounds", report_rounds);
    r.layer("scenario.replay_ratio", sim_rounds / report_rounds);
    r.layer("scenario.churn_leaves", counter("sim.fault.churn_leaves"));
    r.layer("scenario.churn_joins", counter("sim.fault.churn_joins"));
    r.layer("scenario.retargets", counter("sim.fault.victim_retargets"));

    if ctx.traced() {
        // The scenario memoises its solves privately; time the same solves
        // (one per distinct phase rate) through the public API instead.
        let mut rates: Vec<f64> =
            scenario.phases.iter().map(|p| p.fault.effective_rate(scenario.n)).collect();
        rates.sort_by(f64::total_cmp);
        rates.dedup();
        let mut solves = Vec::new();
        let (mut states, mut iterations) = (0.0, 0.0);
        for rate in &rates {
            let t = Instant::now();
            let mc = ctx.tracer.span("markov.solve", || {
                DegreeMc::solve(DegreeMcParams::new(scenario.config(), *rate))
            });
            solves.push(t.elapsed().as_secs_f64());
            if let Ok(mc) = mc {
                states = mc.states().len() as f64;
                iterations += mc.fixed_point_iterations() as f64;
            }
        }
        let solve_total: f64 = solves.iter().sum();
        let r = &mut ctx.report;
        r.layer("markov.solves_per_s", rate(median(&solves)));
        r.layer("markov.solves", solves.len() as f64);
        r.layer("markov.states", states);
        r.layer("markov.iterations", iterations);
        // One sweep worker runs the cells back to back, then the report
        // solves; the cells share what is left.
        r.layer("sweep.cells_per_s", cells * rate(scenario_s - solve_total));
    }
    println!(
        "# scenario-paper: {} phases × {} replicates in {scenario_s:.3}s, {sim_rounds} simulated \
         rounds for {report_rounds} reported",
        scenario.phases.len(),
        scenario.replicates
    );
    print!("{}", prefix_lines(&report.to_tsv(MC_MEAN_TOLERANCE)));
    // The par arena of one replicate plus the 558-state chain.
    crate::workloads::arena_mib(NODES, scenario.config()) + 0.1
}

fn prefix_lines(text: &str) -> String {
    text.lines().map(|l| format!("# {l}\n")).collect()
}
