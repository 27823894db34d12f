//! `service-udp`: the in-process daemon with n = 2000 nodes over loopback
//! UDP, driven through its HTTP endpoint.
//!
//! * Paced phase: a 14 ms round tick (about 143k offered actions/s, half
//!   the measured capacity) and one closed-loop HTTP client with a 1 ms
//!   think time sending 1000 control requests, alternating
//!   `POST /ctl/join?n=2` and `POST /ctl/leave?n=2`, with a `GET /metrics`
//!   scrape after every fourth.
//! * Saturated phase, in two halves, one before the paced phase and one
//!   after it: a fresh daemon with a 1 ms tick and no HTTP load each; the
//!   completed actions per second are the capacity.
//!
//! This is the only workload with sockets, the codec, the timer wheel, the
//! invariant checker and HTTP; it runs no arena engine.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sandf_daemon::{http_get, http_post, DaemonConfig, DaemonHandle};
use sandf_obs::MetricsRegistry;

use super::LOSS;
use crate::machine::thread_cpu_ns;
use crate::report::{median, quantile, rate};
use crate::trace::Tracer;
use crate::Ctx;

pub const NODES: usize = 2000;
const PACED_TICK: Duration = Duration::from_millis(14);
const SATURATED_TICK: Duration = Duration::from_millis(1);
const CTL_REQUESTS: usize = 1000;
const SCRAPE_EVERY: usize = 4;
const JOIN_PATH: &str = "/ctl/join?n=2";
const LEAVE_PATH: &str = "/ctl/leave?n=2";
/// The client thinks 1 ms before each request, so every request finds the
/// server asleep in its 10 ms accept poll and waits out the rest of it.
/// Back to back, whether a request waits depends on a race, and the median
/// flips between 0.15 ms and 10 ms from run to run.
const THINK: Duration = Duration::from_millis(1);
/// Settling time before the saturated phase is measured.
const WARM_UP: Duration = Duration::from_millis(300);
/// Throwaway boots at each end of the run, for the set-up median.
const SPARE_BOOTS: usize = 5;

fn config(seed: u64, tick: Duration) -> DaemonConfig {
    DaemonConfig {
        initial_nodes: NODES,
        tick,
        base_loss: LOSS,
        seed,
        http_port: Some(0),
        ..DaemonConfig::default()
    }
}

fn spawn(tracer: &mut Tracer, config: DaemonConfig, setups: &mut Vec<f64>) -> DaemonHandle {
    let t = Instant::now();
    let handle = tracer.span("daemon.spawn", || config.spawn()).expect("daemon boots");
    setups.push(t.elapsed().as_secs_f64());
    handle
}

fn round(registry: &MetricsRegistry) -> f64 {
    registry.gauge("daemon.round").get()
}

fn counter(registry: &MetricsRegistry, name: &str) -> f64 {
    registry.counter_value(name).unwrap_or(0) as f64
}

/// Invariant-checker totals of a daemon that has shut down.
struct Verdict {
    checks: f64,
    degree: f64,
    stale: f64,
}

fn shutdown(tracer: &mut Tracer, handle: DaemonHandle) -> Verdict {
    let registry = handle.registry().clone();
    tracer.span("daemon.shutdown", || handle.shutdown());
    Verdict {
        checks: counter(&registry, "daemon.checks"),
        degree: counter(&registry, "daemon.violations.degree"),
        stale: counter(&registry, "daemon.violations.stale"),
    }
}

/// One checked HTTP request; returns its latency in seconds.
fn request(ctx: &mut Ctx, addr: SocketAddr, kind: &'static str, want: &str) -> f64 {
    let t = Instant::now();
    let result = ctx.tracer.span(kind, || match kind {
        "daemon.http.join" => http_post(addr, JOIN_PATH, ""),
        "daemon.http.leave" => http_post(addr, LEAVE_PATH, ""),
        _ => http_get(addr, "/metrics"),
    });
    let latency = t.elapsed().as_secs_f64();
    let ok = matches!(&result, Ok((200, body)) if body.contains(want));
    ctx.report.ops_checked += 1;
    if !ok {
        ctx.report.ops_failed += 1;
        if ctx.report.ops_failed == 1 {
            println!("# first failed request ({kind}, expected {want:?}): {result:?}");
        }
    }
    latency
}

/// Least-squares slope of `y` against `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

/// One saturated window: a fresh daemon with the 1 ms tick and no HTTP
/// load, measured after a warm-up.
struct Saturated {
    rounds: f64,
    secs: f64,
    /// Deltas of sent, dropped, dead letters and receive errors.
    net: [f64; 4],
    loop_cpu_ns: u64,
    verdict: Verdict,
}

fn saturate(ctx: &mut Ctx, setups: &mut Vec<f64>, window: Duration) -> Saturated {
    let sat = spawn(&mut ctx.tracer, config(ctx.seed, SATURATED_TICK), setups);
    let registry = sat.registry().clone();
    ctx.tracer.span("daemon.saturate", || std::thread::sleep(WARM_UP));
    let net = |r: &MetricsRegistry| {
        [
            counter(r, "daemon.net.sent"),
            counter(r, "daemon.net.dropped"),
            counter(r, "daemon.net.dead_letters"),
            counter(r, "daemon.net.recv_errors"),
        ]
    };
    let loop_cpu0 = thread_cpu_ns("sandf-daemon-loop").unwrap_or(0);
    let (round0, net0, t0) = (round(&registry), net(&registry), Instant::now());
    ctx.tracer.span("daemon.saturate", || std::thread::sleep(window));
    let (round1, net1, secs) = (round(&registry), net(&registry), t0.elapsed().as_secs_f64());
    let loop_cpu_ns = thread_cpu_ns("sandf-daemon-loop").unwrap_or(0).saturating_sub(loop_cpu0);
    let verdict = shutdown(&mut ctx.tracer, sat);
    Saturated {
        rounds: round1 - round0,
        secs,
        net: std::array::from_fn(|i| net1[i] - net0[i]),
        loop_cpu_ns,
        verdict,
    }
}

/// The client's think time; the daemon runs its paced rounds meanwhile.
fn pause(ctx: &mut Ctx) {
    ctx.tracer.span("daemon.paced", || std::thread::sleep(THINK));
}

pub fn run(ctx: &mut Ctx) -> f64 {
    // Throwaway boots at the start and at the end add set-up samples that
    // span the run.
    let mut setups = Vec::new();
    let mut spares = Vec::new();
    for _ in 0..SPARE_BOOTS {
        let spare = spawn(&mut ctx.tracer, config(ctx.seed, PACED_TICK), &mut setups);
        spares.push(shutdown(&mut ctx.tracer, spare));
    }
    // The saturated phase is split around the paced one, so the capacity
    // averages the host's speed over most of the run.
    let window = Duration::from_secs_f64((ctx.seconds / 4.0).max(0.5));
    let first = saturate(ctx, &mut setups, window);

    // Paced phase.
    let paced = spawn(&mut ctx.tracer, config(ctx.seed, PACED_TICK), &mut setups);
    let addr = paced.http_addr().expect("http endpoint configured");
    let registry = paced.registry().clone();
    let (mut joins, mut leaves, mut scrapes) = (Vec::new(), Vec::new(), Vec::new());
    let http_cpu0 = thread_cpu_ns("sandf-daemon-http").unwrap_or(0);
    let round0 = round(&registry);
    let t0 = Instant::now();
    // (seconds since t0, round counter) after every request.
    let mut progress = vec![(0.0, round0)];
    let joined = format!("\"nodes\":{}}}", NODES + 2);
    let left = format!("\"nodes\":{NODES}}}");
    for i in 0..CTL_REQUESTS {
        pause(ctx);
        if i % 2 == 0 {
            joins.push(request(ctx, addr, "daemon.http.join", &joined));
        } else {
            leaves.push(request(ctx, addr, "daemon.http.leave", &left));
        }
        progress.push((t0.elapsed().as_secs_f64(), round(&registry)));
        if (i + 1) % SCRAPE_EVERY == 0 {
            pause(ctx);
            scrapes.push(request(ctx, addr, "daemon.http.scrape", "daemon_round"));
            progress.push((t0.elapsed().as_secs_f64(), round(&registry)));
        }
    }
    let (paced_s, round_end) = *progress.last().expect("one sample per request");
    let paced_rounds = round_end - round0;
    let http_cpu = thread_cpu_ns("sandf-daemon-http").unwrap_or(0).saturating_sub(http_cpu0);
    let paced = shutdown(&mut ctx.tracer, paced);
    let nominal_rate = 1.0 / PACED_TICK.as_secs_f64();
    // The achieved round rate is the least-squares slope of the round
    // counter over the whole phase, so a host stall just before the last
    // sample (the loop catches up afterwards) does not decide the verdict
    // while a loop that keeps falling behind still fails it.
    let achieved_rate = slope(&progress);
    ctx.report.check(
        "paced phase keeps up: achieved round rate ≥ 0.99 × nominal",
        achieved_rate >= 0.99 * nominal_rate,
        format!(
            "{achieved_rate:.2} rounds/s against a nominal {nominal_rate:.2} over {paced_s:.3}s \
             ({paced_rounds} rounds at the last sample, {:.1} nominal)",
            paced_s * nominal_rate
        ),
    );

    let second = saturate(ctx, &mut setups, window);
    let sat_rounds = first.rounds + second.rounds;
    let sat_s = first.secs + second.secs;
    let loop_cpu = first.loop_cpu_ns + second.loop_cpu_ns;
    let sat_net: [f64; 4] = std::array::from_fn(|i| first.net[i] + second.net[i]);
    let sat = Verdict {
        checks: first.verdict.checks + second.verdict.checks,
        degree: first.verdict.degree + second.verdict.degree,
        stale: first.verdict.stale + second.verdict.stale,
    };
    let actions = sat_rounds * NODES as f64;
    let halves_ran = first.rounds > 0.0 && second.rounds > 0.0;
    for _ in 0..SPARE_BOOTS {
        let spare = spawn(&mut ctx.tracer, config(ctx.seed, PACED_TICK), &mut setups);
        spares.push(shutdown(&mut ctx.tracer, spare));
    }
    let spare = Verdict {
        checks: spares.iter().map(|v| v.checks).sum(),
        degree: spares.iter().map(|v| v.degree).sum(),
        stale: spares.iter().map(|v| v.stale).sum(),
    };

    let r = &mut ctx.report;
    for (name, v) in [("spare", &spare), ("paced", &paced), ("saturated", &sat)] {
        r.check(
            format!("{name} daemon: zero degree and stale violations"),
            v.checks > 0.0 && v.degree == 0.0 && v.stale == 0.0,
            format!("{} checks, {} degree, {} stale violations", v.checks, v.degree, v.stale),
        );
    }
    r.check(
        "both saturated daemons complete rounds",
        halves_ran,
        format!("{} and {} rounds", first.rounds, second.rounds),
    );

    let ctl: Vec<f64> = joins.iter().chain(&leaves).copied().collect();
    println!(
        "# control latency (ms): p10 {:.3} p25 {:.3} p50 {:.3} mean {:.3} p90 {:.3}",
        1e3 * quantile(&ctl, 0.1),
        1e3 * quantile(&ctl, 0.25),
        1e3 * median(&ctl),
        1e3 * ctl.iter().sum::<f64>() / ctl.len() as f64,
        1e3 * quantile(&ctl, 0.9)
    );
    let capacity = actions / sat_s;
    println!("# set-up samples (s): {setups:?}");
    r.e2e("setup_s", median(&setups), setups.len());
    r.e2e("actions_per_s", capacity, sat_rounds as usize);
    // The 10th percentile: the floor a control request pays (the accept
    // poll, the loop round trip and the join or leave itself). Above it,
    // requests wait for a loop that has fallen behind, and how often that
    // happens follows the host's steal time: on the 2-vCPU reference VM the
    // median was about 9.7 ms in some runs and 13 ms in others, while the
    // 10th percentile stayed within 9.3-9.6 ms. The median and the 99th
    // percentile are printed as named metrics.
    r.e2e("job_s", quantile(&ctl, 0.1), ctl.len());
    r.named("ctl_p50_ms", 1e3 * median(&ctl), "ms", ctl.len());
    r.named("ctl_p99_ms", 1e3 * quantile(&ctl, 0.99), "ms", ctl.len());
    r.named("scrape_p50_ms", 1e3 * median(&scrapes), "ms", scrapes.len());

    r.layer("daemon.spawns_per_s", rate(median(&setups)));
    r.layer("wheel.rounds_per_s", sat_rounds / sat_s);
    r.layer("wheel.nominal_rounds_per_s", 1.0 / SATURATED_TICK.as_secs_f64());
    r.layer("daemon.loop_busy", loop_cpu as f64 * 1e-9 / sat_s);
    let per_action = |i: usize| sat_net[i] / actions.max(1.0);
    r.layer("net.sent_per_action", per_action(0));
    r.layer("net.dropped_per_action", per_action(1));
    r.layer("net.dead_letters_per_action", per_action(2));
    r.layer("net.recv_errors_per_action", per_action(3));
    r.layer("http.scrape_p50_per_s", rate(median(&scrapes)));
    r.layer("http.scrape_p90_per_s", rate(quantile(&scrapes, 0.9)));
    r.layer("http.join_p50_per_s", rate(median(&joins)));
    r.layer("http.join_p90_per_s", rate(quantile(&joins, 0.9)));
    r.layer("http.leave_p50_per_s", rate(median(&leaves)));
    r.layer("http.leave_p90_per_s", rate(quantile(&leaves, 0.9)));
    r.layer("http.busy", http_cpu as f64 * 1e-9 / paced_s);
    r.layer("daemon.checks", spare.checks + paced.checks + sat.checks);
    r.layer("daemon.degree_violations", spare.degree + paced.degree + sat.degree);
    r.layer("daemon.stale_violations", spare.stale + paced.stale + sat.stale);
    println!(
        "# service-udp: paced {paced_rounds} rounds in {paced_s:.3}s; saturated {:.1} rounds/s \
         against a nominal {:.0}",
        sat_rounds / sat_s,
        1.0 / SATURATED_TICK.as_secs_f64()
    );
    // Views and per-node transport state; the socket buffers live in the
    // kernel.
    (NODES * 1024) as f64 / crate::machine::MIB
}

#[cfg(test)]
mod tests {
    use super::slope;

    #[test]
    fn slope_of_a_line_with_a_late_dip() {
        let line: Vec<(f64, f64)> =
            (0..100).map(|i| (f64::from(i), 3.0 * f64::from(i) + 7.0)).collect();
        assert!((slope(&line) - 3.0).abs() < 1e-12);
        let mut dipped = line.clone();
        dipped.last_mut().expect("points").1 -= 30.0;
        let s = slope(&dipped);
        assert!(s < 3.0 && s > 2.95, "{s}");
    }
}
