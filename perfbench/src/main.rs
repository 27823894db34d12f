//! `perfbench`: runs one benchmark workload in this process and prints
//! its result.
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 [--spans PATH]
//! perfbench list
//! ```
//!
//! Workloads: `membership-flat`, `dissemination-par`, `service-udp`,
//! `scenario-paper` (see `README.md`). Commentary lines start with `#`;
//! the last line is one JSON object with the end-to-end metrics, the
//! workload's named metrics, the per-layer metrics (traced runs), and
//! every output check. The exit code is 1 when a check failed.
//! `perfbench/run.py` is the entry point that builds this binary and
//! shapes its output; run the binary directly only for debugging.

mod machine;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

pub const WORKLOADS: &[&str] =
    &["membership-flat", "dissemination-par", "service-udp", "scenario-paper"];

/// What a workload receives: its seed, its time budget and the tracer.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub report: Report,
    /// Calls timed one by one outside spans (iterator adapters), which
    /// cost about as much as a span each.
    pub timed_calls: u64,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            let v = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
            v.parse().map(Some).map_err(|_| format!("bad value for {name}: {v}"))
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let workload = args.first().ok_or("usage: perfbench <workload> --seed N …")?.as_str();
    if workload == "list" {
        println!("{}", WORKLOADS.join("\n"));
        return Ok(true);
    }
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}; try `perfbench list`"));
    }
    let seed: u64 = flag(args, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(15.0);
    let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
    let spans: Option<String> = flag(args, "--spans")?;
    let run_id = sandf_bench::sweep::fnv1a64(
        format!("{workload}/{seed}/{trace}/{:?}", std::time::SystemTime::now()).as_bytes(),
    );
    let mut ctx = Ctx {
        seed,
        seconds,
        tracer: Tracer::new(trace == 1, run_id),
        report: Report::default(),
        timed_calls: 0,
    };

    let steal0 = machine::steal_s();
    let wall = Instant::now();
    let working_set_mib = match workload {
        "membership-flat" => workloads::flat::run(&mut ctx),
        "dissemination-par" => workloads::par::run(&mut ctx),
        "service-udp" => workloads::udp::run(&mut ctx),
        _ => workloads::scenario::run(&mut ctx),
    };
    let wall_s = wall.elapsed().as_secs_f64();
    let steal = (machine::steal_s() - steal0) / (wall_s * machine::nproc() as f64);
    let rss = machine::peak_rss_mib();
    ctx.report.e2e("peak_rss_mb", rss, 1);

    let cal = machine::calibrate();
    let l2 = machine::cache_bytes(2).map_or(0.0, |b| b as f64 / machine::MIB);
    let l3 = machine::l3_mib();
    println!(
        "# machine nproc={} l2={l2:.1}MiB l3={l3:.1}MiB stream={:.2}GiB/s over {:.0}MiB \
         fnv1a={:.2}GiB/s xoshiro={:.1}M/s steal={:.1}%; working set {working_set_mib:.1}MiB = {:.2}×L3",
        machine::nproc(),
        cal.stream_gib_s,
        cal.buffer_mib,
        cal.fnv_gib_s,
        cal.xoshiro_mops,
        100.0 * steal,
        working_set_mib / l3
    );

    if ctx.traced() {
        let r = &mut ctx.report;
        r.layer("machine.nproc", machine::nproc() as f64);
        r.layer("machine.l2_mib", l2);
        r.layer("machine.l3_mib", l3);
        r.layer("machine.stream_gib_s", cal.stream_gib_s);
        r.layer("machine.fnv_gib_s", cal.fnv_gib_s);
        r.layer("machine.xoshiro_mops", cal.xoshiro_mops);
        r.layer("machine.steal_share", steal);
        r.layer("workload.working_set_mib", working_set_mib);
        r.layer("workload.working_set_over_l3", working_set_mib / l3);
        let times = ctx.tracer.layer_times();
        for (layer, secs) in &times.self_s {
            let name = match layer.as_str() {
                "topology" => "share.topology",
                "flat" => "share.flat",
                "par" => "share.par",
                "broadcast" => "share.broadcast",
                "markov" => "share.markov",
                "scenario" | "sweep" => "share.scenario",
                "daemon" | "wheel" | "net" => "share.daemon",
                "daemon.http" => "share.daemon.http",
                other => return Err(format!("span layer {other:?} has no self-time metric")),
            };
            *ctx.report.layers.entry(name).or_insert(0.0) += secs / wall_s;
            println!("# self {workload} {layer} {secs:.4}s ({:.1}%)", 100.0 * secs / wall_s);
        }
        let per_span = trace_cost_s();
        let timed = ctx.tracer.span_count() as u64 + ctx.timed_calls;
        let overhead = timed as f64 * per_span / wall_s;
        let r = &mut ctx.report;
        r.layer("trace.coverage", times.covered_s / wall_s);
        r.layer("trace.overhead_frac", overhead);
        r.layer("trace.spans", ctx.tracer.span_count() as f64);
        r.layer("trace.wall_s", wall_s);
        println!(
            "# trace {workload}: {} spans cover {:.2}% of {wall_s:.3}s wall; overhead ≈ {:.3}%",
            ctx.tracer.span_count(),
            100.0 * times.covered_s / wall_s,
            100.0 * ctx.report.layers["trace.overhead_frac"]
        );
        if let Some(path) = spans {
            std::fs::write(&path, ctx.tracer.to_jsonl(workload))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    print!("{}", ctx.report.render_text(workload));
    println!("{}", ctx.report.to_json(workload, seed, ctx.traced()));
    Ok(ctx.report.correct())
}

/// Seconds one open/close span pair costs, measured on a throwaway tracer.
fn trace_cost_s() -> f64 {
    let mut t = Tracer::new(true, 0);
    let reps = 20_000;
    let start = Instant::now();
    for _ in 0..reps {
        let open = t.open("x.y");
        t.close(open);
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
