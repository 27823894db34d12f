//! Machine context and process accounting, read from `/proc` and `/sys`.
//!
//! Context values (core count, cache sizes, a memory-stream and hashing
//! calibration cell) go into every result so figures from different
//! machines can be told apart. They are recorded, never gated.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Size in bytes of the CPU-0 cache at `level` (data or unified).
pub fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for index in 0..8 {
        let dir = format!("{base}/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(lvl) = read("level") else { break };
        let kind = read("type").unwrap_or_default();
        if lvl.trim().parse::<u32>().ok() != Some(level) || kind.trim() == "Instruction" {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        return digits.parse::<u64>().ok().map(|v| v * mult);
    }
    None
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// The L3 size in MiB (falls back to 32 MiB when `/sys` does not say).
pub fn l3_mib() -> f64 {
    cache_bytes(3).map_or(32.0, |b| b as f64 / MIB)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    sandf_bench::perf::peak_rss_bytes().map_or(0.0, |b| b as f64 / MIB)
}

/// User + system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat` fields 14 and 15, 100 Hz ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    cpu_from_stat(&stat)
}

fn cpu_from_stat(stat: &str) -> f64 {
    // The command name may hold spaces; fields resume after the last ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Seconds the hypervisor ran other guests on this machine's CPUs (the
/// `steal` column of `/proc/stat`, summed over CPUs); 0 off a VM.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0) as f64 / 100.0
}

/// On-CPU nanoseconds of the live thread named `comm` (as the kernel
/// truncates it, 15 bytes), from `/proc/self/task/*/schedstat`.
pub fn thread_cpu_ns(comm: &str) -> Option<u64> {
    let want: String = comm.chars().take(15).collect();
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let path = entry.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if name.trim_end() == want {
            let sched = std::fs::read_to_string(path.join("schedstat")).ok()?;
            return sched.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

/// The calibration cell: streaming read bandwidth over a buffer of at
/// least four times the L3, and FNV-1a and xoshiro256++ throughput.
pub struct Calibration {
    pub stream_gib_s: f64,
    pub fnv_gib_s: f64,
    pub xoshiro_mops: f64,
    pub buffer_mib: f64,
}

pub fn calibrate() -> Calibration {
    let bytes = (4.0 * l3_mib() * MIB) as usize;
    let words = bytes / 8;
    let buf: Vec<u64> = (0..words as u64).collect();
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let sum = buf.iter().fold(0u64, |acc, &w| acc.wrapping_add(w));
        black_box(sum);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let stream_gib_s = bytes as f64 / best / (1024.0 * MIB);
    drop(buf);

    let block = vec![0xa5u8; 16 << 20];
    let t = Instant::now();
    black_box(sandf_bench::sweep::fnv1a64(black_box(&block)));
    let fnv_gib_s = block.len() as f64 / t.elapsed().as_secs_f64() / (1024.0 * MIB);

    let mut rng = StdRng::seed_from_u64(1);
    let draws = 20_000_000u64;
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..draws {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    let xoshiro_mops = draws as f64 / t.elapsed().as_secs_f64() / 1e6;
    Calibration { stream_gib_s, fnv_gib_s, xoshiro_mops, buffer_mib: bytes as f64 / MIB }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_comm() {
        let stat = "42 (a b) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert!((cpu_from_stat(stat) - 3.0).abs() < 1e-12);
    }
}
