//! The four workloads. Each `run` measures, checks its outputs, fills the
//! context's report and returns the workload's computed working set in
//! MiB (the context line compares it against the L3).

pub mod flat;
pub mod par;
pub mod scenario;
pub mod udp;

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sandf_core::{SfConfig, SfNode};
use sandf_sim::topology;

use crate::machine::MIB;

/// Message loss on every workload's membership channel.
pub const LOSS: f64 = 0.01;

/// The view configuration of the two arena-engine workloads.
pub fn sf_config() -> SfConfig {
    SfConfig::new(16, 6).expect("legal config")
}

/// The slot arena `n · s · 5 B` (a 4-byte slot word and a flag byte per
/// view slot), in MiB.
pub fn arena_mib(n: usize, config: SfConfig) -> f64 {
    (n * config.view_size() * 5) as f64 / MIB
}

/// Wraps an iterator and accumulates the time spent inside its `next`,
/// so a lazily consumed layer (the topology constructors) can be timed from
/// outside while an engine constructor drains it.
pub struct Timed<I> {
    inner: I,
    on: bool,
    spent: Rc<Cell<Duration>>,
    calls: Rc<Cell<u64>>,
}

impl<I: Iterator> Iterator for Timed<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        if !self.on {
            return self.inner.next();
        }
        let t = Instant::now();
        let item = self.inner.next();
        self.spent.set(self.spent.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Time and call counters shared with a [`Timed`] adapter.
#[derive(Clone, Default)]
pub struct TimedTotals {
    pub spent: Rc<Cell<Duration>>,
    pub calls: Rc<Cell<u64>>,
}

/// The seeded random bootstrap (`topology::random_iter`, d0 = 8), timed
/// per node when `on`.
pub fn bootstrap(
    n: usize,
    seed: u64,
    on: bool,
    totals: &TimedTotals,
) -> Timed<impl Iterator<Item = SfNode>> {
    Timed {
        inner: topology::random_iter(n, sf_config(), 8, seed),
        on,
        spent: Rc::clone(&totals.spent),
        calls: Rc::clone(&totals.calls),
    }
}
