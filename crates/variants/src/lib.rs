//! # sandf-variants — the paper's deferred optimizations, implemented
//!
//! Section 5 of Gurevich & Keidar sketches three optimizations and sets
//! them aside because they "would make the protocol harder to analyze …
//! leave optimizations to future work". This crate is that future work,
//! each optimization written once as a [`sandf_sim::ProtocolBehavior`]:
//!
//! 1. [`UndeleteBehavior`] — sent ids are *tombstoned*, not cleared, and
//!    compensation *undeletes* stale entries instead of duplicating live
//!    ones;
//! 2. [`ReplaceBehavior`] — a full receiver overwrites random entries
//!    instead of deleting arrivals;
//! 3. [`BatchedBehavior`] — `b` payload ids per message (odd `b`,
//!    preserving the Observation 5.1 parity invariant).
//!
//! The analyzed baseline needs no re-expression: it is
//! [`SfBehavior`](sandf_sim::SfBehavior). Every behavior runs on all three
//! engines through the `Engine` trait — the readable classic
//! [`Simulation`](sandf_sim::Simulation) and the arena engines, which run
//! in lockstep with it — so the `variants_ablation` bench compares degree
//! balance, dependence, and loss-resilience across all four under one
//! execution model, quantifying exactly the trade-offs the paper chose
//! not to analyze.
//!
//! ## Example
//!
//! ```
//! use sandf_core::{NodeId, SfConfig};
//! use sandf_sim::{Simulation, UniformLoss};
//! use sandf_variants::UndeleteBehavior;
//!
//! let config = SfConfig::new(16, 6)?;
//! let views: Vec<(NodeId, Vec<NodeId>)> = (0..32u64)
//!     .map(|i| (NodeId::new(i), (1..=8).map(|d| NodeId::new((i + d) % 32)).collect()))
//!     .collect();
//! let mut sim = Simulation::from_views(UndeleteBehavior, config, views, UniformLoss::new(0.05)?, 7);
//! sim.run_rounds(100);
//! assert!(sim.graph().is_weakly_connected());
//! // Tombstones are protocol state, invisible to every reader.
//! assert_eq!(sim.dependence().total_entries, sim.graph().edge_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;

pub use behaviors::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};
