//! # sandf-baselines — the protocols S&F is contrasted with
//!
//! Section 3.1 of the paper taxonomizes gossip membership protocols along
//! two axes: push vs. pull, and whether sent ids are kept or deleted. This
//! crate implements one representative of each corner the paper discusses,
//! each written once as a [`sandf_sim::ProtocolBehavior`]:
//!
//! * [`PushOnlyBehavior`] — reinforcement-only push that keeps sent ids
//!   (Lpbcast-flavored): loss-immune but spatially dependent;
//! * [`ShuffleBehavior`] — Cyclon/flipper-style shuffles that delete sent
//!   ids: dependence-free but **drains ids under loss**, the paper's
//!   central criticism;
//! * [`PushPullBehavior`] — Allavena-style push-pull keeping sent ids:
//!   loss-immune, dependence-heavy.
//!
//! All of them (and S&F itself, [`SfBehavior`](sandf_sim::SfBehavior))
//! run under identical conditions on every engine through the `Engine`
//! trait: the readable classic [`Simulation`](sandf_sim::Simulation) and
//! the arena engines, which run in lockstep with it. The
//! `baseline_compare` bench binary reproduces the qualitative contrast:
//! under 5–10 % loss the shuffle population collapses while S&F holds its
//! edge count with only `O(ℓ)` extra dependence.
//!
//! ## Example
//!
//! ```
//! use sandf_baselines::ShuffleBehavior;
//! use sandf_core::{NodeId, SfConfig};
//! use sandf_sim::{Simulation, UniformLoss};
//!
//! let config = SfConfig::new(8, 2)?;
//! let views: Vec<(NodeId, Vec<NodeId>)> = (0..16u64)
//!     .map(|i| (NodeId::new(i), vec![NodeId::new((i + 1) % 16), NodeId::new((i + 2) % 16)]))
//!     .collect();
//! let mut sim =
//!     Simulation::from_views(ShuffleBehavior::new(2), config, views, UniformLoss::new(0.05)?, 42);
//! sim.run_rounds(20);
//! assert!(sim.graph().edge_count() <= 32, "shuffles never create ids");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;

pub use behaviors::{PushOnlyBehavior, PushPullBehavior, ShuffleBehavior};
