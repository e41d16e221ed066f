//! # simkit — deterministic discrete-event simulation engine
//!
//! A small, fast, fully deterministic discrete-event simulation (DES) kernel
//! used by the SDchecker reproduction to model a YARN-like cluster and the
//! Spark-like applications running on it.
//!
//! Design points:
//!
//! * **Millisecond clock.** The paper's tool has a precision of 1 ms (the
//!   log4j timestamp resolution), so the simulation clock is a `u64`
//!   millisecond counter ([`Millis`]). Fractional progress inside shared
//!   resources is tracked in `f64` and re-quantized to whole milliseconds at
//!   observation points.
//! * **Determinism.** All randomness flows through [`rng::SimRng`], a
//!   counter-seeded PRNG that supports cheap independent substreams, so a
//!   scenario (seed, config) always produces byte-identical logs. Events at
//!   the same timestamp are ordered by insertion sequence number.
//! * **Processor sharing.** Contended resources (a node's CPU cores, a
//!   node's disk/network channel) are modeled as [`PsResource`]: a
//!   work-conserving processor-sharing queue with per-flow rate caps and
//!   weights. This single primitive generates the fair-share slowdowns,
//!   heavy tails, and interference effects the paper measures.
//!
//! The engine is deliberately generic: models define an event type and a
//! [`engine::Model::handle`] method; the kernel owns the queue, clock, and
//! RNG.
//!
//! ```
//! use simkit::{Ctx, Engine, Millis, Model};
//!
//! struct Counter { fired: u32 }
//! #[derive(Debug)]
//! enum Ev { Ping }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _ev: Ev, ctx: &mut Ctx<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_at(ctx.now() + Millis(10), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 }, 42);
//! engine.schedule_at(Millis(0), Ev::Ping);
//! engine.run_until(Millis::MAX);
//! assert_eq!(engine.model().fired, 3);
//! assert_eq!(engine.now(), Millis(20));
//! ```

mod dist;
mod engine;
mod ps;
mod queue;
mod rng;
mod time;

pub use dist::{Dist, Sample};
pub use engine::{Ctx, Engine, Model};
pub use ps::{FlowId, PsResource, ResourceGen};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::Millis;
