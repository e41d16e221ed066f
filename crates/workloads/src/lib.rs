//! # workloads — job catalogue and submission patterns
//!
//! Regenerates the paper's workloads synthetically (see the substitution
//! table in DESIGN.md):
//!
//! * [`tpch`] — 22 TPC-H query shapes as Spark-SQL job specs;
//! * [`trace`] — bursty, heavy-tailed arrival processes standing in for
//!   the google-trace subsets (a 2 000-query long trace and a 200-query
//!   short trace);
//! * [`scenario`] — combinators that assemble arrival lists for the
//!   experiment harness (query streams, interference mixes, sweeps).

mod scenario;
mod tpch;
mod trace;

pub use scenario::{map_jobs, merge, periodic, shifted, tpch_stream};
pub use tpch::{tpch_query, QueryShape, QUERIES};
pub use trace::{arrival_times, TraceParams};
