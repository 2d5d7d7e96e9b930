//! # fast-surrogate — a cheap predictor tier for multi-fidelity search
//!
//! FAST's simulator (mapper + fusion ILP) is accurate but costs milliseconds
//! to seconds per candidate; most proposals in a study are discarded
//! immediately. This crate supplies the **surrogate tier** that a screened
//! [`fast_search::Study`] ranks each proposal round with, so only the
//! promising fraction pays for full simulation (the FLASH/multi-fidelity
//! recipe).
//!
//! **Tier S0** ([`roofline`]) is an analytical roofline estimator: per-op
//! latency/energy lower bounds from `fast_ir` intensity statistics and the
//! candidate's peak compute / memory bandwidth. No mapper, no ILP, no
//! fitting — a score is a pure function of the point.
//!
//! [`SurrogateScreener`] puts it behind the [`fast_search::Screener`]
//! trait: construct one with the guide metric, the workload set and a
//! point-decoding closure, then hand it to
//! [`fast_search::Study::run_session`] as its
//! [`fast_search::StudySession::screener`].
//!
//! ```
//! use fast_surrogate::{GuideMetric, SurrogateScreener};
//!
//! let screener = SurrogateScreener::new(
//!     GuideMetric::PerfPerTdp,
//!     vec![fast_models::Workload::Bert { seq_len: 128 }],
//!     Box::new(|_point| Some(fast_arch::presets::tpu_v3())),
//! );
//! # let _ = screener;
//! ```

pub mod roofline;
pub mod screener;

pub use roofline::{qps_bound, roofline_guide, step_seconds_bound, GraphLoad, GuideMetric};
pub use screener::{DecodeFn, SurrogateScreener};
