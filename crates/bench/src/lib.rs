//! # em-bench — the experiment harness
//!
//! Shared plumbing for the bench binaries that regenerate every table
//! and figure of the paper (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig3_accuracy` | Fig. 3(a), 3(b), 3(c) |
//! | `fig3_runtime`  | Fig. 3(d), 3(e) |
//! | `fig3_scaling`  | Fig. 3(f) |
//! | `table1_grid`   | Table 1 |
//! | `fig4_rules`    | Fig. 4(a), 4(b), 4(c) |
//!
//! Each binary accepts `--scale` (fraction of the paper's dataset size;
//! defaults keep runtimes in seconds–minutes) plus experiment-specific
//! flags; run with `--help` for details.

#![warn(missing_docs)]

pub mod cli;
pub mod grid;
pub mod metrics;
pub mod report;
pub mod workload;

pub use cli::Flags;
pub use grid::{simulate, Assignment, GridParams, GridReport};
pub use metrics::{MetricValue, MetricsRecord, MetricsWriter};
pub use report::{
    ArmRecord, ChurnRecord, FrameworkReport, NetServeRunRecord, SchemeRecord, ServeRunRecord,
    ShardLoadRecord, ShardRunRecord, StoreRunRecord, WalksatChurnRecord, WarmStartRecord,
    WorkloadRecord,
};
pub use workload::{prepare, prepare_opts, profile_by_name, Workload};
