//! `em-perfbench`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the run measures for about
//! `--seconds`, checks the program's outputs, prints every metric with
//! its unit and sample count, writes them as `em-metrics-v1` lines to
//! `perfbench/results/<workload>-<seed>-trace<t>.jsonl`, and ends with
//! one JSON line: the `end_to_end` metrics of `BENCHMARK.json` with
//! `--trace 0`, its `per_layer` metrics with `--trace 1`. It exits
//! non-zero when any output check fails. See `perfbench/LAYERS.md` for
//! what each metric means on each workload.

mod batch;
mod report;
mod serve;
mod stats;
mod timed;

use batch::BatchSpec;
use em::{Backend, SplitPolicy};
use report::{peak_rss_mb, steal_seconds, Report};
use std::path::PathBuf;
use std::time::Instant;

/// The `end_to_end` metrics of `BENCHMARK.json`, in its order.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("run_cpu_s", "s"), ("peak_rss_mb", "MiB")];

/// The `per_layer` metrics of `BENCHMARK.json`, in its order.
const PER_LAYER: [(&str, &str); 68] = [
    ("similarity.build_s", "s"),
    ("similarity.tokens", "count"),
    ("blocking.block_s", "s"),
    ("blocking.canopies", "count"),
    ("blocking.candidate_pairs", "count"),
    ("blocking.kernel_evals", "count"),
    ("blocking.pair_scores_reused", "count"),
    ("blocking.recall", "ratio"),
    ("blocking.precision", "ratio"),
    ("core.depindex_s", "s"),
    ("core.self_s", "s"),
    ("core.matcher_calls", "count"),
    ("core.neighborhoods_processed", "count"),
    ("core.messages_sent", "count"),
    ("core.maximal_messages", "count"),
    ("core.promotions", "count"),
    ("core.score_delta_calls", "count"),
    ("core.conditioned_probes", "count"),
    ("core.probes_replayed", "count"),
    ("core.rounds", "count"),
    ("core.probe_replay_ratio", "ratio"),
    ("mln.match_view_s", "s"),
    ("mln.match_view_calls", "count"),
    ("mln.probe_s", "s"),
    ("mln.probe_calls", "count"),
    ("mln.probe_pairs", "count"),
    ("mln.scorer_build_s", "s"),
    ("mln.score_delta_s", "s"),
    ("mln.affected_pairs_s", "s"),
    ("mln.share", "ratio"),
    ("shard.makespan_s", "s"),
    ("shard.total_work_s", "s"),
    ("shard.idle_s", "s"),
    ("shard.busy_skew", "ratio"),
    ("shard.epochs", "count"),
    ("shard.cross_shard_pairs", "count"),
    ("shard.largest_component", "count"),
    ("session.update_ms_p50", "ms"),
    ("session.update_ms_p95", "ms"),
    ("session.warm_run_ms_p50", "ms"),
    ("session.warm_run_ms_p95", "ms"),
    ("session.pairs_reblocked", "count"),
    ("session.components_invalidated", "count"),
    ("session.memos_dropped", "count"),
    ("session.degraded_to_cold", "count"),
    ("store.wal_append_ms_p50", "ms"),
    ("store.wal_append_ms_p95", "ms"),
    ("store.checkpoint_s", "s"),
    ("store.snapshot_bytes", "bytes"),
    ("store.recover_s", "s"),
    ("serve.batches", "count"),
    ("serve.frames_per_batch", "ratio"),
    ("serve.frames_per_batch_lowest", "ratio"),
    ("serve.frames_per_batch_highest", "ratio"),
    ("serve.shed_events", "count"),
    ("serve.budget_misses", "count"),
    ("serve.degraded_to_cold", "count"),
    ("serve.staleness_ms_p95", "ms"),
    ("net.ingest_us_p50", "us"),
    ("net.status_ms_p50", "ms"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.bytes_ingested", "bytes"),
    ("net.query_bytes", "bytes"),
    ("loadgen.lag_ms_p95", "ms"),
    ("loadgen.sampled_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

enum Workload {
    Batch(BatchSpec),
    Serve,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "hepth-mmp" => Workload::Batch(BatchSpec {
            profile: "hepth",
            scale: 0.03,
            walksat: false,
            backend: Backend::Sequential,
            inputs: 10,
        }),
        "dblp-mmp-sharded2" => Workload::Batch(BatchSpec {
            profile: "dblp",
            scale: 0.1,
            walksat: false,
            backend: Backend::Sharded {
                shards: 2,
                split_policy: SplitPolicy::Split,
            },
            inputs: 5,
        }),
        "hepth-walksat-mmp" => Workload::Batch(BatchSpec {
            profile: "hepth",
            scale: 0.004,
            walksat: true,
            backend: Backend::Sequential,
            inputs: 5,
        }),
        "serve-churn" => Workload::Serve,
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let Some(kind) = workload(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; expected hepth-mmp | dblp-mmp-sharded2 | hepth-walksat-mmp \
             | serve-churn",
            args.workload
        );
        std::process::exit(2);
    };
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    println!(
        "em-perfbench: workload {} seed {} seconds {} trace {} ({} CPUs available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    let (started, steal0) = (Instant::now(), steal_seconds());
    match (&kind, args.trace) {
        (Workload::Batch(spec), false) => batch::run(spec, args.seed, args.seconds, &mut report),
        (Workload::Batch(spec), true) => batch::run_traced(spec, args.seed, &mut report),
        (Workload::Serve, traced) => {
            serve::run(args.seed, args.seconds, traced, &results, &mut report)
        }
    }
    if let (Some(a), Some(b)) = (steal0, steal_seconds()) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let stolen = (b - a) / (started.elapsed().as_secs_f64() * cpus) * 100.0;
        report.push("host.steal_pct", "%", stolen, 1);
    }
    if report.get("peak_rss_mb").is_none() {
        report.push("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN), 1);
    }
    let gated: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let path = results.join(format!(
        "{}-{}-trace{}.jsonl",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if !report.finish(gated, &path) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above must be the ones `BENCHMARK.json` names.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = json.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }
}
