//! End-to-end property tests of the sharded runtime on random datagen
//! worlds with the real MLN matcher (exact backend), plus the grid
//! simulator's validation path against a real shard run.
//!
//! The sharding machinery — evidence-component partitioning, split
//! oversized components, per-shard drivers with epoch-fenced delta
//! exchange, coordinator-side message closure and promotion — must be
//! *invisible* in the outputs: for every generated world and every
//! shard count, the sharded SMP/MMP engines are byte-identical to the
//! single-threaded schemes, and the incremental probe ledger balances
//! against the full-recompute arm of the same partition.

use em_bench::{prepare, simulate, Assignment, GridParams};
use em_blocking::{block_dataset_with_features, BlockingConfig, SimilarityKernel};
use em_core::cover::NeighborhoodId;
use em_core::framework::DependencyIndex;
use em_core::framework::{mmp_with_order, smp_with_order, MmpConfig};
use em_core::{CachedMatcher, MatchOutput, ProbabilisticMatcher};
use em_core::{Cover, Dataset, Evidence};
use em_datagen::{generate, DatasetProfile};
use em_mln::{MlnMatcher, MlnModel};
use em_shard::{
    estimate_costs, shard_mmp_planned, shard_smp_planned, ShardPlan, ShardReport, SplitPolicy,
};
use proptest::prelude::*;
use std::time::Duration;

/// Generate and block a tiny world (profile picked by parity, seed free).
fn world(seed: u64) -> (Dataset, Cover, MlnMatcher) {
    let profile = if seed.is_multiple_of(2) {
        DatasetProfile::hepth()
    } else {
        DatasetProfile::dblp()
    };
    let generated = generate(&profile.scaled(0.003).with_seed(seed));
    let mut dataset = generated.dataset;
    let config = BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        ..Default::default()
    };
    let blocking = block_dataset_with_features(&mut dataset, &config, Some(&generated.features))
        .expect("valid total cover");
    let coauthor = dataset
        .relations
        .relation_id("coauthor")
        .expect("generated datasets declare coauthor");
    let matcher = MlnMatcher::new(MlnModel::paper_model(coauthor));
    (dataset, blocking.cover, matcher)
}

// Engine-hook shims: these property tests target the engines, not the
// `em::Pipeline` front door; the sharded ones plan from estimates.
fn smp(matcher: &MlnMatcher, ds: &Dataset, cover: &Cover, ev: &Evidence) -> MatchOutput {
    smp_with_order(matcher, ds, cover, ev, None)
}

fn mmp(
    matcher: &MlnMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    config: &MmpConfig,
) -> MatchOutput {
    mmp_with_order(matcher, ds, cover, ev, config, None)
}

fn plan(
    ds: &Dataset,
    cover: &Cover,
    shards: usize,
    policy: SplitPolicy,
) -> (DependencyIndex, ShardPlan) {
    let index = DependencyIndex::build(ds, cover);
    let plan = ShardPlan::build(&index, shards, &estimate_costs(ds, cover), policy);
    (index, plan)
}

fn shard_smp(
    matcher: &MlnMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    shards: usize,
) -> (MatchOutput, ShardReport) {
    let (index, plan) = plan(ds, cover, shards, SplitPolicy::Split);
    shard_smp_planned(matcher, ds, cover, &index, &plan, ev)
}

fn shard_mmp(
    matcher: &(dyn ProbabilisticMatcher + Sync),
    ds: &Dataset,
    cover: &Cover,
    mmp_config: &MmpConfig,
    shards: usize,
    policy: SplitPolicy,
) -> (MatchOutput, ShardReport) {
    let (index, plan) = plan(ds, cover, shards, policy);
    shard_mmp_planned(
        matcher,
        ds,
        cover,
        &index,
        &plan,
        &Evidence::none(),
        mmp_config,
        None,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_runs_equal_the_single_machine_fixpoint(seed in 0u64..10_000) {
        let (ds, cover, matcher) = world(seed);
        let none = Evidence::none();
        let seq_mmp = mmp(&matcher, &ds, &cover, &none, &MmpConfig::default());
        let seq_smp = smp(&matcher, &ds, &cover, &none);
        prop_assert!(seq_smp.matches.is_subset(&seq_mmp.matches),
            "seed {}: SMP ⊆ MMP must hold", seed);
        for k in [1usize, 2, 4, 7] {
            let (out, report) = shard_mmp(
                &matcher, &ds, &cover, &MmpConfig::default(), k, SplitPolicy::Split,
            );
            prop_assert_eq!(&out.matches, &seq_mmp.matches,
                "seed {} k {}: sharded MMP diverged", seed, k);
            prop_assert!(report.epochs >= 2, "seed {} k {}: missing confirm epoch", seed, k);
            let (out_smp, _) = shard_smp(&matcher, &ds, &cover, &none, k);
            prop_assert_eq!(&out_smp.matches, &seq_smp.matches,
                "seed {} k {}: sharded SMP diverged", seed, k);
        }
        // The strict-locality policy reaches the same fixpoint too.
        let (out_pin, _) = shard_mmp(
            &matcher, &ds, &cover, &MmpConfig::default(), 4, SplitPolicy::Pin,
        );
        prop_assert_eq!(&out_pin.matches, &seq_mmp.matches, "seed {}: Pin diverged", seed);
    }

    #[test]
    fn sharded_probe_ledger_balances(seed in 0u64..10_000) {
        // Within one partition, every conditioned probe of the
        // full-recompute arm is either issued or replayed by the
        // incremental arm — the same ledger invariant the sequential
        // scheduler maintains.
        let (ds, cover, matcher) = world(seed);
        let split = SplitPolicy::Split;
        let (incr, _) = shard_mmp(&matcher, &ds, &cover, &MmpConfig::default(), 4, split);
        let full_cfg = MmpConfig { incremental: false, ..Default::default() };
        let (full, _) = shard_mmp(&matcher, &ds, &cover, &full_cfg, 4, split);
        prop_assert_eq!(&incr.matches, &full.matches, "seed {}: arms diverged", seed);
        prop_assert!(incr.stats.conditioned_probes <= full.stats.conditioned_probes,
            "seed {}: incremental issued more probes ({} > {})",
            seed, incr.stats.conditioned_probes, full.stats.conditioned_probes);
        prop_assert_eq!(
            incr.stats.conditioned_probes + incr.stats.probes_replayed,
            full.stats.conditioned_probes,
            "seed {}: probe ledger must balance", seed);
    }
}

/// The grid simulator's validation path: its LPT mode, replaying the
/// deterministic per-neighborhood cost estimates of a real `em_shard`
/// run, must reproduce that run's balance. The simulator packs
/// neighborhoods individually while the planner packs placement units
/// (whole small components + fragments of split ones) — same greedy
/// discipline at slightly different granularity, so the makespans must
/// agree within 10% (on these workloads they agree exactly), and LPT
/// must not lose to the paper's random placement on its own trace.
#[test]
fn lpt_grid_simulation_matches_a_real_shard_run() {
    let w = prepare("hepth", 0.005, Some(7));
    let matcher = w.mln_matcher();
    let k = 4;
    let (out, report) = shard_mmp(
        &matcher,
        &w.dataset,
        &w.cover,
        &MmpConfig::default(),
        k,
        SplitPolicy::Split,
    );
    assert!(!out.matches.is_empty(), "workload must produce matches");

    let round = report
        .neighborhood_costs
        .iter()
        .enumerate()
        .map(|(i, &cost)| (NeighborhoodId(i as u32), Duration::from_micros(cost)))
        .collect();
    let trace = vec![round];
    let params = GridParams {
        machines: k,
        per_round_overhead: Duration::ZERO,
        seed: 1,
        assignment: Assignment::Lpt,
    };
    let lpt = simulate(&trace, &params);
    let random = simulate(
        &trace,
        &GridParams {
            assignment: Assignment::Random,
            ..params
        },
    );

    let real = Duration::from_micros(report.est_makespan());
    let (lo, hi) = (real.mul_f64(0.9), real.mul_f64(1.1));
    assert!(
        lpt.makespan >= lo && lpt.makespan <= hi,
        "simulated LPT makespan {:?} must be within 10% of the shard plan's {:?}",
        lpt.makespan,
        real
    );
    assert!(
        lpt.makespan <= random.makespan,
        "LPT ({:?}) must not lose to random placement ({:?}) on its own trace",
        lpt.makespan,
        random.makespan
    );
    assert!(lpt.mean_skew <= random.mean_skew);
}

/// The per-epoch trace accounts for every evaluation on a generated
/// world: its lengths sum to the run's evaluation count, the cold run's
/// first epoch visits every neighborhood of the plan, and replaying it
/// on the grid counts exactly the non-empty epochs as rounds.
#[test]
fn per_epoch_trace_records_every_evaluation_on_a_datagen_world() {
    let (ds, cover, matcher) = world(11);
    let (out, report) = shard_mmp(
        &matcher,
        &ds,
        &cover,
        &MmpConfig::default(),
        3,
        SplitPolicy::Split,
    );
    assert_eq!(report.measured.len() as u64, report.epochs);
    let recorded: u64 = report.measured.iter().map(|e| e.len() as u64).sum();
    assert_eq!(recorded, out.stats.neighborhoods_processed);
    let mut first: Vec<NeighborhoodId> = report.measured[0].iter().map(|&(id, _)| id).collect();
    first.sort_unstable();
    first.dedup();
    assert_eq!(first, cover.ids().collect::<Vec<_>>());

    let grid = simulate(&report.measured, &GridParams::default());
    let non_empty = report.measured.iter().filter(|e| !e.is_empty()).count();
    assert_eq!(grid.rounds, non_empty);
}

/// The memoizing wrapper is `Sync`: one instance serves both shard
/// threads by reference, and a second run replays entirely from the
/// shared memo without new inference.
#[test]
fn cached_matcher_is_shared_read_only_across_shards() {
    let (ds, cover, matcher) = world(11);
    let expected = mmp(
        &matcher,
        &ds,
        &cover,
        &Evidence::none(),
        &MmpConfig::default(),
    );
    let cached = CachedMatcher::new(matcher);
    let run = || {
        shard_mmp(
            &cached,
            &ds,
            &cover,
            &MmpConfig::default(),
            2,
            SplitPolicy::Split,
        )
    };
    let (out, report) = run();
    assert_eq!(out.matches, expected.matches);
    assert!(
        report.per_shard.iter().all(|s| s.evaluations > 0),
        "both shards evaluate through the one cache"
    );
    let before = cached.stats();
    let (replay, _) = run();
    assert_eq!(replay.matches, expected.matches);
    let after = cached.stats();
    assert!(after.hits > before.hits, "replay run hits the shared cache");
    assert_eq!(
        after.misses, before.misses,
        "replay run performs no new inference"
    );
}
