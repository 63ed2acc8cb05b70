//! Table 1: grid running times on DBLP-BIG — single machine vs a
//! 30-machine grid, for NO-MP, SMP, MMP — through `em::Pipeline`.
//!
//! SMP and MMP run on the sharded backend, which records every
//! neighborhood visit per epoch (`ShardReport::measured`); NO-MP is a
//! single round of one matcher call per neighborhood, timed here. The
//! grid simulator (`em_bench::grid`) then replays those costs onto `m`
//! virtual machines, one round per epoch, with per-round random
//! assignment and job-setup overhead (the two effects behind the
//! paper's ~11× — not 30× — speedup).
//!
//! Both placement policies are simulated: the paper's random
//! assignment (whose skew explains the 11× ≠ 30× gap) and the LPT
//! greedy the `em_shard` balancer uses — reported side by side so the
//! skew cost of random placement is visible.
//!
//! A second section runs the *real* sharded backend twice through one
//! session: the first run plans from deterministic cost estimates, the
//! re-run feeds the measured per-neighborhood busy times back into the
//! LPT balancer (`ShardPlan::replan_from`) — estimated-vs-measured skew
//! for both plans, side by side.
//!
//! Usage:
//!   table1_grid [--scale 0.002] [--machines 30] [--overhead-secs 0.05]
//!               [--dataset dblp-big] [--shards 4]

use em::{Backend, BackendReport, Evidence, MatcherChoice, Pipeline, Scheme, SplitPolicy};
use em_bench::{prepare, simulate, Assignment, Flags, GridParams, Workload};
use em_core::framework::{DependencyIndex, EvalTrace, MmpConfig};
use em_core::Matcher;
use em_eval::{fmt_duration, fmt_ratio, Table};
use em_shard::{estimate_costs, shard_mmp_planned, ShardPlan};
use std::time::{Duration, Instant};

/// NO-MP's one round: every neighborhood's matcher call, timed.
fn no_mp_round(w: &Workload) -> Vec<EvalTrace> {
    let matcher = w.mln_matcher();
    let none = Evidence::none();
    let round = w
        .cover
        .ids()
        .map(|id| {
            let view = w.cover.view(&w.dataset, id);
            let t0 = Instant::now();
            matcher.match_view(&view, &none);
            (id, t0.elapsed())
        })
        .collect();
    vec![round]
}

/// The per-epoch evaluation trace of a sharded SMP or MMP run.
fn sharded_trace(w: &Workload, scheme: Scheme, shards: usize) -> Vec<EvalTrace> {
    let outcome = Pipeline::new(w.dataset.clone())
        .cover(w.cover.clone())
        .matcher(MatcherChoice::MlnExact)
        .scheme(scheme)
        .backend(Backend::Sharded {
            shards,
            split_policy: SplitPolicy::Split,
        })
        .build()
        .expect("exact MLN on the sharded backend is coherent (needs --shards >= 1)")
        .run();
    match outcome.backend {
        BackendReport::Sharded(report) => report.measured,
        other => panic!("expected a sharded report, got {other:?}"),
    }
}

/// The measured-cost re-planning section: the sharded MMP engine run
/// twice over the same workload, the second time on a plan rebuilt from
/// the first run's busy-time trace (`ShardPlan::replan_from` — what a
/// `MatchSession`'s re-runs do automatically). Each run gets a *fresh*
/// matcher, so the comparison measures placement, not the grounding
/// memo the first run would otherwise warm for the second.
fn run_replan_section(w: &Workload, shards: usize) {
    let none = Evidence::none();
    let mmp_config = MmpConfig::default();
    let index = DependencyIndex::build(&w.dataset, &w.cover);
    let initial = ShardPlan::build(
        &index,
        shards,
        &estimate_costs(&w.dataset, &w.cover),
        SplitPolicy::Split,
    );
    let run = |plan: &ShardPlan| {
        shard_mmp_planned(
            &w.mln_matcher(),
            &w.dataset,
            &w.cover,
            &index,
            plan,
            &none,
            &mmp_config,
            None,
        )
    };
    let (first, first_report) = run(&initial);
    let replanned = initial.replan_from(&index, &first_report);
    let (second, second_report) = run(&replanned);
    assert_eq!(
        first.matches, second.matches,
        "re-planning must not change the fixpoint"
    );

    let mut table = Table::new([
        "plan",
        "cost basis",
        "est skew",
        "busy skew",
        "makespan",
        "speedup",
    ]);
    for (label, basis, report) in [
        ("initial", "estimate (pairs² + members)", &first_report),
        ("re-planned", "measured busy times", &second_report),
    ] {
        table.push_row([
            label.to_owned(),
            basis.to_owned(),
            fmt_ratio(report.est_skew),
            fmt_ratio(report.busy_skew),
            fmt_duration(report.makespan),
            format!("{:.2}x", report.speedup),
        ]);
    }
    println!(
        "\nMeasured-cost re-planning — {shards}-shard MMP run twice, fresh matcher \
         per run (ShardPlan::replan_from)"
    );
    print!("{}", table.render());
    println!(
        "the re-planned run packs by what the matcher actually cost; its estimated \
         skew is exact by construction, and the busy skew shows how well measured \
         history predicts the next run."
    );
}

fn main() {
    let flags = Flags::parse(std::env::args().skip(1));
    let dataset = flags.get_str("dataset", "dblp-big");
    let scale: f64 = flags.get("scale", 0.002);
    let machines: usize = flags.get("machines", 30);
    let overhead = Duration::from_secs_f64(flags.get("overhead-secs", 0.05));
    let shards: usize = flags.get("shards", 4usize);

    let w = prepare(&dataset, scale, None);
    println!(
        "=== {} (scale {scale}): {} references, {} neighborhoods, {} candidate pairs ===",
        w.name,
        w.references,
        w.cover.len(),
        w.candidate_pairs
    );

    let runs = [
        no_mp_round(&w),
        sharded_trace(&w, Scheme::Smp, shards),
        sharded_trace(&w, Scheme::Mmp, shards),
    ];

    // Table 1 shape: rows = deployment, columns = schemes.
    let mut table = Table::new(["", "NO-MP", "SMP", "MMP"]);
    let random_params = GridParams {
        machines,
        per_round_overhead: overhead,
        ..Default::default()
    };
    let lpt_params = GridParams {
        assignment: Assignment::Lpt,
        ..random_params
    };
    let random: Vec<_> = runs
        .iter()
        .map(|trace| simulate(trace, &random_params))
        .collect();
    let lpt: Vec<_> = runs
        .iter()
        .map(|trace| simulate(trace, &lpt_params))
        .collect();
    table.push_row([
        "Single machine".to_owned(),
        fmt_duration(random[0].total_work),
        fmt_duration(random[1].total_work),
        fmt_duration(random[2].total_work),
    ]);
    table.push_row([
        format!("Grid ({machines} machines, random)"),
        fmt_duration(random[0].makespan),
        fmt_duration(random[1].makespan),
        fmt_duration(random[2].makespan),
    ]);
    table.push_row([
        "Speedup (random)".to_owned(),
        format!("{:.1}x", random[0].speedup),
        format!("{:.1}x", random[1].speedup),
        format!("{:.1}x", random[2].speedup),
    ]);
    table.push_row([
        "Mean skew (random)".to_owned(),
        fmt_ratio(random[0].mean_skew),
        fmt_ratio(random[1].mean_skew),
        fmt_ratio(random[2].mean_skew),
    ]);
    table.push_row([
        format!("Grid ({machines} machines, LPT)"),
        fmt_duration(lpt[0].makespan),
        fmt_duration(lpt[1].makespan),
        fmt_duration(lpt[2].makespan),
    ]);
    table.push_row([
        "Speedup (LPT)".to_owned(),
        format!("{:.1}x", lpt[0].speedup),
        format!("{:.1}x", lpt[1].speedup),
        format!("{:.1}x", lpt[2].speedup),
    ]);
    table.push_row([
        "Mean skew (LPT)".to_owned(),
        fmt_ratio(lpt[0].mean_skew),
        fmt_ratio(lpt[1].mean_skew),
        fmt_ratio(lpt[2].mean_skew),
    ]);
    table.push_row([
        "Rounds".to_owned(),
        random[0].rounds.to_string(),
        random[1].rounds.to_string(),
        random[2].rounds.to_string(),
    ]);
    println!(
        "\nTable 1 — running times: single machine vs simulated grid \
         (overhead {}/round; SMP/MMP replay a {shards}-shard run, one round per \
         non-empty epoch; random = the paper's placement, LPT = em_shard's balancer)",
        fmt_duration(overhead)
    );
    print!("{}", table.render());

    run_replan_section(&w, shards);
}
