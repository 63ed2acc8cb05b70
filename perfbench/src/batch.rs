//! The batch workloads: generate a dataset from the seed, then time
//! cold `Pipeline::build` + `MatchSession::run` repetitions on it.
//!
//! The program receives only the generated [`Dataset`] and the
//! blocking configuration `em_bench::prepare` uses, so feature
//! interning and blocking count as program work. The traced pass times
//! each layer's public entry point from outside: the feature cache,
//! canopy blocking, the dependency index, the em-mln layer through
//! [`TimedMatcher`], and the framework's remainder.

use crate::report::{cpu_seconds, peak_rss_mb, reset_peak_rss, Report};
use crate::stats::{mean, median};
use crate::timed::{MlnSpans, TimedMatcher};
use em::{Backend, BackendReport, MatchOutcome, MatchSession, MatcherChoice, Pipeline, Scheme};
use em_bench::profile_by_name;
use em_blocking::{block_dataset_with_features, BlockingConfig, SimilarityKernel};
use em_core::{Dataset, DependencyIndex, PairSet};
use em_datagen::generator::render;
use em_datagen::{generate_world, GeneratedDataset, GroundTruth};
use em_mln::{InferenceBackend, LocalSearchParams, MlnMatcher, MlnModel};
use em_similarity::{FeatureCache, FeatureConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Noise seeds reserved per run seed: input `i` of seed `s` is rendered
/// with noise seed [`input_seed`]`(s, i)`, `i < MAX_INPUTS`.
const MAX_INPUTS: usize = 16;

/// The noise seed of input `i` of a run with seed `seed`; input 0 is
/// the one the traced run uses.
fn input_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(MAX_INPUTS as u64).wrapping_add(i)
}

/// One batch workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Datagen profile.
    pub profile: &'static str,
    /// Profile scale.
    pub scale: f64,
    /// MaxWalkSAT-style local search instead of exact min-cut.
    pub walksat: bool,
    /// Execution backend.
    pub backend: Backend,
    /// Inputs an untraced run cycles over (at most [`MAX_INPUTS`]):
    /// enough to average out how run time varies with the seed's noise,
    /// few enough that each gets at least two repetitions.
    pub inputs: usize,
}

impl BatchSpec {
    fn shards(&self) -> usize {
        match self.backend {
            Backend::Sharded { shards, .. } => shards,
            _ => 1,
        }
    }
}

/// The blocking configuration `em_bench::prepare` uses.
pub fn blocking_config() -> BlockingConfig {
    BlockingConfig {
        kernel: SimilarityKernel::AuthorName,
        dedupe_pair_scores: true,
        ..Default::default()
    }
}

fn mln_matcher(dataset: &Dataset, walksat: bool) -> MlnMatcher {
    let coauthor = dataset
        .relations
        .relation_id("coauthor")
        .expect("generated datasets declare coauthor");
    let model = MlnModel::paper_model(coauthor);
    if walksat {
        MlnMatcher::with_backend(
            model,
            InferenceBackend::LocalSearch(LocalSearchParams::default()),
        )
    } else {
        MlnMatcher::new(model)
    }
}

fn pipeline(dataset: Dataset, matcher: MatcherChoice, backend: Backend) -> Pipeline {
    Pipeline::new(dataset)
        .blocking(blocking_config())
        .matcher(matcher)
        .scheme(Scheme::Mmp)
        .backend(backend)
}

fn plain_matcher(spec: &BatchSpec) -> MatcherChoice {
    if spec.walksat {
        MatcherChoice::MlnWalksat
    } else {
        MatcherChoice::MlnExact
    }
}

/// One input's samples over an untraced run.
#[derive(Debug, Clone, Default)]
struct Samples {
    setup: Vec<f64>,
    run: Vec<f64>,
    run_cpu: Vec<f64>,
    rss: Vec<f64>,
}

/// One cold build + run, timed.
struct Cold {
    setup_s: f64,
    run_s: f64,
    /// CPU time the run consumed, all threads.
    run_cpu_s: f64,
    session: MatchSession,
    outcome: MatchOutcome,
}

fn cold(dataset: &Dataset, matcher: MatcherChoice, backend: Backend) -> Option<Cold> {
    let input = dataset.clone();
    let t = Instant::now();
    let built = pipeline(input, matcher, backend).build();
    let setup_s = t.elapsed().as_secs_f64();
    let mut session = match built {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pipeline build failed: {e}");
            return None;
        }
    };
    let cpu = cpu_seconds();
    let t = Instant::now();
    let outcome = session.run();
    let run_s = t.elapsed().as_secs_f64();
    let run_cpu_s = match (cpu, cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    Some(Cold {
        setup_s,
        run_s,
        run_cpu_s,
        session,
        outcome,
    })
}

fn f1(matches: &PairSet, truth: &GroundTruth) -> f64 {
    em_eval::pairwise_metrics(matches, |p| truth.is_match(p), truth.true_pair_count()).f1()
}

/// The workload's input for `seed`: the profile's world (its authors,
/// papers and coauthorships, fixed per workload) rendered with
/// seed-drawn reference noise (abbreviations, typos, name-order swaps).
pub fn generate_input(profile: &str, scale: f64, seed: u64) -> GeneratedDataset {
    let profile = profile_by_name(profile).scaled(scale);
    let world = generate_world(&profile.world);
    render(&profile.with_seed(seed), &world)
}

/// The untraced run: cold repetitions until `seconds` have passed (at
/// least two per input), cycling over the spec's inputs drawn from the
/// seed. A timing is the median over an input's repetitions, averaged
/// over the inputs. Every repetition must reproduce the state digest of
/// its input's first one.
pub fn run(spec: &BatchSpec, seed: u64, seconds: f64, report: &mut Report) {
    // Only the dataset and its truth are kept: the harness's share of
    // the resident set stays small beside the program's.
    let inputs: Vec<(Dataset, GroundTruth)> = (0..spec.inputs.min(MAX_INPUTS) as u64)
        .map(|i| {
            let g = generate_input(spec.profile, spec.scale, input_seed(seed, i));
            (g.dataset, g.truth)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Samples> = vec![Samples::default(); inputs.len()];
    let mut first: Vec<Option<(String, PairSet)>> = vec![None; inputs.len()];
    let mut identical = true;
    let mut reps = 0;
    while reps < 2 * inputs.len() || Instant::now() < deadline {
        let i = reps % inputs.len();
        reps += 1;
        reset_peak_rss();
        let Some(c) = cold(&inputs[i].0, plain_matcher(spec), spec.backend) else {
            report.op(false);
            break;
        };
        report.op(true);
        eprintln!(
            "rep {reps} (input {i}): set-up {:.4} s, run {:.4} s, run cpu {:.2} s",
            c.setup_s, c.run_s, c.run_cpu_s
        );
        samples[i].setup.push(c.setup_s);
        samples[i].run.push(c.run_s);
        samples[i].run_cpu.push(c.run_cpu_s);
        samples[i].rss.extend(peak_rss_mb());
        let digest = c.session.state_digest();
        match &first[i] {
            None => first[i] = Some((digest, c.outcome.matches)),
            Some((d, m)) => identical &= *d == digest && *m == c.outcome.matches,
        }
    }
    report.check(
        "every cold repetition reproduces its input's first state digest",
        identical,
    );
    // Medians per input (host noise), averaged over inputs (input mix).
    let per_input = |field: fn(&Samples) -> &Vec<f64>| {
        mean(
            &samples
                .iter()
                .filter_map(|s| median(field(s)))
                .collect::<Vec<_>>(),
        )
    };
    let f1s: Vec<f64> = first
        .iter()
        .zip(&inputs)
        .filter_map(|(f, (_, truth))| f.as_ref().map(|(_, m)| f1(m, truth)))
        .collect();
    report.push("setup_s", "s", per_input(|s| &s.setup), reps);
    report.push("run_s", "s", per_input(|s| &s.run), reps);
    report.push("run_cpu_s", "s", per_input(|s| &s.run_cpu), reps);
    report.push("f1", "ratio", mean(&f1s), f1s.len());
    report.push("peak_rss_mb", "MiB", per_input(|s| &s.rss), reps);
}

/// The traced run: per-layer timings and counters, plus the identity
/// checks between the decorated and the plain session (and, for the
/// sharded backend, a sequential session).
pub fn run_traced(spec: &BatchSpec, seed: u64, report: &mut Report) {
    let GeneratedDataset { dataset, truth, .. } =
        generate_input(spec.profile, spec.scale, input_seed(seed, 0));
    let config = blocking_config();

    // similarity: the feature cache blocking interns the corpus into.
    let t = Instant::now();
    let features = FeatureCache::build(
        &dataset,
        &config.entity_type,
        &config.key_attr,
        FeatureConfig {
            ngram: config.canopy.ngram,
        },
    );
    report.push("similarity.build_s", "s", t.elapsed().as_secs_f64(), 1);
    report.push(
        "similarity.tokens",
        "count",
        features.token_interner().len() as f64,
        1,
    );

    // blocking, with that cache, then the dependency index over its cover.
    let mut blocked = dataset.clone();
    let t = Instant::now();
    let out = match block_dataset_with_features(&mut blocked, &config, Some(&features)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("blocking failed: {e}");
            report.op(false);
            return;
        }
    };
    report.push("blocking.block_s", "s", t.elapsed().as_secs_f64(), 1);
    report.push("blocking.canopies", "count", out.canopies as f64, 1);
    report.push(
        "blocking.candidate_pairs",
        "count",
        out.candidate_pairs as f64,
        1,
    );
    report.push("blocking.kernel_evals", "count", out.pairs_scored as f64, 1);
    report.push(
        "blocking.pair_scores_reused",
        "count",
        out.pair_scores_reused as f64,
        1,
    );
    let t = Instant::now();
    let index = DependencyIndex::build(&blocked, &out.cover);
    report.push("core.depindex_s", "s", t.elapsed().as_secs_f64(), 1);
    drop(index);

    // The untraced reference, then the decorated session.
    let Some(plain) = cold(&dataset, plain_matcher(spec), spec.backend) else {
        report.op(false);
        return;
    };
    report.op(true);
    let spans = Arc::new(MlnSpans::default());
    let timed = TimedMatcher::new(mln_matcher(&dataset, spec.walksat), Arc::clone(&spans));
    let Some(traced) = cold(
        &dataset,
        MatcherChoice::custom_probabilistic(timed),
        spec.backend,
    ) else {
        report.op(false);
        return;
    };
    report.op(true);
    report.check(
        "decorated run equals the plain run (state digest and matches)",
        traced.session.state_digest() == plain.session.state_digest()
            && traced.outcome.matches == plain.outcome.matches,
    );
    if spec.shards() > 1 {
        match cold(&dataset, plain_matcher(spec), Backend::Sequential) {
            Some(seq) => {
                report.op(true);
                report.check(
                    "sharded matches equal the sequential backend's",
                    seq.outcome.matches == plain.outcome.matches,
                );
            }
            None => report.op(false),
        }
    }

    // Blocking quality of the candidate set the session actually used.
    let candidates: Vec<_> = traced.session.dataset().candidate_pairs().collect();
    let true_candidates = candidates
        .iter()
        .filter(|(p, _)| truth.is_match(*p))
        .count();
    report.push(
        "blocking.recall",
        "ratio",
        true_candidates as f64 / truth.true_pair_count().max(1) as f64,
        1,
    );
    report.push(
        "blocking.precision",
        "ratio",
        true_candidates as f64 / candidates.len().max(1) as f64,
        1,
    );

    // em-mln.
    let shards = spec.shards() as f64;
    let run_s = traced.run_s;
    let mln_s = spans.total_seconds() / shards;
    report.push("mln.match_view_s", "s", spans.match_view.seconds(), 1);
    report.push(
        "mln.match_view_calls",
        "count",
        spans.match_view.calls() as f64,
        1,
    );
    report.push("mln.probe_s", "s", spans.probe.seconds(), 1);
    report.push("mln.probe_calls", "count", spans.probe.calls() as f64, 1);
    report.push("mln.probe_pairs", "count", spans.probe_pairs() as f64, 1);
    report.push("mln.scorer_build_s", "s", spans.scorer_build.seconds(), 1);
    report.push("mln.score_delta_s", "s", spans.score_delta.seconds(), 1);
    report.push(
        "mln.affected_pairs_s",
        "s",
        spans.affected_pairs.seconds(),
        1,
    );
    report.push("mln.share", "ratio", mln_s / run_s, 1);

    // em-shard.
    let mut idle_s = 0.0;
    if let BackendReport::Sharded(shard) = &traced.outcome.backend {
        let makespan = shard.makespan.as_secs_f64();
        let total = shard.total_work.as_secs_f64();
        idle_s = (shard.shards as f64 * makespan - total).max(0.0);
        report.push("shard.makespan_s", "s", makespan, 1);
        report.push("shard.total_work_s", "s", total, 1);
        report.push("shard.idle_s", "s", idle_s, 1);
        report.push("shard.busy_skew", "ratio", shard.busy_skew, 1);
        report.push("shard.epochs", "count", shard.epochs as f64, 1);
        report.push(
            "shard.cross_shard_pairs",
            "count",
            shard.cross_shard_pairs as f64,
            1,
        );
        report.push(
            "shard.largest_component",
            "count",
            shard.largest_component as f64,
            1,
        );
    }

    // em-core: counters, and the framework's remainder of the run wall
    // (per thread: em-mln busy time and shard idle time are summed over
    // shard threads).
    let stats = &traced.outcome.stats;
    let self_s = run_s - mln_s - idle_s / shards;
    report.push("core.self_s", "s", self_s, 1);
    for (name, value) in [
        ("core.matcher_calls", stats.matcher_calls),
        (
            "core.neighborhoods_processed",
            stats.neighborhoods_processed,
        ),
        ("core.messages_sent", stats.messages_sent),
        ("core.maximal_messages", stats.maximal_messages_created),
        ("core.promotions", stats.promotions),
        ("core.score_delta_calls", stats.score_delta_calls),
        ("core.conditioned_probes", stats.conditioned_probes),
        ("core.probes_replayed", stats.probes_replayed),
        ("core.rounds", stats.rounds),
    ] {
        report.push(name, "count", value as f64, 1);
    }
    let probes = stats.probes_replayed + stats.conditioned_probes;
    report.push(
        "core.probe_replay_ratio",
        "ratio",
        stats.probes_replayed as f64 / probes.max(1) as f64,
        1,
    );

    // trace: decorator overhead, and how much of the traced wall the
    // named layers (not the framework remainder) account for.
    report.push(
        "trace.overhead_pct",
        "%",
        (run_s / plain.run_s - 1.0) * 100.0,
        1,
    );
    let named = report.get("similarity.build_s").map_or(0.0, |m| m.value)
        + report.get("blocking.block_s").map_or(0.0, |m| m.value)
        + report.get("core.depindex_s").map_or(0.0, |m| m.value)
        + mln_s
        + idle_s / shards;
    report.push(
        "trace.coverage",
        "ratio",
        named / (traced.setup_s + run_s),
        1,
    );
    report.push("setup_s", "s", traced.setup_s, 1);
    report.push("run_s", "s", run_s, 1);
    report.push("run_s_untraced", "s", plain.run_s, 1);
    report.push("f1", "ratio", f1(&traced.outcome.matches, &truth), 1);
}
