//! NO-MP: independent neighborhood runs, no message passing.
//!
//! The paper's baseline (§6.1): the matcher runs once on every
//! neighborhood with only the user-provided evidence, and the outputs are
//! unioned. Sound for well-behaved matchers (each neighborhood run is a
//! restriction of the full run) but misses every cross-neighborhood
//! inference.

use crate::cover::Cover;
use crate::dataset::Dataset;
use crate::evidence::Evidence;
use crate::matcher::{MatchOutput, Matcher};
use crate::pair::PairSet;
use std::time::Instant;

use super::EvidenceIncidence;

/// The NO-MP engine: run `matcher` independently on every neighborhood
/// of `cover`, one call each, and union the outputs. The `em::Pipeline`
/// front door (umbrella crate) calls this hook for `Scheme::NoMp`.
pub fn no_mp_baseline(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    cover: &Cover,
    evidence: &Evidence,
) -> MatchOutput {
    let start = Instant::now();
    let mut out = MatchOutput::default();
    let mut incidence = EvidenceIncidence::new(evidence);
    for id in cover.ids() {
        let view = cover.view(dataset, id);
        let local_evidence = incidence.restrict(evidence, &view);
        out.stats.record_evaluation(&view, &local_evidence);
        let matches = matcher.match_view(&view, &local_evidence);
        out.matches.union_with(&matches);
    }
    // The matcher echoes positive evidence back per-view; keep the output
    // limited to real decisions plus the evidence the caller supplied.
    out.matches.union_with(&evidence.positive);
    let negative: PairSet = evidence.negative.iter().collect();
    for p in negative.iter() {
        out.matches.remove(p);
    }
    out.stats.wall_time = start.elapsed();
    out
}
