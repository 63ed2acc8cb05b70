//! Entity-indexed evidence: restrict `V+` / `V−` to one view by walking
//! the view's members, not the whole set.
//!
//! [`View::restrict`] filters every pair of a set, so a scheme that
//! restricts a growing `M+` once per neighborhood pays
//! O(#neighborhoods × |M+|). [`EvidenceIncidence`] keeps each pair in a
//! per-entity incidence list under its `lo` endpoint; restricting to a
//! view then costs the members' evidence degree. Later positive pairs are
//! folded in lazily from the accumulator's insertion log (every tracked
//! mutator appends to it), so a driver pays only for what arrived since
//! its last restriction. [`View::restrict`] stays the reference the
//! tests compare against.

use crate::dataset::View;
use crate::evidence::Evidence;
use crate::pair::{Pair, PairSet};

/// Per-entity incidence lists over one [`Evidence`] value's pairs.
///
/// Every call must pass the same evidence value the index was built
/// over. Lists may hold pairs that were since retracted, and a pair
/// re-inserted after a retraction twice; [`EvidenceIncidence::restrict`]
/// keeps only pairs still in the set, so neither reaches its output.
#[derive(Debug, Default)]
pub(crate) struct EvidenceIncidence {
    /// `positive[e]`: positive pairs whose `lo` endpoint is `e`.
    positive: Vec<Vec<Pair>>,
    /// Insertion-log entries already folded into `positive`.
    folded: usize,
    /// `negative[e]`: negative pairs whose `lo` endpoint is `e`. Indexed
    /// once: the schemes never add negative evidence.
    negative: Vec<Vec<Pair>>,
}

impl EvidenceIncidence {
    /// Index both sets of `evidence` as they stand, and mark its
    /// insertion log as folded. Indexing the positive *set* rather than
    /// the log also covers untracked evidence, whose log is empty.
    pub(crate) fn new(evidence: &Evidence) -> Self {
        let (log, ..) = evidence.epoch_parts();
        let mut index = Self {
            folded: log.len(),
            ..Self::default()
        };
        for p in evidence.positive.iter() {
            push(&mut index.positive, p);
        }
        for p in evidence.negative.iter() {
            push(&mut index.negative, p);
        }
        index
    }

    /// `evidence` restricted to `view`, as untracked matcher input —
    /// equal to `View::restrict` of each set. First folds in the
    /// insertion-log entries logged since the last call.
    pub(crate) fn restrict(&mut self, evidence: &Evidence, view: &View<'_>) -> Evidence {
        let (log, ..) = evidence.epoch_parts();
        for &p in &log[self.folded..] {
            push(&mut self.positive, p);
        }
        self.folded = log.len();
        Evidence::untracked(
            gather(&self.positive, &evidence.positive, view),
            gather(&self.negative, &evidence.negative, view),
        )
    }
}

fn push(lists: &mut Vec<Vec<Pair>>, p: Pair) {
    let lo = p.lo().index();
    if lo >= lists.len() {
        lists.resize_with(lo + 1, Vec::new);
    }
    lists[lo].push(p);
}

/// The pairs listed under `view`'s members whose `hi` endpoint is a
/// member too and which are still in `set`.
fn gather(lists: &[Vec<Pair>], set: &PairSet, view: &View<'_>) -> PairSet {
    let mut out = PairSet::new();
    for &e in view.members() {
        for &p in lists.get(e.index()).map_or(&[][..], Vec::as_slice) {
            if view.contains(p.hi()) && set.contains(p) {
                out.insert(p);
            }
        }
    }
    out
}
