//! A timing decorator around any [`ProbabilisticMatcher`]: the em-mln
//! layer's span, recorded from outside the crate.
//!
//! [`TimedMatcher`] delegates every trait method — including the ones
//! with defaults (`probe_certificate`, `invalidate_caches`, `name`) and
//! the scorer's `touched_weight` — so a decorated session computes
//! exactly what the plain one does (walksat's certificate gate sees the
//! inner matcher's certificates, not the trait's `None` default). The
//! counters are relaxed atomics: they publish nothing but themselves,
//! and sharded runs call the matcher from several threads.

use em_core::{
    Dataset, Evidence, GlobalScorer, Matcher, Pair, PairSet, ProbabilisticMatcher, Score, View,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One span's accumulated busy time and call count.
#[derive(Debug, Default)]
pub struct Span {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Busy seconds summed over calls (and threads).
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// The em-mln layer's spans, shared by a [`TimedMatcher`] and every
/// scorer it hands out.
#[derive(Debug, Default)]
pub struct MlnSpans {
    /// `Matcher::match_view`.
    pub match_view: Span,
    /// `probe_entailed` + `probe_certificate`.
    pub probe: Span,
    /// Pairs probed by those calls.
    probe_pairs: AtomicU64,
    /// `ProbabilisticMatcher::log_score`.
    pub log_score: Span,
    /// `ProbabilisticMatcher::global_scorer`.
    pub scorer_build: Span,
    /// `GlobalScorer::delta` and `score`.
    pub score_delta: Span,
    /// `GlobalScorer::affected_pairs` and `touched_weight`.
    pub affected_pairs: Span,
}

impl MlnSpans {
    /// Pairs passed to the probe calls.
    pub fn probe_pairs(&self) -> u64 {
        self.probe_pairs.load(Ordering::Relaxed)
    }

    /// Busy seconds over every span (summed over threads).
    pub fn total_seconds(&self) -> f64 {
        [
            &self.match_view,
            &self.probe,
            &self.log_score,
            &self.scorer_build,
            &self.score_delta,
            &self.affected_pairs,
        ]
        .iter()
        .map(|s| s.seconds())
        .sum()
    }
}

/// Times every call into `M`; see the [module docs](self).
pub struct TimedMatcher<M> {
    inner: M,
    spans: Arc<MlnSpans>,
}

impl<M> TimedMatcher<M> {
    /// Decorate `inner`, recording into `spans`.
    pub fn new(inner: M, spans: Arc<MlnSpans>) -> Self {
        Self { inner, spans }
    }
}

impl<M: Matcher> Matcher for TimedMatcher<M> {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        self.spans
            .match_view
            .time(|| self.inner.match_view(view, evidence))
    }

    fn probe_entailed(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Vec<Vec<Pair>> {
        self.spans
            .probe_pairs
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        self.spans
            .probe
            .time(|| self.inner.probe_entailed(view, evidence, base, probes))
    }

    fn probe_certificate(
        &self,
        view: &View<'_>,
        evidence: &Evidence,
        base: &PairSet,
        probes: &[Pair],
    ) -> Option<Vec<(Vec<Pair>, Score)>> {
        self.spans
            .probe_pairs
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        self.spans
            .probe
            .time(|| self.inner.probe_certificate(view, evidence, base, probes))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invalidate_caches(&self) {
        self.inner.invalidate_caches()
    }
}

impl<M: ProbabilisticMatcher> ProbabilisticMatcher for TimedMatcher<M> {
    fn log_score(&self, view: &View<'_>, matches: &PairSet) -> Score {
        self.spans
            .log_score
            .time(|| self.inner.log_score(view, matches))
    }

    fn global_scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> Box<dyn GlobalScorer + Send + Sync + 'a> {
        let inner = self
            .spans
            .scorer_build
            .time(|| self.inner.global_scorer(dataset));
        Box::new(TimedScorer {
            inner,
            spans: &self.spans,
        })
    }
}

struct TimedScorer<'a> {
    inner: Box<dyn GlobalScorer + Send + Sync + 'a>,
    spans: &'a MlnSpans,
}

impl GlobalScorer for TimedScorer<'_> {
    fn delta(&self, base: &PairSet, added: &[Pair]) -> Score {
        self.spans
            .score_delta
            .time(|| self.inner.delta(base, added))
    }

    fn score(&self, matches: &PairSet) -> Score {
        self.spans.score_delta.time(|| self.inner.score(matches))
    }

    fn affected_pairs(&self, pair: Pair) -> Vec<Pair> {
        self.spans
            .affected_pairs
            .time(|| self.inner.affected_pairs(pair))
    }

    fn touched_weight(&self, pair: Pair) -> Score {
        self.spans
            .affected_pairs
            .time(|| self.inner.touched_weight(pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em::{DatasetDelta, MatcherChoice, Pipeline, Scheme};
    use em_datagen::{generate, DatasetProfile};
    use em_mln::{InferenceBackend, LocalSearchParams, MlnMatcher, MlnModel};

    fn mln(dataset: &Dataset, walksat: bool) -> MlnMatcher {
        let coauthor = dataset
            .relations
            .relation_id("coauthor")
            .expect("dataset declares coauthor");
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

    fn plain(walksat: bool) -> MatcherChoice {
        if walksat {
            MatcherChoice::MlnWalksat
        } else {
            MatcherChoice::MlnExact
        }
    }

    #[test]
    fn decorated_session_agrees_on_the_paper_example() {
        for walksat in [false, true] {
            let (dataset, cover, _, _) = em_core::testing::paper_example();
            let spans = Arc::new(MlnSpans::default());
            let timed = TimedMatcher::new(mln(&dataset, walksat), Arc::clone(&spans));
            let mut a = Pipeline::new(dataset.clone())
                .cover(cover.clone())
                .matcher(plain(walksat))
                .scheme(Scheme::Mmp)
                .build()
                .expect("plain session builds");
            let mut b = Pipeline::new(dataset)
                .cover(cover)
                .matcher(MatcherChoice::custom_probabilistic(timed))
                .scheme(Scheme::Mmp)
                .build()
                .expect("decorated session builds");
            let (ra, rb) = (a.run(), b.run());
            assert_eq!(ra.matches, rb.matches, "walksat={walksat}");
            assert_eq!(a.state_digest(), b.state_digest(), "walksat={walksat}");
            assert!(spans.match_view.calls() > 0);
            assert!(spans.scorer_build.calls() > 0);
        }
    }

    #[test]
    fn decorated_session_agrees_on_a_churn_script() {
        let template = generate(&DatasetProfile::hepth().scaled(0.002).with_seed(11)).dataset;
        let n = template.entities.len() as u32;
        let (initial, deltas) = DatasetDelta::churn_script(&template, n * 3 / 5, 4, 0.05, 11);
        for walksat in [false, true] {
            let spans = Arc::new(MlnSpans::default());
            let timed = TimedMatcher::new(mln(&initial, walksat), Arc::clone(&spans));
            let mut a = Pipeline::new(initial.clone())
                .matcher(plain(walksat))
                .build()
                .expect("plain session builds");
            let mut b = Pipeline::new(initial.clone())
                .matcher(MatcherChoice::custom_probabilistic(timed))
                .build()
                .expect("decorated session builds");
            a.run();
            b.run();
            assert_eq!(a.state_digest(), b.state_digest(), "walksat={walksat}");
            for (step, delta) in deltas.iter().enumerate() {
                a.update(delta);
                b.update(delta);
                let (ra, rb) = (a.run(), b.run());
                assert_eq!(ra.matches, rb.matches, "walksat={walksat} step={step}");
                assert_eq!(
                    a.state_digest(),
                    b.state_digest(),
                    "walksat={walksat} step={step}"
                );
            }
            assert!(spans.probe.calls() > 0, "walksat={walksat}: MMP probed");
            let timed = TimedMatcher::new(mln(&initial, walksat), spans);
            assert_eq!(timed.name(), mln(&initial, walksat).name());
        }
    }
}
