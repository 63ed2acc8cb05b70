//! Reference matchers for tests, examples, and cross-validation.
//!
//! * [`TableMatcher`] — a brute-force Type-II matcher over an explicit
//!   weighted model (unary pair weights + positive synergy hyperedges).
//!   It enumerates *all* assignments, so it is an exact oracle for the
//!   supermodular MAP semantics: larger crates (e.g. the MLN matcher's
//!   min-cut inference) are validated against it on random instances.
//!   It also directly encodes the paper's running example (§2.1, Figures
//!   1–2) with `R1 = −5`, `R2 = +8`.
//! * [`IterativeToyMatcher`] — a tiny iterative (Type-I) matcher in the
//!   style of Bhattacharya & Getoor: sim-3 pairs match outright, sim-2
//!   pairs match when a coauthor witness pair is matched; runs to fixpoint
//!   within the view. Monotone and idempotent by construction.
//!
//! The module lives in the library (not behind `cfg(test)`) because
//! downstream crates and examples use these matchers too.

use crate::dataset::{Dataset, View};
use crate::entity::EntityId;
use crate::evidence::Evidence;
use crate::hash::FxHashMap;
use crate::matcher::{GlobalScorer, Matcher, ProbabilisticMatcher, Score};
use crate::pair::{Pair, PairSet};
use crate::relation::RelationId;

/// A synergy hyperedge: weight `w > 0` awarded when every pair in `vars`
/// is matched, provided every entity in `required_entities` is present in
/// the view. The entity requirement models groundings whose witnesses are
/// non-candidate entities (e.g. the paper's `d1`, which makes
/// `Match(c1, c2)` profitable only inside neighborhoods containing `d1`).
#[derive(Debug, Clone)]
pub struct SynergyEdge {
    /// Pairs that must all be matched for the edge to fire.
    pub vars: Vec<Pair>,
    /// Entities that must be in the view for the edge to exist.
    pub required_entities: Vec<EntityId>,
    /// Positive weight.
    pub weight: Score,
}

/// Exact brute-force probabilistic matcher over an explicit model.
#[derive(Debug, Default, Clone)]
pub struct TableMatcher {
    unary: FxHashMap<Pair, Score>,
    edges: Vec<SynergyEdge>,
}

/// Brute force is exponential; cap the variable count loudly.
const MAX_BRUTE_FORCE_VARS: usize = 25;

impl TableMatcher {
    /// Empty model (every pair scores zero; nothing ever matches).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the unary weight of a pair (the net `R1`-style weight of
    /// matching it on its own).
    pub fn set_unary(&mut self, pair: Pair, weight: Score) -> &mut Self {
        self.unary.insert(pair, weight);
        self
    }

    /// Add a synergy edge.
    ///
    /// # Panics
    /// Panics if the weight is not strictly positive (negative synergies
    /// break supermodularity, and with it every guarantee this matcher is
    /// used to validate).
    pub fn add_edge(
        &mut self,
        vars: impl IntoIterator<Item = Pair>,
        required_entities: impl IntoIterator<Item = EntityId>,
        weight: Score,
    ) -> &mut Self {
        assert!(
            weight > Score::ZERO,
            "synergy edges must have positive weight"
        );
        self.edges.push(SynergyEdge {
            vars: vars.into_iter().collect(),
            required_entities: required_entities.into_iter().collect(),
            weight,
        });
        self
    }

    fn unary_of(&self, pair: Pair) -> Score {
        self.unary.get(&pair).copied().unwrap_or(Score::ZERO)
    }

    /// Edges whose requirements are satisfiable inside `view` over `vars`.
    fn active_edges<'a>(&'a self, view: &View<'_>, vars: &PairSet) -> Vec<&'a SynergyEdge> {
        self.edges
            .iter()
            .filter(|e| {
                e.required_entities.iter().all(|&ent| view.contains(ent))
                    && e.vars.iter().all(|p| vars.contains(*p))
            })
            .collect()
    }

    fn score_set(unary: &[Score], edges: &[(u32, Score)], mask: u32) -> Score {
        let mut total = Score::ZERO;
        for (i, u) in unary.iter().enumerate() {
            if mask & (1 << i) != 0 {
                total += *u;
            }
        }
        for &(edge_mask, w) in edges {
            if mask & edge_mask == edge_mask {
                total += w;
            }
        }
        total
    }
}

impl Matcher for TableMatcher {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        // Match variables: the view's candidate pairs minus hard negatives.
        let all_vars: PairSet = view.candidate_pairs().into_iter().map(|(p, _)| p).collect();
        let vars: PairSet = all_vars
            .iter()
            .filter(|p| !evidence.negative.contains(*p))
            .collect();
        let forced: Vec<Pair> = vars
            .iter()
            .filter(|p| evidence.positive.contains(*p))
            .collect();
        let mut free: Vec<Pair> = vars
            .iter()
            .filter(|p| !evidence.positive.contains(*p))
            .collect();
        free.sort_unstable();
        assert!(
            free.len() <= MAX_BRUTE_FORCE_VARS,
            "TableMatcher brute force limited to {MAX_BRUTE_FORCE_VARS} free vars, got {}",
            free.len()
        );

        let index: FxHashMap<Pair, usize> = free.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let unary: Vec<Score> = free.iter().map(|p| self.unary_of(*p)).collect();
        // Pre-translate edges into bitmasks over the free vars; edges with
        // a forced var drop that var, edges with a negative-evidence var
        // were already excluded by `vars`.
        let mut base = Score::ZERO;
        for p in &forced {
            base += self.unary_of(*p);
        }
        let mut edges: Vec<(u32, Score)> = Vec::new();
        'edge: for e in self.active_edges(view, &vars) {
            let mut mask = 0u32;
            for p in &e.vars {
                if evidence.positive.contains(*p) {
                    continue; // satisfied by evidence
                }
                match index.get(p) {
                    Some(&i) => mask |= 1 << i,
                    None => continue 'edge, // unreachable given active_edges
                }
            }
            if mask == 0 {
                base += e.weight; // fires unconditionally given evidence
            } else {
                edges.push((mask, e.weight));
            }
        }

        // Exhaustive search for the maximum; collect the union of all
        // maximizers. For supermodular models the union is itself optimal
        // ("largest most-likely set", Definition 5's tie-break).
        let mut best = Score::ZERO;
        let mut union_mask = 0u32;
        let mut best_mask = 0u32;
        for mask in 0..(1u32 << free.len()) {
            let s = Self::score_set(&unary, &edges, mask);
            match s.cmp(&best) {
                std::cmp::Ordering::Greater => {
                    best = s;
                    union_mask = mask;
                    best_mask = mask;
                }
                std::cmp::Ordering::Equal => {
                    union_mask |= mask;
                    if mask.count_ones() > best_mask.count_ones() {
                        best_mask = mask;
                    }
                }
                std::cmp::Ordering::Less => {}
            }
        }
        let chosen = if Self::score_set(&unary, &edges, union_mask) == best {
            union_mask
        } else {
            best_mask
        };
        let _ = base; // base shifts all assignments equally; irrelevant to argmax

        let mut out = PairSet::new();
        for (i, p) in free.iter().enumerate() {
            if chosen & (1 << i) != 0 {
                out.insert(*p);
            }
        }
        for p in forced {
            out.insert(p);
        }
        out
    }

    fn name(&self) -> &str {
        "table"
    }
}

impl ProbabilisticMatcher for TableMatcher {
    fn log_score(&self, view: &View<'_>, matches: &PairSet) -> Score {
        let vars: PairSet = view.candidate_pairs().into_iter().map(|(p, _)| p).collect();
        let mut total = Score::ZERO;
        for p in matches.iter() {
            if vars.contains(p) {
                total += self.unary_of(p);
            }
        }
        for e in self.active_edges(view, &vars) {
            if e.vars.iter().all(|p| matches.contains(*p)) {
                total += e.weight;
            }
        }
        total
    }

    fn global_scorer<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> Box<dyn GlobalScorer + Send + Sync + 'a> {
        Box::new(TableScorer {
            matcher: self,
            dataset,
        })
    }
}

/// Global scorer for [`TableMatcher`]: every edge is active (the full
/// dataset contains all entities).
struct TableScorer<'a> {
    matcher: &'a TableMatcher,
    dataset: &'a Dataset,
}

impl GlobalScorer for TableScorer<'_> {
    fn delta(&self, base: &PairSet, added: &[Pair]) -> Score {
        let mut added: Vec<Pair> = added
            .iter()
            .copied()
            .filter(|&p| !base.contains(p))
            .collect();
        added.sort_unstable();
        added.dedup();
        let mut total: Score = added
            .iter()
            .filter(|&&p| self.dataset.is_candidate(p))
            .map(|&p| self.matcher.unary_of(p))
            .sum();
        let in_new = |p: &Pair| base.contains(*p) || added.binary_search(p).is_ok();
        for e in &self.matcher.edges {
            let was_fired = e.vars.iter().all(|p| base.contains(*p));
            if !was_fired && e.vars.iter().all(in_new) {
                total += e.weight;
            }
        }
        total
    }

    fn score(&self, matches: &PairSet) -> Score {
        let mut total = Score::ZERO;
        for p in matches.iter() {
            if self.dataset.is_candidate(p) {
                total += self.matcher.unary_of(p);
            }
        }
        for e in &self.matcher.edges {
            if e.vars.iter().all(|p| matches.contains(*p)) {
                total += e.weight;
            }
        }
        total
    }

    fn affected_pairs(&self, pair: Pair) -> Vec<Pair> {
        let mut out: Vec<Pair> = self
            .matcher
            .edges
            .iter()
            .filter(|e| e.vars.contains(&pair))
            .flat_map(|e| e.vars.iter().copied())
            .filter(|&q| q != pair)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Iterative relational matcher (Type-I): sim-3 pairs match outright,
/// pairs at or above `witness_level` match once a coauthor witness pair is
/// matched (or the two sides share a witness entity). Runs to fixpoint.
#[derive(Debug, Clone)]
pub struct IterativeToyMatcher {
    relation: RelationId,
    /// Similarity level at which a pair matches unconditionally.
    pub direct_level: u8,
    /// Similarity level at which a witness suffices.
    pub witness_level: u8,
}

impl IterativeToyMatcher {
    /// Matcher using `relation` for witnesses, with the default levels
    /// (3 = direct, 2 = witness-supported).
    pub fn new(relation: RelationId) -> Self {
        Self {
            relation,
            direct_level: 3,
            witness_level: 2,
        }
    }

    fn has_witness(&self, view: &View<'_>, pair: Pair, matched: &PairSet) -> bool {
        let rels = &view.dataset().relations;
        for &c1 in rels.neighbors_out(self.relation, pair.lo()) {
            if !view.contains(c1) {
                continue;
            }
            for &c2 in rels.neighbors_out(self.relation, pair.hi()) {
                if !view.contains(c2) {
                    continue;
                }
                if c1 == c2 || matched.contains(Pair::new(c1, c2)) {
                    return true;
                }
            }
        }
        false
    }
}

impl Matcher for IterativeToyMatcher {
    fn match_view(&self, view: &View<'_>, evidence: &Evidence) -> PairSet {
        let candidates = view.candidate_pairs();
        let mut matched: PairSet = evidence
            .positive
            .iter()
            .filter(|p| view.contains_pair(*p) && !evidence.negative.contains(*p))
            .collect();
        // Direct matches first.
        for &(p, level) in &candidates {
            if level.0 >= self.direct_level && !evidence.negative.contains(p) {
                matched.insert(p);
            }
        }
        // Witness-supported matches to fixpoint.
        loop {
            let mut grew = false;
            for &(p, level) in &candidates {
                if level.0 >= self.witness_level
                    && !matched.contains(p)
                    && !evidence.negative.contains(p)
                    && self.has_witness(view, p, &matched)
                {
                    matched.insert(p);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        matched
    }

    fn name(&self) -> &str {
        "iterative-toy"
    }
}

/// Build the paper's running example (§2.1, Figures 1 and 2).
///
/// Returns `(dataset, cover, matcher, expected_full_run)` where the cover
/// is the three neighborhoods of Figure 2 and the matcher encodes
/// `R1 = −5`, `R2 = +8`. Entity ids: `a1,a2 = 0,1`, `b1,b2,b3 = 2,3,4`,
/// `c1,c2,c3 = 5,6,7`, `d1 = 8`.
pub fn paper_example() -> (Dataset, crate::cover::Cover, TableMatcher, PairSet) {
    use crate::dataset::SimLevel;

    let e = EntityId;
    let (a1, a2) = (e(0), e(1));
    let (b1, b2, b3) = (e(2), e(3), e(4));
    let (c1, c2, c3) = (e(5), e(6), e(7));
    let d1 = e(8);

    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..9 {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    for (x, y) in [
        (a1, b2),
        (a2, b3),
        (b1, c1),
        (b2, c2),
        (b3, c3),
        (c1, d1),
        (c2, d1),
    ] {
        ds.relations.add_tuple(co, x, y);
    }
    for (x, y) in [
        (a1, a2),
        (b1, b2),
        (b1, b3),
        (b2, b3),
        (c1, c2),
        (c1, c3),
        (c2, c3),
    ] {
        ds.set_similar(Pair::new(x, y), SimLevel(2));
    }

    let r1 = Score::from_weight(-5.0);
    let r2 = Score::from_weight(8.0);
    let mut matcher = TableMatcher::new();
    for (p, _) in ds.candidate_pairs() {
        matcher.set_unary(p, r1);
    }
    // R2 groundings (deduplicated by unordered variable set, as in the
    // paper's weight accounting):
    matcher.add_edge([Pair::new(a1, a2), Pair::new(b2, b3)], [], r2);
    matcher.add_edge([Pair::new(b2, b3), Pair::new(c2, c3)], [], r2);
    matcher.add_edge([Pair::new(b1, b2), Pair::new(c1, c2)], [], r2);
    matcher.add_edge([Pair::new(b1, b3), Pair::new(c1, c3)], [], r2);
    // Reflexive grounding via the shared coauthor d1: Match(c1, c2)
    // profits +8 in any view containing d1 (footnote 1 of the paper).
    matcher.add_edge([Pair::new(c1, c2)], [d1], r2);

    let cover = crate::cover::Cover::from_neighborhoods(vec![
        vec![a1, a2, b2, b3],
        vec![b1, b2, b3, c1, c2, c3],
        vec![c1, c2, d1],
    ]);

    let expected: PairSet = [
        Pair::new(c1, c2),
        Pair::new(b1, b2),
        Pair::new(a1, a2),
        Pair::new(b2, b3),
        Pair::new(c2, c3),
    ]
    .into_iter()
    .collect();

    (ds, cover, matcher, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SimLevel;

    fn e(id: u32) -> EntityId {
        EntityId(id)
    }

    #[test]
    fn paper_example_full_run_matches_walkthrough() {
        let (ds, _cover, matcher, expected) = paper_example();
        let full = ds.full_view();
        let out = matcher.match_view(&full, &Evidence::none());
        assert_eq!(out, expected, "full run must match §2.1's optimum");
        // And the optimum's score is +7 = 3 (c-pair via d1) + 3 (b1,b2 via
        // c-pair) + 1 (the three-pair chain).
        assert_eq!(matcher.log_score(&full, &out), Score::from_weight(7.0));
        assert_eq!(
            matcher.log_score(&full, &PairSet::new()),
            Score::ZERO,
            "empty assignment scores 0 as in the paper"
        );
    }

    #[test]
    fn table_matcher_respects_negative_evidence() {
        let (ds, _cover, matcher, _) = paper_example();
        let full = ds.full_view();
        let neg: PairSet = [Pair::new(e(5), e(6))].into_iter().collect();
        let out = matcher.match_view(&full, &Evidence::new(PairSet::new(), neg));
        assert!(!out.contains(Pair::new(e(5), e(6))));
        // Without (c1,c2), (b1,b2) loses its synergy and must drop too.
        assert!(!out.contains(Pair::new(e(2), e(3))));
        // The chain is independent of (c1,c2) and survives.
        assert!(out.contains(Pair::new(e(0), e(1))));
    }

    #[test]
    fn table_matcher_echoes_positive_evidence() {
        let (ds, cover, matcher, _) = paper_example();
        let view = cover.view(&ds, crate::cover::NeighborhoodId(0));
        let pos: PairSet = [Pair::new(e(3), e(4))].into_iter().collect();
        let out = matcher.match_view(&view, &Evidence::positive(pos));
        assert!(out.contains(Pair::new(e(3), e(4))));
        // With (b2,b3) given, (a1,a2) becomes profitable inside C1.
        assert!(out.contains(Pair::new(e(0), e(1))));
    }

    #[test]
    fn global_scorer_delta_matches_absolute_scores() {
        let (ds, _cover, matcher, expected) = paper_example();
        let scorer = matcher.global_scorer(&ds);
        let empty = PairSet::new();
        let all: Vec<Pair> = expected.to_sorted_vec();
        assert_eq!(scorer.delta(&empty, &all), scorer.score(&expected));
        // Chain alone has delta +1.
        let chain = [
            Pair::new(e(0), e(1)),
            Pair::new(e(3), e(4)),
            Pair::new(e(6), e(7)),
        ];
        assert_eq!(scorer.delta(&empty, &chain), Score::from_weight(1.0));
        // A single chain pair alone has delta −5.
        assert_eq!(scorer.delta(&empty, &chain[..1]), Score::from_weight(-5.0));
    }

    #[test]
    fn global_scorer_delta_counts_a_repeated_added_pair_once() {
        let (ds, _cover, matcher, _) = paper_example();
        let scorer = matcher.global_scorer(&ds);
        let a1a2 = Pair::new(e(0), e(1));
        assert_eq!(
            scorer.delta(&PairSet::new(), &[a1a2, a1a2]),
            Score::from_weight(-5.0)
        );
    }

    #[test]
    fn iterative_toy_matcher_fixpoint() {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..6 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        // Two "J. Doe"s (0,1) with coauthors "M. Smith"s (2,3); smiths are
        // sim-3, does are sim-2.
        ds.relations.add_tuple(co, e(0), e(2));
        ds.relations.add_tuple(co, e(1), e(3));
        ds.set_similar(Pair::new(e(2), e(3)), SimLevel(3));
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(2));
        let matcher = IterativeToyMatcher::new(co);
        let out = matcher.match_view(&ds.full_view(), &Evidence::none());
        assert!(out.contains(Pair::new(e(2), e(3))), "direct sim-3 match");
        assert!(
            out.contains(Pair::new(e(0), e(1))),
            "witness-supported match propagates"
        );
    }

    #[test]
    fn iterative_toy_matcher_shared_witness_entity() {
        let mut ds = Dataset::new();
        let ty = ds.entities.intern_type("author_ref");
        for _ in 0..3 {
            ds.entities.add_entity(ty);
        }
        let co = ds.relations.declare("coauthor", true);
        ds.relations.add_tuple(co, e(0), e(2));
        ds.relations.add_tuple(co, e(1), e(2));
        ds.set_similar(Pair::new(e(0), e(1)), SimLevel(2));
        let matcher = IterativeToyMatcher::new(co);
        let out = matcher.match_view(&ds.full_view(), &Evidence::none());
        assert!(out.contains(Pair::new(e(0), e(1))));
    }
}
