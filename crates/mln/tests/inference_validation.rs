//! Cross-validation of the exact min-cut MAP solver against exhaustive
//! enumeration, and well-behavedness of the MLN matcher, on random
//! supermodular instances.

use em_core::cover::Cover;
use em_core::dataset::{Dataset, SimLevel};
use em_core::entity::EntityId;
use em_core::evidence::Evidence;
use em_core::framework::{mmp_with_order, no_mp_baseline, smp_with_order, MmpConfig};
use em_core::matcher::Matcher;
use em_core::pair::Pair;
use em_core::properties::{check_well_behaved, CheckConfig};
use em_core::Score;
use em_mln::{ground, solve_map, solve_map_brute_force, MlnMatcher, MlnModel, RelationalRule};
use proptest::prelude::*;

// Engine-hook shims (the plain free functions are deprecated in favour
// of `em::Pipeline`; these validation tests target the engines).
fn no_mp(
    matcher: &dyn Matcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
) -> em_core::MatchOutput {
    no_mp_baseline(matcher, ds, cover, ev)
}

fn smp(matcher: &dyn Matcher, ds: &Dataset, cover: &Cover, ev: &Evidence) -> em_core::MatchOutput {
    smp_with_order(matcher, ds, cover, ev, None)
}

fn mmp(
    matcher: &dyn em_core::ProbabilisticMatcher,
    ds: &Dataset,
    cover: &Cover,
    ev: &Evidence,
    config: &MmpConfig,
) -> em_core::MatchOutput {
    mmp_with_order(matcher, ds, cover, ev, config, None)
}

/// Random bibliographic-shaped instance: entities, symmetric relation
/// tuples, candidate pairs with levels, and model weights.
#[derive(Debug, Clone)]
struct RandomInstance {
    n: u32,
    /// (a, offset) coauthor edges; b = (a + 1 + offset) % n.
    coauthors: Vec<(u32, u32)>,
    /// (a, offset, level) candidate pairs.
    pairs: Vec<(u32, u32, u8)>,
    /// Similarity weights in milli-units for levels 1..=3.
    sim_weights: [i64; 3],
    /// Relational weight (> 0).
    rel_weight: i64,
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    sized_instance_strategy(5..10, 0..10, 1..9)
}

/// Instances with entity, coauthor-tuple and candidate-pair counts drawn
/// from the given ranges.
fn sized_instance_strategy(
    n: std::ops::Range<u32>,
    coauthors: std::ops::Range<usize>,
    pairs: std::ops::Range<usize>,
) -> impl Strategy<Value = RandomInstance> {
    n.prop_flat_map(move |n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n - 1), coauthors.clone()),
            proptest::collection::vec((0..n, 0..n - 1, 1u8..=3), pairs.clone()),
            [-6000i64..1000, -6000i64..1000, 0i64..13000],
            1i64..5000,
        )
            .prop_map(
                |(n, coauthors, pairs, sim_weights, rel_weight)| RandomInstance {
                    n,
                    coauthors,
                    pairs,
                    sim_weights,
                    rel_weight,
                },
            )
    })
}

fn build(instance: &RandomInstance) -> (Dataset, MlnModel) {
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..instance.n {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    for &(a, off) in &instance.coauthors {
        let b = (a + 1 + off) % instance.n;
        if a != b {
            ds.relations.add_tuple(co, EntityId(a), EntityId(b));
        }
    }
    for &(a, off, level) in &instance.pairs {
        let b = (a + 1 + off) % instance.n;
        if a != b {
            ds.set_similar(Pair::new(EntityId(a), EntityId(b)), SimLevel(level));
        }
    }
    let model = MlnModel {
        sim_weights: [
            Score::ZERO,
            Score(instance.sim_weights[0]),
            Score(instance.sim_weights[1]),
            Score(instance.sim_weights[2]),
        ],
        relational: vec![RelationalRule {
            relation: co,
            weight: Score(instance.rel_weight),
        }],
    };
    (ds, model)
}

/// The disjoint union of `parts` (entity ids offset, no relation tuple
/// or candidate pair across parts) under the given weights: no ground
/// hyperedge spans two parts.
fn build_union(
    parts: &[RandomInstance],
    sim_weights: [i64; 3],
    rel_weight: i64,
) -> (Dataset, MlnModel) {
    let (mut ds, model) = build(&RandomInstance {
        n: 0,
        coauthors: Vec::new(),
        pairs: Vec::new(),
        sim_weights,
        rel_weight,
    });
    let ty = ds.entities.intern_type("author_ref");
    let co = model.relational[0].relation;
    let mut offset = 0;
    for part in parts {
        for _ in 0..part.n {
            ds.entities.add_entity(ty);
        }
        let partner = |a: u32, off: u32| (a + 1 + off) % part.n;
        for &(a, off) in &part.coauthors {
            let b = partner(a, off);
            if a != b {
                ds.relations
                    .add_tuple(co, EntityId(offset + a), EntityId(offset + b));
            }
        }
        for &(a, off, level) in &part.pairs {
            let b = partner(a, off);
            if a != b {
                let p = Pair::new(EntityId(offset + a), EntityId(offset + b));
                ds.set_similar(p, SimLevel(level));
            }
        }
        offset += part.n;
    }
    (ds, model)
}

/// Cover by overlapping windows of 4 entities.
fn window_cover(n: u32) -> Cover {
    let mut nbhds: Vec<Vec<EntityId>> = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + 4).min(n);
        nbhds.push((start..end).map(EntityId).collect());
        if end == n {
            break;
        }
        start += 2; // 2-entity overlap
    }
    nbhds.push((0..n).step_by(3).map(EntityId).collect()); // extra overlap
    Cover::from_neighborhoods(nbhds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mincut_map_equals_brute_force(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let gm = ground(&model, &ds.full_view());
        prop_assume!(gm.var_count() <= 16);
        let exact = solve_map(&gm, &Evidence::none());
        let brute = solve_map_brute_force(&gm, &Evidence::none());
        // Same score AND same (maximal) set.
        prop_assert_eq!(
            gm.score_where(|p| exact.contains(p)),
            gm.score_where(|p| brute.contains(p)),
            "scores differ: mincut {} vs brute {}", exact, brute
        );
        prop_assert_eq!(&exact, &brute, "maximal optima differ");
    }

    #[test]
    fn mincut_map_equals_brute_force_under_evidence(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let gm = ground(&model, &ds.full_view());
        prop_assume!(gm.var_count() >= 2 && gm.var_count() <= 16);
        let mut vars = gm.vars.clone();
        vars.sort_unstable();
        let ev = Evidence::new(
            [vars[0]].into_iter().collect(),
            [vars[1]].into_iter().collect(),
        );
        let exact = solve_map(&gm, &ev);
        let brute = solve_map_brute_force(&gm, &ev);
        prop_assert_eq!(&exact, &brute);
        prop_assert!(exact.contains(vars[0]));
        prop_assert!(!exact.contains(vars[1]));
    }

    #[test]
    fn mln_matcher_is_well_behaved(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let cover = window_cover(instance.n);
        let report = check_well_behaved(&matcher, &ds, &cover, &CheckConfig {
            cases: 8,
            ..Default::default()
        });
        prop_assert!(report.is_well_behaved(), "violations: {:?}", report.violations);
    }

    #[test]
    fn framework_schemes_are_sound_with_mln(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let cover = window_cover(instance.n);
        let full = matcher.match_view(&ds.full_view(), &Evidence::none());
        let nomp_out = no_mp(&matcher, &ds, &cover, &Evidence::none());
        let smp_out = smp(&matcher, &ds, &cover, &Evidence::none());
        let mmp_out = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert!(nomp_out.matches.is_subset(&full));
        prop_assert!(smp_out.matches.is_subset(&full));
        prop_assert!(mmp_out.matches.is_subset(&full), "MMP {} ⊄ full {}", mmp_out.matches, full);
        prop_assert!(nomp_out.matches.is_subset(&smp_out.matches));
        prop_assert!(smp_out.matches.is_subset(&mmp_out.matches));
    }

    #[test]
    fn mmp_is_complete_on_total_covers(instance in instance_strategy()) {
        // On a *total* cover MMP should reach the full-run output for
        // these small instances (the paper observes completeness ≈ 1
        // empirically; here the instances are small enough that maximal
        // messages cover every correlated cluster).
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let cover = window_cover(instance.n).expand_to_total(&ds, 1);
        prop_assume!(cover.validate_total(&ds).is_ok());
        prop_assume!(cover.max_size() < instance.n as usize); // genuine split
        let full = matcher.match_view(&ds.full_view(), &Evidence::none());
        let mmp_out = mmp(&matcher, &ds, &cover, &Evidence::none(), &MmpConfig::default());
        prop_assert!(mmp_out.matches.is_subset(&full));
    }
}

#[test]
fn paper_example_mmp_with_mln_matcher_equals_full_run() {
    // Rebuild the §2.1 example with the *real* MLN matcher (not the
    // TableMatcher oracle) and check all three schemes reproduce §2.2.
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..9 {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    for (x, y) in [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 8)] {
        ds.relations.add_tuple(co, EntityId(x), EntityId(y));
    }
    for (x, y) in [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)] {
        ds.set_similar(Pair::new(EntityId(x), EntityId(y)), SimLevel(2));
    }
    let co = ds.relations.relation_id("coauthor").unwrap();
    let matcher = MlnMatcher::new(MlnModel::example_model(co));
    let e = EntityId;
    let cover = Cover::from_neighborhoods(vec![
        vec![e(0), e(1), e(3), e(4)],
        vec![e(2), e(3), e(4), e(5), e(6), e(7)],
        vec![e(5), e(6), e(8)],
    ]);

    let full = matcher.match_view(&ds.full_view(), &Evidence::none());
    assert_eq!(full.len(), 5);

    let nomp_out = no_mp(&matcher, &ds, &cover, &Evidence::none());
    assert_eq!(nomp_out.matches.len(), 1, "NO-MP: only (c1, c2)");

    let smp_out = smp(&matcher, &ds, &cover, &Evidence::none());
    assert_eq!(smp_out.matches.len(), 2, "SMP: + (b1, b2)");

    let mmp_out = mmp(
        &matcher,
        &ds,
        &cover,
        &Evidence::none(),
        &MmpConfig::default(),
    );
    assert_eq!(mmp_out.matches, full, "MMP: complete");
}

#[test]
fn global_scorer_promotion_check_is_exact_at_zero() {
    // A message whose delta is exactly zero must be promoted ("largest
    // most-likely set"): engineered with unary −w and bonus +w.
    let mut ds = Dataset::new();
    let ty = ds.entities.intern_type("author_ref");
    for _ in 0..4 {
        ds.entities.add_entity(ty);
    }
    let co = ds.relations.declare("coauthor", true);
    ds.relations.add_tuple(co, EntityId(0), EntityId(2));
    ds.relations.add_tuple(co, EntityId(1), EntityId(2));
    ds.set_similar(Pair::new(EntityId(0), EntityId(1)), SimLevel(1));
    let co = ds.relations.relation_id("coauthor").unwrap();
    let model = MlnModel {
        sim_weights: [Score::ZERO, Score(-1000), Score::ZERO, Score::ZERO],
        relational: vec![RelationalRule {
            relation: co,
            weight: Score(1000),
        }],
    };
    let matcher = MlnMatcher::new(model);
    let out = matcher.match_view(&ds.full_view(), &Evidence::none());
    assert!(
        out.contains(Pair::new(EntityId(0), EntityId(1))),
        "zero-delta pair belongs to the largest optimum"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental probe fast path must agree exactly with a fresh
    /// conditioned solve (it is the engine behind `COMPUTEMAXIMAL`).
    #[test]
    fn incremental_probe_equals_fresh_solve(instance in instance_strategy()) {
        let (ds, model) = build(&instance);
        let gm = ground(&model, &ds.full_view());
        prop_assume!(gm.var_count() >= 2);
        let evidence = Evidence::positive([gm.vars[0]].into_iter().collect());
        let mut solver = em_mln::MapSolver::new(&gm, &evidence);
        for &probe in gm.vars.iter().take(8) {
            let incremental = solver.probe(probe);
            let fresh = solve_map(&gm, &evidence.with_extra_positive(probe));
            prop_assert_eq!(&incremental, &fresh, "probe {} diverged", probe);
        }
    }

    /// The batched probe-entailment API must match the black-box loop.
    #[test]
    fn batched_probes_equal_blackbox_loop(instance in instance_strategy()) {
        use em_core::matcher::Matcher as _;
        let (ds, model) = build(&instance);
        let matcher = MlnMatcher::new(model);
        let view = ds.full_view();
        let probes: Vec<em_core::Pair> = ds.candidate_pairs().map(|(p, _)| p).collect();
        prop_assume!(!probes.is_empty());
        let evidence = Evidence::none();
        let base = matcher.match_view(&view, &evidence);
        let batched = matcher.probe_entailed(&view, &evidence, &base, &probes);
        for (i, &p) in probes.iter().enumerate() {
            let single: Vec<em_core::Pair> = matcher
                .match_view(&view, &evidence.with_extra_positive(p))
                .iter()
                .filter(|&q| !base.contains(q) && q != p)
                .collect();
            let mut got = batched[i].clone();
            got.sort_unstable();
            let mut want = single;
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a disjoint union of instances — several ground components,
    /// some cut further by evidence — every probe equals exhaustive
    /// enumeration under the extra positive evidence, and every delta
    /// comes back in ascending variable order.
    #[test]
    fn multi_component_probes_equal_brute_force(
        (parts, sim_weights, rel_weight, evidence_kind, pick) in (
            proptest::collection::vec(sized_instance_strategy(4..7, 4..14, 2..6), 2..=3),
            // Negative unaries that relational bonuses can flip, so that
            // probes entail other pairs.
            [-6000i64..-500, -6000i64..-500, -6000i64..-500],
            500i64..4000,
            0u8..4,
            0u32..1000,
        )
    ) {
        let (ds, model) = build_union(&parts, sim_weights, rel_weight);
        let gm = ground(&model, &ds.full_view());
        let n = gm.var_count() as u32;
        prop_assume!((2..=16).contains(&n));
        let positive = gm.vars[(pick % n) as usize];
        let negative = gm.vars[((pick + 1 + (pick / n) % (n - 1)) % n) as usize];
        let evidence = match evidence_kind {
            0 => Evidence::none(),
            1 => Evidence::positive([positive].into_iter().collect()),
            2 => Evidence::new(em_core::PairSet::new(), [negative].into_iter().collect()),
            _ => Evidence::new(
                [positive].into_iter().collect(),
                [negative].into_iter().collect(),
            ),
        };
        let mut solver = em_mln::MapSolver::new(&gm, &evidence);
        for &probe in &gm.vars {
            let delta = solver.probe_delta(probe);
            prop_assert!(
                delta.windows(2).all(|w| w[0] < w[1]),
                "probe {} delta out of order: {:?}", probe, delta
            );
            // Negative evidence wins over the probe.
            let want = if evidence.negative.contains(probe) {
                solve_map_brute_force(&gm, &evidence)
            } else {
                solve_map_brute_force(&gm, &evidence.with_extra_positive(probe))
            };
            prop_assert_eq!(&solver.probe(probe), &want, "probe {} diverged", probe);
        }
    }
}
