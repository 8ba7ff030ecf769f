//! Successive halving (SH) and the paper's modified successive halving
//! (MSH) over hardware sessions.
//!
//! Given a batch of `N` hardware candidates, mapping search proceeds in
//! `⌈log₂ N⌉` rounds of doubling per-job budget; after each round only a
//! fraction of candidates survives. Plain SH promotes the best `k = N/2`
//! by terminal value (TV). MSH reserves `p = ⌊0.15·N⌋` of those slots for
//! the steepest convergers by AUC (Fig. 4), giving fast-improving
//! candidates a second chance.
//!
//! Promotion keys (TV and AUC at the round budget) are computed **once
//! per candidate** before sorting: both are O(budget) history scans, so
//! evaluating them inside sort comparators — as the seed did — turns
//! promotion into `O(n log n · b_max)` history walks per round.

use unico_model::Platform;

use crate::engine::MappingEngine;
use crate::env::HwSession;
use crate::fault::FaultContext;
use crate::pool::advance_with_engine;
use crate::telemetry::{Counter, Telemetry};

/// Configuration of a successive-halving run.
#[derive(Debug, Clone, Copy)]
pub struct ShConfig {
    /// Maximum per-job mapping-search budget (`b_max`).
    pub b_max: u64,
    /// Fraction of each round's survivor slots reserved for AUC-based
    /// promotion (`p/N`). `0.0` recovers plain SH; UNICO uses `0.15`.
    pub auc_fraction: f64,
    /// Lower bound on any round's budget.
    pub min_budget: u64,
}

impl ShConfig {
    /// Plain successive halving with the given maximum budget.
    pub fn plain(b_max: u64) -> Self {
        ShConfig {
            b_max,
            auc_fraction: 0.0,
            min_budget: 8,
        }
    }

    /// The paper's modified successive halving (`p = 0.15 N`).
    pub fn modified(b_max: u64) -> Self {
        ShConfig {
            b_max,
            auc_fraction: 0.15,
            min_budget: 8,
        }
    }
}

/// Outcome of one SH/MSH run.
#[derive(Debug, Clone)]
pub struct ShOutcome {
    /// Indices of the sessions that survived to the final budget.
    pub finalists: Vec<usize>,
    /// The budget each round ran to (last = `b_max`).
    pub round_budgets: Vec<u64>,
    /// Panics contained during the run: mapping searches caught in
    /// their jobs and injected worker panics (those sessions are
    /// poisoned and assess as infeasible).
    pub contained_panics: u64,
}

/// Runs SH/MSH over `sessions`, advancing survivors on the given
/// persistent engine (the paper's slave pool, Fig. 6) and recording
/// counters into `telemetry`. All sessions retain their (partial)
/// histories so the caller can still assess early-stopped candidates.
///
/// With a fault-injection context, every round's advance goes through
/// [`advance_with_engine`], which retries transient failures and
/// quarantines sessions that exhaust their retries. Poisoned sessions
/// stay in the candidate set but assess as infeasible, so promotion
/// naturally drops them.
///
/// # Panics
///
/// Panics if `sessions` is empty.
pub fn run<P: Platform>(
    sessions: &mut [HwSession<'_, P>],
    cfg: &ShConfig,
    engine: &MappingEngine,
    telemetry: &Telemetry,
    faults: Option<&FaultContext>,
) -> ShOutcome
where
    P::Hw: Send,
{
    assert!(!sessions.is_empty(), "successive halving needs candidates");
    let n = sessions.len();
    let rounds = (usize::BITS - (n - 1).leading_zeros()).max(1); // ceil(log2 n)
    let mut alive: Vec<bool> = vec![true; n];
    let mut round_budgets = Vec::new();
    let mut contained_panics = 0u64;
    // Gradient-search counters are cumulative per searcher; snapshot so
    // only this run's progress is booked even on resumed sessions.
    let mut gradient_before = unico_mapping::GradientStats::default();
    for s in sessions.iter() {
        gradient_before.absorb(&s.gradient_stats());
    }

    for j in 1..=rounds {
        let budget = (cfg.b_max >> (rounds - j)).max(cfg.min_budget).max(1);
        round_budgets.push(budget);
        contained_panics +=
            advance_with_engine(engine, sessions, &alive, budget, faults, telemetry);
        telemetry.add(Counter::ShRounds, 1);
        if j == rounds {
            break;
        }
        let survivors: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        let selected = select_survivors(sessions, &survivors, budget, cfg.auc_fraction, telemetry);
        for flag in alive.iter_mut() {
            *flag = false;
        }
        for &i in &selected {
            alive[i] = true;
        }
    }

    let mut gradient_after = unico_mapping::GradientStats::default();
    for s in sessions.iter() {
        gradient_after.absorb(&s.gradient_stats());
    }
    telemetry.add_gradient_stats(gradient_after.delta_since(&gradient_before));

    ShOutcome {
        finalists: (0..n).filter(|&i| alive[i]).collect(),
        round_budgets,
        contained_panics,
    }
}

/// Survivor-slot split of one halving round over `n` candidates: `k`
/// total survivors, of which at most `p` come through the AUC-reserved
/// slots.
pub fn promotion_quota(n: usize, auc_fraction: f64) -> (usize, usize) {
    let k = (n / 2).max(1);
    let p = ((auc_fraction * n as f64).floor() as usize).min(k.saturating_sub(1));
    (k, p)
}

/// Result of [`select_by_keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Chosen positions (into the key slices), in selection order.
    pub selected: Vec<usize>,
    /// How many of [`Selection::selected`] entered through the
    /// AUC-reserved slots (never exceeds `p`).
    pub promoted_by_auc: usize,
}

/// The TV ∪ AUC promotion rule over precomputed per-candidate keys:
/// `k − p` slots by ascending terminal value, then up to `p` slots by
/// descending AUC (skipping candidates already chosen), topping up from
/// TV order if the AUC pass only produced duplicates.
///
/// Pure and deterministic — property tests exercise it directly.
///
/// # Panics
///
/// Panics if the key slices differ in length, are empty, or `k == 0`.
pub fn select_by_keys(tv: &[f64], auc: &[f64], k: usize, p: usize) -> Selection {
    assert_eq!(tv.len(), auc.len(), "key slices must align");
    assert!(!tv.is_empty(), "selection needs candidates");
    assert!(k > 0, "selection needs at least one survivor slot");
    let k = k.min(tv.len());
    let p = p.min(k.saturating_sub(1));

    let mut by_tv: Vec<usize> = (0..tv.len()).collect();
    by_tv.sort_by(|&a, &b| {
        tv[a]
            .partial_cmp(&tv[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut selected: Vec<usize> = by_tv.iter().copied().take(k - p).collect();
    let mut promoted_by_auc = 0usize;

    if p > 0 {
        let mut by_auc: Vec<usize> = (0..auc.len()).collect();
        by_auc.sort_by(|&a, &b| {
            auc[b]
                .partial_cmp(&auc[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in by_auc {
            if selected.len() >= k {
                break;
            }
            if !selected.contains(&i) {
                selected.push(i);
                promoted_by_auc += 1;
            }
        }
        // Top up from TV order if AUC produced duplicates only.
        for i in by_tv {
            if selected.len() >= k {
                break;
            }
            if !selected.contains(&i) {
                selected.push(i);
            }
        }
    }
    Selection {
        selected,
        promoted_by_auc,
    }
}

/// Applies [`select_by_keys`] to live sessions: computes each
/// candidate's TV and AUC at `budget` exactly once, then maps the
/// selection back to session indices.
fn select_survivors<P: Platform>(
    sessions: &[HwSession<'_, P>],
    candidates: &[usize],
    budget: u64,
    auc_fraction: f64,
    telemetry: &Telemetry,
) -> Vec<usize> {
    let (k, p) = promotion_quota(candidates.len(), auc_fraction);
    // Precompute both keys once per candidate: assess_at and auc_at
    // each walk O(budget) history, which must not run inside sort
    // comparators.
    let tv: Vec<f64> = candidates
        .iter()
        .map(|&i| {
            sessions[i]
                .assess_at(budget)
                .map_or(f64::INFINITY, |a| a.latency_s)
        })
        .collect();
    let auc: Vec<f64> = if p > 0 {
        candidates
            .iter()
            .map(|&i| sessions[i].auc_at(budget))
            .collect()
    } else {
        vec![0.0; candidates.len()]
    };
    let selection = select_by_keys(&tv, &auc, k, p);
    telemetry.add(
        Counter::ShPromotionsTv,
        (selection.selected.len() - selection.promoted_by_auc) as u64,
    );
    telemetry.add(Counter::ShPromotionsAuc, selection.promoted_by_auc as u64);
    selection
        .selected
        .iter()
        .map(|&pos| candidates[pos])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{CoSearchEnv, EnvConfig};
    use rand::SeedableRng;
    use unico_model::SpatialPlatform;
    use unico_workloads::zoo;

    fn sessions<'e>(
        env: &'e CoSearchEnv<'e, SpatialPlatform>,
        n: usize,
    ) -> Vec<HwSession<'e, SpatialPlatform>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        (0..n)
            .map(|i| env.session(env.platform().sample_hw(&mut rng), i as u64))
            .collect()
    }

    fn run_on_fresh_engine(
        sessions: &mut [HwSession<'_, SpatialPlatform>],
        cfg: &ShConfig,
    ) -> ShOutcome {
        run(
            sessions,
            cfg,
            &MappingEngine::new(2),
            &Telemetry::new(),
            None,
        )
    }

    fn test_env(p: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
        CoSearchEnv::new(
            p,
            &[zoo::mobilenet_v1()],
            EnvConfig {
                max_layers_per_network: 1,
                power_cap_mw: None,
                area_cap_mm2: None,
            },
        )
    }

    #[test]
    fn sh_halves_down_to_final_budget() {
        let p = SpatialPlatform::edge();
        let env = test_env(&p);
        let mut ss = sessions(&env, 8);
        let out = run_on_fresh_engine(&mut ss, &ShConfig::plain(64));
        assert_eq!(out.round_budgets.len(), 3);
        assert_eq!(*out.round_budgets.last().unwrap(), 64);
        assert_eq!(out.contained_panics, 0);
        // 8 -> 4 -> 2 survivors reach the final round.
        assert_eq!(out.finalists.len(), 2);
        for &i in &out.finalists {
            assert_eq!(ss[i].spent(), 64);
        }
        // Early-stopped sessions keep partial histories.
        let stopped: Vec<usize> = (0..8).filter(|i| !out.finalists.contains(i)).collect();
        assert!(stopped.iter().any(|&i| ss[i].spent() < 64));
        assert!(stopped.iter().all(|&i| ss[i].spent() > 0));
    }

    #[test]
    fn msh_promotes_by_auc_too() {
        let p = SpatialPlatform::edge();
        let env = test_env(&p);
        let mut ss = sessions(&env, 8);
        let out = run_on_fresh_engine(&mut ss, &ShConfig::modified(64));
        assert_eq!(out.finalists.len(), 2);
    }

    #[test]
    fn engine_reused_across_all_rounds() {
        let p = SpatialPlatform::edge();
        let env = test_env(&p);
        let engine = MappingEngine::new(4);
        let telemetry = Telemetry::new();
        let mut ss = sessions(&env, 8);
        let out = run(&mut ss, &ShConfig::modified(64), &engine, &telemetry, None);
        assert_eq!(out.finalists.len(), 2);
        let m = engine.metrics();
        assert_eq!(m.threads_spawned, 4, "one spawn for all rounds");
        assert_eq!(m.batches as usize, out.round_budgets.len());
        assert_eq!(telemetry.get(Counter::ShRounds), 3);
        // Every intermediate round promotes k survivors in total.
        assert_eq!(
            telemetry.get(Counter::ShPromotionsTv) + telemetry.get(Counter::ShPromotionsAuc),
            4 + 2
        );
    }

    #[test]
    fn single_candidate_goes_straight_to_bmax() {
        let p = SpatialPlatform::edge();
        let env = test_env(&p);
        let mut ss = sessions(&env, 1);
        let out = run_on_fresh_engine(&mut ss, &ShConfig::plain(32));
        assert_eq!(out.finalists, vec![0]);
        assert_eq!(ss[0].spent(), 32);
    }

    #[test]
    fn plain_vs_modified_config() {
        assert_eq!(ShConfig::plain(100).auc_fraction, 0.0);
        assert!((ShConfig::modified(100).auc_fraction - 0.15).abs() < 1e-12);
    }

    #[test]
    fn quota_matches_paper_defaults() {
        // N = 30: k = 15, p = ⌊0.15·30⌋ = 4.
        assert_eq!(promotion_quota(30, 0.15), (15, 4));
        // Plain SH reserves nothing.
        assert_eq!(promotion_quota(30, 0.0), (15, 0));
        // p is capped below k.
        assert_eq!(promotion_quota(2, 0.9), (1, 0));
    }

    #[test]
    fn select_by_keys_prefers_tv_then_auc() {
        // TV order: 2, 0, 1, 3; AUC order: 3, 1, 0, 2.
        let tv = [2.0, 3.0, 1.0, 9.0];
        let auc = [0.2, 0.5, 0.1, 0.9];
        let s = select_by_keys(&tv, &auc, 2, 1);
        // One slot by TV (index 2), one by AUC (index 3).
        assert_eq!(s.selected, vec![2, 3]);
        assert_eq!(s.promoted_by_auc, 1);
        // Plain SH: both slots by TV.
        let s = select_by_keys(&tv, &auc, 2, 0);
        assert_eq!(s.selected, vec![2, 0]);
        assert_eq!(s.promoted_by_auc, 0);
    }
}
