//! Search histories: monotone best-so-far curves, AUC, and the loss
//! statistics the robustness metric consumes.

use std::cell::Cell;

use crate::cost::MappingOutcome;
use crate::mapping::Mapping;

/// One evaluated (feasible) mapping in a search history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRecord {
    /// Budget step (1-based) at which the evaluation happened.
    pub step: u64,
    /// Search objective of this candidate.
    pub loss: f64,
    /// Latency of this candidate, seconds.
    pub latency_s: f64,
    /// Power of this candidate, milliwatts.
    pub power_mw: f64,
}

/// The full trace of one software-mapping search.
///
/// Tracks every spent budget step (feasible or not), the feasible
/// evaluation records, and the monotone best-so-far curve. The curve is
/// the object successive halving and the robustness metric reason about:
/// `best_at(b)` is non-increasing in `b` — the monotonicity property the
/// paper assumes of mature mapping tools.
#[derive(Debug, Clone, Default)]
pub struct SearchHistory {
    spent: u64,
    records: Vec<EvalRecord>,
    /// `(step, record)` improvements: records that strictly lowered the
    /// best loss.
    improvements: Vec<EvalRecord>,
    /// `(step, mapping)` for each improvement a searcher chose to note.
    /// Steps mirror `improvements`, so `best_mapping_at(b)` names the
    /// mapping behind `best_at(b)` — which fused-group costing re-prices
    /// under a different traffic model.
    best_mappings: Vec<(u64, Mapping)>,
    /// Single-entry `(budget, auc)` memo: successive-halving promotion
    /// asks for the AUC of the same round budget repeatedly, and the
    /// scan it caches is O(budget). Invalidated by any mutation.
    auc_memo: Cell<Option<(u64, f64)>>,
}

impl SearchHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Budget steps consumed so far (including infeasible evaluations).
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Number of feasible evaluations recorded.
    pub fn evaluations(&self) -> usize {
        self.records.len()
    }

    /// All feasible evaluation records in evaluation order.
    pub fn records(&self) -> &[EvalRecord] {
        &self.records
    }

    /// Registers one consumed budget step with an infeasible candidate.
    pub fn push_infeasible(&mut self) {
        self.spent += 1;
        self.auc_memo.set(None);
    }

    /// Registers one consumed budget step with a feasible outcome.
    pub fn push(&mut self, outcome: MappingOutcome) {
        self.spent += 1;
        self.auc_memo.set(None);
        let rec = EvalRecord {
            step: self.spent,
            loss: outcome.loss,
            latency_s: outcome.latency_s,
            power_mw: outcome.power_mw,
        };
        let improved = self
            .improvements
            .last()
            .is_none_or(|best| rec.loss < best.loss);
        self.records.push(rec);
        if improved {
            self.improvements.push(rec);
        }
    }

    /// Notes the mapping behind the most recent improvement. Searchers
    /// call this immediately after a [`SearchHistory::push`] that lowered
    /// the best loss; the step recorded is the step that push consumed.
    pub fn note_best_mapping(&mut self, mapping: &Mapping) {
        self.best_mappings.push((self.spent, mapping.clone()));
    }

    /// The noted best mapping within the first `budget` steps, if the
    /// searcher noted any by then.
    pub fn best_mapping_at(&self, budget: u64) -> Option<&Mapping> {
        self.best_mappings
            .iter()
            .take_while(|(step, _)| *step <= budget)
            .last()
            .map(|(_, m)| m)
    }

    /// Best record found within the first `budget` steps, if any feasible
    /// candidate was seen by then.
    pub fn best_at(&self, budget: u64) -> Option<EvalRecord> {
        self.improvements
            .iter()
            .take_while(|r| r.step <= budget)
            .last()
            .copied()
    }

    /// Best record over the whole history.
    pub fn best(&self) -> Option<EvalRecord> {
        self.improvements.last().copied()
    }

    /// Terminal value: best loss at the end of the history
    /// (`f64::INFINITY` when nothing feasible was found).
    pub fn terminal_value(&self) -> f64 {
        self.best().map_or(f64::INFINITY, |r| r.loss)
    }

    /// Area-under-curve convergence-rate score over the first `budget`
    /// steps, in `[0, 1]`.
    ///
    /// The paper promotes candidates whose best-so-far curves descend
    /// steeply (Fig. 4b). We quantify steepness as the normalized
    /// improvement area
    /// `AUC = (1/B) Σ_{t=1..B} (L(1) − L(t)) / L(1)`
    /// where `L(t)` is the best loss after `t` steps (losses are positive
    /// latencies/EDPs). A curve that drops early and deeply accumulates
    /// more area, so **higher AUC ⇒ faster convergence**, matching the
    /// promotion rule's intent.
    pub fn auc(&self, budget: u64) -> f64 {
        let budget = budget.min(self.spent);
        if let Some((memo_budget, memo_auc)) = self.auc_memo.get() {
            if memo_budget == budget {
                return memo_auc;
            }
        }
        let auc = self.compute_auc(budget);
        self.auc_memo.set(Some((budget, auc)));
        auc
    }

    /// Uncached AUC scan; see [`SearchHistory::auc`].
    fn compute_auc(&self, budget: u64) -> f64 {
        if budget == 0 || self.improvements.is_empty() {
            return 0.0;
        }
        let first = self.improvements[0];
        if first.step > budget || first.loss <= 0.0 {
            return 0.0;
        }
        let l0 = first.loss;
        let mut area = 0.0;
        let mut idx = 0usize;
        let mut current = l0;
        for t in first.step..=budget {
            while idx < self.improvements.len() && self.improvements[idx].step <= t {
                current = self.improvements[idx].loss;
                idx += 1;
            }
            area += (l0 - current).max(0.0) / l0;
        }
        area / budget as f64
    }

    /// The record whose loss sits at quantile `q` of all feasible losses
    /// (`q = 0.0` ⇒ best). Used to extract the paper's "sub-optimal"
    /// mapping — the `(1−α)` right-tail percentile of the loss history —
    /// for the robustness metric.
    pub fn loss_quantile_record(&self, q: f64) -> Option<EvalRecord> {
        self.loss_quantile_records([q]).map(|[r]| r)
    }

    /// The records at quantiles `qs` of all feasible losses, in `qs`
    /// order: [`SearchHistory::loss_quantile_record`] for each `q`, read
    /// off one stable sort of the history instead of one sort per
    /// quantile. Ties keep evaluation order; incomparable (NaN) losses
    /// compare equal.
    pub fn loss_quantile_records<const N: usize>(&self, qs: [f64; N]) -> Option<[EvalRecord; N]> {
        if self.records.is_empty() {
            return None;
        }
        // `(loss, index)` pairs keep the comparator off `records`.
        let mut sorted: Vec<(f64, usize)> = self.records.iter().map(|r| r.loss).zip(0..).collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let last = (sorted.len() - 1) as f64;
        Some(qs.map(|q| self.records[sorted[(q.clamp(0.0, 1.0) * last).round() as usize].1]))
    }

    /// Merges another history into this one, preserving step accounting
    /// (the other history's steps are appended after this one's).
    pub fn absorb(&mut self, other: &SearchHistory) {
        let offset = self.spent;
        self.spent += other.spent;
        self.auc_memo.set(None);
        for r in &other.records {
            let rec = EvalRecord {
                step: r.step + offset,
                ..*r
            };
            let improved = self
                .improvements
                .last()
                .is_none_or(|best| rec.loss < best.loss);
            self.records.push(rec);
            if improved {
                self.improvements.push(rec);
                if let Some((_, m)) = other
                    .best_mappings
                    .iter()
                    .rev()
                    .find(|(step, _)| *step == r.step)
                {
                    self.best_mappings.push((rec.step, m.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(loss: f64) -> MappingOutcome {
        MappingOutcome {
            loss,
            latency_s: loss,
            power_mw: 2.0 * loss,
        }
    }

    #[test]
    fn best_so_far_is_monotone() {
        let mut h = SearchHistory::new();
        for l in [5.0, 7.0, 3.0, 4.0, 2.0, 9.0] {
            h.push(out(l));
        }
        let mut prev = f64::INFINITY;
        for b in 1..=h.spent() {
            let cur = h.best_at(b).unwrap().loss;
            assert!(cur <= prev, "best-so-far must not increase");
            prev = cur;
        }
        assert_eq!(h.terminal_value(), 2.0);
    }

    #[test]
    fn infeasible_consumes_budget_only() {
        let mut h = SearchHistory::new();
        h.push_infeasible();
        h.push_infeasible();
        assert_eq!(h.spent(), 2);
        assert_eq!(h.evaluations(), 0);
        assert!(h.best().is_none());
        assert_eq!(h.terminal_value(), f64::INFINITY);
        assert_eq!(h.auc(2), 0.0);
    }

    #[test]
    fn auc_rewards_early_convergence() {
        // Fast: drops to 1.0 immediately.
        let mut fast = SearchHistory::new();
        fast.push(out(10.0));
        fast.push(out(1.0));
        for _ in 0..8 {
            fast.push(out(5.0)); // no improvement
        }
        // Slow: drops to 1.0 at the end.
        let mut slow = SearchHistory::new();
        slow.push(out(10.0));
        for _ in 0..8 {
            slow.push(out(10.0));
        }
        slow.push(out(1.0));
        assert!(fast.auc(10) > slow.auc(10));
        assert_eq!(fast.terminal_value(), slow.terminal_value());
    }

    #[test]
    fn auc_bounded_unit_interval() {
        let mut h = SearchHistory::new();
        for l in [100.0, 50.0, 10.0, 1.0, 0.5] {
            h.push(out(l));
        }
        let a = h.auc(5);
        assert!((0.0..=1.0).contains(&a), "auc {a}");
    }

    #[test]
    fn auc_memo_survives_repeats_and_invalidates_on_mutation() {
        let mut h = SearchHistory::new();
        for l in [10.0, 5.0, 2.0] {
            h.push(out(l));
        }
        let first = h.auc(3);
        assert_eq!(h.auc(3), first, "repeated query must hit the memo");
        // Different budget recomputes correctly.
        let at_two = h.auc(2);
        assert!(at_two <= first);

        // push invalidates.
        h.push(out(1.0));
        let mut fresh = SearchHistory::new();
        for l in [10.0, 5.0, 2.0, 1.0] {
            fresh.push(out(l));
        }
        assert_eq!(h.auc(4), fresh.auc(4));

        // absorb invalidates.
        let mut tail = SearchHistory::new();
        tail.push(out(0.5));
        h.absorb(&tail);
        fresh.push(out(0.5));
        assert_eq!(h.auc(5), fresh.auc(5));

        // push_infeasible invalidates (spent grows, curve extends).
        let before = h.auc(h.spent());
        h.push_infeasible();
        fresh.push_infeasible();
        assert_eq!(h.auc(h.spent()), fresh.auc(fresh.spent()));
        assert!(h.auc(h.spent()) >= before * 0.9);
    }

    #[test]
    fn quantile_record_selects_tail() {
        let mut h = SearchHistory::new();
        for l in [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5] {
            h.push(out(l));
        }
        assert_eq!(h.loss_quantile_record(0.0).unwrap().loss, 0.5);
        assert_eq!(h.loss_quantile_record(1.0).unwrap().loss, 9.0);
        let mid = h.loss_quantile_record(0.05).unwrap().loss;
        assert!((0.5..=2.0).contains(&mid));
    }

    #[test]
    fn absorb_offsets_steps() {
        let mut a = SearchHistory::new();
        a.push(out(5.0));
        let mut b = SearchHistory::new();
        b.push(out(3.0));
        a.absorb(&b);
        assert_eq!(a.spent(), 2);
        assert_eq!(a.records()[1].step, 2);
        assert_eq!(a.terminal_value(), 3.0);
    }

    #[test]
    fn noted_mappings_track_improvement_steps() {
        let nest = unico_workloads::TensorOp::Gemm { m: 4, n: 4, k: 4 }.to_loop_nest();
        let a = Mapping::identity(&nest);
        let mut l1 = a.l1_tile();
        l1[1] = 2;
        let b = Mapping::new(&nest, a.l2_tile(), l1, a.order(), a.spatial());

        let mut h = SearchHistory::new();
        h.push(out(5.0));
        h.note_best_mapping(&a);
        h.push(out(7.0)); // no improvement: nothing noted
        h.push(out(3.0));
        h.note_best_mapping(&b);

        assert!(h.best_mapping_at(0).is_none());
        assert_eq!(h.best_mapping_at(1), Some(&a));
        assert_eq!(h.best_mapping_at(2), Some(&a));
        assert_eq!(h.best_mapping_at(3), Some(&b));

        // absorb carries noted mappings that remain improvements.
        let mut tail = SearchHistory::new();
        tail.push(out(9.0)); // worse than 3.0: filtered out
        tail.note_best_mapping(&a);
        tail.push(out(1.0));
        tail.note_best_mapping(&a);
        h.absorb(&tail);
        assert_eq!(h.best_mapping_at(4), Some(&b));
        assert_eq!(h.best_mapping_at(5), Some(&a));
    }

    #[test]
    fn best_at_respects_budget_cutoff() {
        let mut h = SearchHistory::new();
        h.push(out(5.0));
        h.push(out(4.0));
        h.push(out(1.0));
        assert_eq!(h.best_at(2).unwrap().loss, 4.0);
        assert_eq!(h.best_at(3).unwrap().loss, 1.0);
        assert!(h.best_at(0).is_none());
    }
}
