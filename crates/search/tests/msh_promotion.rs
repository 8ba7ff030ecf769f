//! Property tests for the modified-successive-halving promotion rule
//! (`promotion_quota` + `select_by_keys`): the AUC-reserved slots never
//! exceed `p`, the dedup top-up always fills exactly `k` slots, and
//! `auc_fraction = 0` degrades to pure terminal-value selection.

use proptest::prelude::*;

use unico_search::sh::{promotion_quota, select_by_keys};

fn keys() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..1.0), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quota_respects_bounds(n in 1usize..200, frac in 0.0f64..1.0) {
        let (k, p) = promotion_quota(n, frac);
        prop_assert!(k >= 1);
        prop_assert!(k <= n.max(1));
        prop_assert!(p < k, "AUC slots must leave room for at least one TV slot");
        prop_assert!(p <= (frac * n as f64).floor() as usize);
    }

    #[test]
    fn auc_slots_never_exceed_p(pairs in keys(), frac in 0.0f64..1.0) {
        let tv: Vec<f64> = pairs.iter().map(|&(t, _)| t).collect();
        let auc: Vec<f64> = pairs.iter().map(|&(_, a)| a).collect();
        let (k, p) = promotion_quota(pairs.len(), frac);
        let sel = select_by_keys(&tv, &auc, k, p);
        prop_assert!(sel.promoted_by_auc <= p);
        prop_assert!(sel.selected.iter().all(|&i| i < pairs.len()));
    }

    #[test]
    fn dedup_top_up_fills_exactly_k(pairs in keys(), frac in 0.0f64..1.0) {
        let tv: Vec<f64> = pairs.iter().map(|&(t, _)| t).collect();
        // Adversarial AUC keys: constant, so the AUC pass prefers
        // candidates that duplicate the TV picks and the top-up must
        // backfill.
        let auc = vec![0.5; pairs.len()];
        let (k, p) = promotion_quota(pairs.len(), frac);
        let sel = select_by_keys(&tv, &auc, k, p);
        prop_assert_eq!(sel.selected.len(), k.min(pairs.len()));
        let mut uniq = sel.selected.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), sel.selected.len(), "no duplicate survivors");
    }

    #[test]
    fn plain_sh_matches_pure_tv_selection(pairs in keys()) {
        let tv: Vec<f64> = pairs.iter().map(|&(t, _)| t).collect();
        let auc: Vec<f64> = pairs.iter().map(|&(_, a)| a).collect();
        let (k, p) = promotion_quota(pairs.len(), 0.0);
        prop_assert_eq!(p, 0, "auc_fraction = 0 reserves no AUC slots");
        let sel = select_by_keys(&tv, &auc, k, p);
        prop_assert_eq!(sel.promoted_by_auc, 0);

        // The survivors' TVs must be exactly the k smallest TVs
        // (multiset comparison tolerates tie reordering).
        let mut chosen: Vec<f64> = sel.selected.iter().map(|&i| tv[i]).collect();
        chosen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut all = tv.clone();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(&chosen[..], &all[..k.min(all.len())]);
    }

    #[test]
    fn selection_invariant_under_frac(pairs in keys(), frac in 0.0f64..1.0) {
        // Whatever the split, the TV-best candidate always survives.
        let tv: Vec<f64> = pairs.iter().map(|&(t, _)| t).collect();
        let auc: Vec<f64> = pairs.iter().map(|&(_, a)| a).collect();
        let (k, p) = promotion_quota(pairs.len(), frac);
        let sel = select_by_keys(&tv, &auc, k, p);
        let best = tv
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        prop_assert!(
            sel.selected.iter().any(|&i| tv[i] == tv[best]),
            "the terminal-value champion must always be promoted"
        );
    }
}
