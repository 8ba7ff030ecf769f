//! Pareto dominance, non-dominated sorting and front maintenance
//! (minimization everywhere).

/// Returns `true` if `a` Pareto-dominates `b` (no worse in every
/// objective, strictly better in at least one; minimization).
///
/// # Panics
///
/// Panics (debug) if lengths differ.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Indices of the non-dominated points among `points`.
pub fn non_dominated_indices(points: &[Vec<f64>]) -> Vec<usize> {
    let mut keep = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && (dominates(q, p) || (q == p && j < i)) {
                continue 'outer;
            }
        }
        keep.push(i);
    }
    keep
}

/// Fast non-dominated sort (NSGA-II): partitions point indices into
/// fronts; front 0 is the Pareto set.
pub fn non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = points.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for (j, q) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            if dominates(&points[i], q) {
                dominated_by[i].push(j);
            } else if dominates(q, &points[i]) {
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// NSGA-II crowding distance for the points of one front; boundary
/// points get `f64::INFINITY`.
pub fn crowding_distance(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let d = points[0].len();
    let mut dist = vec![0.0f64; n];
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    #[allow(clippy::needless_range_loop)]
    for j in 0..d {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            points[a][j]
                .partial_cmp(&points[b][j])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let lo = points[order[0]][j];
        let hi = points[order[n - 1]][j];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for w in 1..n - 1 {
            let prev = points[order[w - 1]][j];
            let next = points[order[w + 1]][j];
            dist[order[w]] += (next - prev) / range;
        }
    }
    dist
}

/// An incrementally maintained Pareto front of objective vectors, each
/// carrying a payload (e.g. a hardware configuration).
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    entries: Vec<(Vec<f64>, T)>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront {
            entries: Vec::new(),
        }
    }
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a front from `(objectives, payload)` entries captured by
    /// iterating an earlier front (checkpoint restore). Entry order is
    /// preserved exactly — [`ParetoFront::objectives`] on the restored
    /// front is byte-identical to the original's.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the entries are not mutually
    /// non-dominated — a front serialized by this crate always is.
    pub fn from_entries(entries: Vec<(Vec<f64>, T)>) -> Self {
        #[cfg(debug_assertions)]
        for (i, (a, _)) in entries.iter().enumerate() {
            for (j, (b, _)) in entries.iter().enumerate() {
                if i != j {
                    debug_assert!(
                        !dominates(a, b),
                        "restored front entries must be mutually non-dominated"
                    );
                }
            }
        }
        ParetoFront { entries }
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(objectives, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &T)> {
        self.entries.iter().map(|(y, t)| (y.as_slice(), t))
    }

    /// The raw objective vectors on the front.
    pub fn objectives(&self) -> Vec<Vec<f64>> {
        self.entries.iter().map(|(y, _)| y.clone()).collect()
    }

    /// Offers a point; inserts it if non-dominated (evicting any points
    /// it dominates) and returns whether it was inserted. Duplicate
    /// objective vectors are rejected.
    pub fn offer(&mut self, objectives: Vec<f64>, payload: T) -> bool {
        if self
            .entries
            .iter()
            .any(|(y, _)| dominates(y, &objectives) || *y == objectives)
        {
            return false;
        }
        self.entries.retain(|(y, _)| !dominates(&objectives, y));
        self.entries.push((objectives, payload));
        true
    }

    /// The entry minimizing Euclidean distance to the origin in
    /// column-normalized objective space — the paper's rule for picking
    /// a single design off the front.
    pub fn min_euclidean(&self) -> Option<(&[f64], &T)> {
        if self.entries.is_empty() {
            return None;
        }
        let rows: Vec<Vec<f64>> = self.entries.iter().map(|(y, _)| y.clone()).collect();
        let normalized = crate::scalarize::normalize_columns(&rows);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, y) in normalized.iter().enumerate() {
            let d: f64 = y.iter().map(|v| v * v).sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        let (y, t) = &self.entries[best];
        Some((y.as_slice(), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }

    #[test]
    fn non_dominated_set() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0], // dominated by (2,2)
        ];
        assert_eq!(non_dominated_indices(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_counted_once() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(non_dominated_indices(&pts), vec![0]);
    }

    #[test]
    fn sort_produces_layered_fronts() {
        let pts = vec![
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![0.5, 4.0],
        ];
        let fronts = non_dominated_sort(&pts);
        assert_eq!(fronts[0], vec![0, 3]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![2]);
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn crowding_boundaries_infinite() {
        let pts = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ];
        let d = crowding_distance(&pts);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn crowding_small_fronts_infinite() {
        assert_eq!(crowding_distance(&[vec![1.0, 2.0]]), vec![f64::INFINITY]);
        assert!(crowding_distance(&[]).is_empty());
    }

    #[test]
    fn front_evicts_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.offer(vec![2.0, 2.0], "a"));
        assert!(f.offer(vec![1.0, 3.0], "b"));
        assert!(f.offer(vec![1.0, 1.0], "c")); // dominates both
        assert_eq!(f.len(), 1);
        assert!(!f.offer(vec![1.5, 1.5], "d"));
        assert!(!f.offer(vec![1.0, 1.0], "dup"));
    }

    #[test]
    fn min_euclidean_picks_knee() {
        let mut f = ParetoFront::new();
        f.offer(vec![0.0, 10.0], "low-lat");
        f.offer(vec![10.0, 0.0], "low-pow");
        f.offer(vec![2.0, 2.0], "knee");
        let (_, who) = f.min_euclidean().unwrap();
        assert_eq!(*who, "knee");
    }

    #[test]
    fn from_entries_preserves_order() {
        let mut f = ParetoFront::new();
        f.offer(vec![1.0, 4.0], 0usize);
        f.offer(vec![4.0, 1.0], 1usize);
        f.offer(vec![2.0, 2.0], 2usize);
        let entries: Vec<(Vec<f64>, usize)> = f.iter().map(|(y, &t)| (y.to_vec(), t)).collect();
        let restored = ParetoFront::from_entries(entries);
        assert_eq!(restored.objectives(), f.objectives());
        let payloads: Vec<usize> = restored.iter().map(|(_, &t)| t).collect();
        assert_eq!(payloads, vec![0, 1, 2]);
    }

    #[test]
    fn empty_front_behaviour() {
        let f: ParetoFront<u8> = ParetoFront::new();
        assert!(f.is_empty());
        assert!(f.min_euclidean().is_none());
        assert!(f.objectives().is_empty());
    }

    #[test]
    fn invariant_front_is_mutually_nondominated() {
        let mut f = ParetoFront::new();
        // Deterministic pseudo-random stream.
        let mut state = 123456789u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..200 {
            f.offer(vec![next(), next(), next()], i);
        }
        let objs = f.objectives();
        for i in 0..objs.len() {
            for j in 0..objs.len() {
                if i != j {
                    assert!(!dominates(&objs[i], &objs[j]));
                }
            }
        }
    }
}
