//! A resource-timeline pipeline simulator.
//!
//! Models a linear pipeline of hardware stages (MTE2 → MTE1 → CUBE →
//! FIXP → VEC) processing a stream of tiles. Each stage processes one
//! tile at a time; the buffer *between* stage `s` and `s+1` has a depth
//! (bank groups): depth 1 serializes producer and consumer, depth ≥ 2
//! lets them overlap (double buffering).

/// Static description of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Stage label for diagnostics.
    pub name: &'static str,
    /// Depth of the buffer feeding the *next* stage (1 = no double
    /// buffering, ≥ 2 = overlapped).
    pub out_depth: u32,
}

/// Cycle-timeline simulation of a tile stream through a linear pipeline.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    stages: Vec<StageSpec>,
    /// `history[s]` holds, for recent tiles, the cycle at which stage
    /// `s` finished each of them. Trimmed to the last `keep` entries
    /// once it exceeds `4 * keep`, and allocated at that bound up front,
    /// so pushing tiles never reallocates.
    history: Vec<Vec<f64>>,
    /// Entries of `history` that back-pressure lookups can reach: the
    /// deepest buffer plus two.
    keep: usize,
    /// Per-tile scratch: the cycle at which each stage finishes the
    /// tile being pushed.
    finishes: Vec<f64>,
    stage_free: Vec<f64>,
    stage_busy: Vec<f64>,
    tiles_done: u64,
    last_finish: f64,
}

impl PipelineSim {
    /// Creates a simulator for the given stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or any depth is zero.
    pub fn new(stages: Vec<StageSpec>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert!(
            stages.iter().all(|s| s.out_depth >= 1),
            "buffer depth must be ≥ 1"
        );
        let n = stages.len();
        let keep = stages
            .iter()
            .map(|st| st.out_depth as usize)
            .max()
            .unwrap_or(1)
            + 2;
        // A push can take a trimmed history to `4 * keep + 1` entries,
        // and `run_uniform`'s steady-state entry one further.
        let history_cap = 4 * keep + 2;
        PipelineSim {
            stages,
            history: (0..n).map(|_| Vec::with_capacity(history_cap)).collect(),
            keep,
            finishes: vec![0.0; n],
            stage_free: vec![0.0; n],
            stage_busy: vec![0.0; n],
            tiles_done: 0,
            last_finish: 0.0,
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Tiles pushed so far.
    pub fn tiles_done(&self) -> u64 {
        self.tiles_done
    }

    /// Cycle at which the last pushed tile left the pipeline.
    pub fn finish_cycle(&self) -> f64 {
        self.last_finish
    }

    /// Total busy cycles accumulated per stage, in stage order. Divided
    /// by [`PipelineSim::finish_cycle`], this is per-stage utilization —
    /// the bottleneck diagnosis an architect reads off a CAModel run.
    pub fn stage_busy_cycles(&self) -> &[f64] {
        &self.stage_busy
    }

    /// Name and utilization of the busiest stage.
    pub fn bottleneck(&self) -> Option<(&'static str, f64)> {
        let total = self.last_finish.max(1e-12);
        self.stage_busy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, &busy)| (self.stages[i].name, busy / total))
    }

    /// Pushes one tile with the given per-stage durations (cycles) and
    /// returns the cycle at which it leaves the last stage.
    ///
    /// # Panics
    ///
    /// Panics if `durations.len() != self.num_stages()`.
    pub fn push_tile(&mut self, durations: &[f64]) -> f64 {
        assert_eq!(
            durations.len(),
            self.stages.len(),
            "one duration per stage required"
        );
        let n = self.stages.len();
        let mut done_prev_stage = 0.0f64; // completion of this tile at s-1
        #[allow(clippy::needless_range_loop)]
        for s in 0..n {
            let mut start = done_prev_stage.max(self.stage_free[s]);
            // Back-pressure: the output buffer of stage s holds
            // `out_depth` tiles; stage s cannot start tile i before the
            // consumer (stage s+1) has freed the slot used
            // `out_depth - 1` tiles ago.
            if s + 1 < n {
                let depth = self.stages[s].out_depth as usize;
                let hist = &self.history[s + 1];
                if hist.len() >= depth {
                    let gate = hist[hist.len() - depth];
                    start = start.max(gate);
                }
            }
            let finish = start + durations[s];
            self.stage_free[s] = finish;
            self.stage_busy[s] += durations[s];
            self.finishes[s] = finish;
            done_prev_stage = finish;
        }
        let keep = self.keep;
        for (hist, &fin) in self.history.iter_mut().zip(&self.finishes) {
            hist.push(fin);
            // Keep only what back-pressure lookups can reach.
            if hist.len() > 4 * keep {
                hist.drain(..hist.len() - keep);
            }
        }
        self.tiles_done += 1;
        self.last_finish = self.finishes[n - 1];
        self.last_finish
    }

    /// Simulates `count` identical tiles, exploiting steady state: after
    /// a warm-up prefix the per-tile increment is constant, so the tail
    /// is extrapolated analytically. Returns the total finish cycle.
    pub fn run_uniform(&mut self, durations: &[f64], count: u64) -> f64 {
        const WARMUP: u64 = 64;
        if count == 0 {
            return self.last_finish;
        }
        let explicit = count.min(WARMUP);
        let mut prev = self.last_finish;
        let mut delta = 0.0;
        for _ in 0..explicit {
            let f = self.push_tile(durations);
            delta = f - prev;
            prev = f;
        }
        let remaining = count - explicit;
        if remaining > 0 {
            for (s, d) in durations.iter().enumerate() {
                self.stage_busy[s] += d * remaining as f64;
            }
            // Steady state: each further tile adds exactly `delta`
            // (the bottleneck stage's duration once pipelined).
            self.last_finish += delta * remaining as f64;
            self.tiles_done += remaining;
            for s in 0..self.stages.len() {
                self.stage_free[s] += delta * remaining as f64;
                if let Some(last) = self.history[s].last().copied() {
                    self.history[s].push(last + delta * remaining as f64);
                }
            }
        }
        self.last_finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(depths: &[u32]) -> Vec<StageSpec> {
        depths
            .iter()
            .map(|&d| StageSpec {
                name: "s",
                out_depth: d,
            })
            .collect()
    }

    #[test]
    fn single_stage_serializes() {
        let mut p = PipelineSim::new(stages(&[1]));
        assert_eq!(p.push_tile(&[10.0]), 10.0);
        assert_eq!(p.push_tile(&[10.0]), 20.0);
        assert_eq!(p.tiles_done(), 2);
    }

    #[test]
    fn double_buffering_overlaps_stages() {
        // Two stages, each 10 cycles. With depth-2 buffers the second
        // tile's stage-0 runs while tile 1 is in stage 1.
        let mut db = PipelineSim::new(stages(&[2, 2]));
        db.push_tile(&[10.0, 10.0]);
        let t2 = db.push_tile(&[10.0, 10.0]);
        assert_eq!(t2, 30.0); // pipelined: 10 startup + 2x10

        let mut serial = PipelineSim::new(stages(&[1, 1]));
        serial.push_tile(&[10.0, 10.0]);
        let s2 = serial.push_tile(&[10.0, 10.0]);
        assert!(s2 > t2, "serial {s2} should exceed pipelined {t2}");
    }

    #[test]
    fn steady_state_rate_is_bottleneck() {
        let mut p = PipelineSim::new(stages(&[2, 2, 2]));
        let d = [3.0, 7.0, 2.0];
        let mut prev = 0.0;
        let mut deltas = Vec::new();
        for _ in 0..50 {
            let f = p.push_tile(&d);
            deltas.push(f - prev);
            prev = f;
        }
        // After warm-up every tile takes exactly the bottleneck time.
        assert!((deltas[49] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn run_uniform_matches_explicit() {
        let d = [3.0, 7.0, 2.0];
        let mut explicit = PipelineSim::new(stages(&[2, 2, 2]));
        for _ in 0..500 {
            explicit.push_tile(&d);
        }
        let mut fast = PipelineSim::new(stages(&[2, 2, 2]));
        let total = fast.run_uniform(&d, 500);
        assert!((total - explicit.finish_cycle()).abs() < 1e-6);
        assert_eq!(fast.tiles_done(), 500);
    }

    #[test]
    fn zero_tiles_is_noop() {
        let mut p = PipelineSim::new(stages(&[2]));
        assert_eq!(p.run_uniform(&[5.0], 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = PipelineSim::new(vec![]);
    }
}
