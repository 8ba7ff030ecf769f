//! The shared co-search evaluation environment.
//!
//! A [`CoSearchEnv`] fixes the platform, the (reduced) workload set and
//! the evaluation policy. For each hardware candidate it opens a
//! [`HwSession`] holding one resumable mapping-search *job* per
//! `(network, layer)` pair — the unit the paper distributes across slave
//! machines. Sessions advance to any budget and can be assessed at any
//! past budget, which is exactly the interface successive halving and the
//! high-fidelity surrogate update need.

use std::sync::atomic::{AtomicU64, Ordering};

use unico_mapping::{
    search_fusion, FusionPlan, FusionStats, Mapping, MappingCost, MappingSearcher, SearchHistory,
};
use unico_model::{Platform, Ppa};
use unico_workloads::{FusionEdge, ImportedGraph, LoopNest, Network};

/// Evaluation policy of a [`CoSearchEnv`].
#[derive(Debug, Clone, Copy)]
pub struct EnvConfig {
    /// Keep only the `n` highest-MAC layers of each network (bounds
    /// inner-loop cost while keeping the layers that dominate PPA).
    pub max_layers_per_network: usize,
    /// Hardware whose aggregated power exceeds this cap is infeasible
    /// (the paper's edge/cloud power constraints).
    pub power_cap_mw: Option<f64>,
    /// Hardware whose area exceeds this cap is infeasible (the paper's
    /// 200 mm² Ascend constraint).
    pub area_cap_mm2: Option<f64>,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            max_layers_per_network: 4,
            power_cap_mw: None,
            area_cap_mm2: None,
        }
    }
}

/// Aggregated assessment of one hardware candidate at some budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assessment {
    /// Geometric-mean across networks of summed per-layer best latency.
    pub latency_s: f64,
    /// Energy-weighted average power across all jobs.
    pub power_mw: f64,
    /// Silicon area of the configuration.
    pub area_mm2: f64,
}

impl Assessment {
    /// The PPA objective vector `(latency, power, area)` for
    /// minimization.
    pub fn objectives(&self) -> Vec<f64> {
        vec![self.latency_s, self.power_mw, self.area_mm2]
    }
}

/// The fixed context of a co-search run.
#[derive(Debug)]
pub struct CoSearchEnv<'p, P: Platform> {
    platform: &'p P,
    networks: Vec<Network>,
    /// Per-network fusion edges, remapped to reduced-layer indices.
    /// Empty vectors (the [`CoSearchEnv::new`] path) keep assessment
    /// bitwise identical to the pre-fusion per-layer path.
    edges: Vec<Vec<FusionEdge>>,
    cfg: EnvConfig,
}

impl<'p, P: Platform> CoSearchEnv<'p, P> {
    /// Creates an environment over `networks`, reduced to their dominant
    /// layers per [`EnvConfig::max_layers_per_network`].
    ///
    /// # Panics
    ///
    /// Panics if `networks` is empty.
    pub fn new(platform: &'p P, networks: &[Network], cfg: EnvConfig) -> Self {
        assert!(!networks.is_empty(), "co-search needs at least one network");
        let networks: Vec<Network> = networks
            .iter()
            .map(|n| n.dominant_layers(cfg.max_layers_per_network))
            .collect();
        let edges = vec![Vec::new(); networks.len()];
        CoSearchEnv {
            platform,
            networks,
            edges,
            cfg,
        }
    }

    /// Creates an environment over imported graphs, keeping each
    /// network's dominant layers *and* the fusion edges whose endpoints
    /// both survive the reduction (remapped to reduced indices). The
    /// fusion edges let [`HwSession::assess_at`] replace per-layer PPA
    /// with fused-group accounting wherever the planner accepts a
    /// multi-layer group.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn with_graphs(platform: &'p P, graphs: &[ImportedGraph], cfg: EnvConfig) -> Self {
        assert!(!graphs.is_empty(), "co-search needs at least one graph");
        let mut networks = Vec::with_capacity(graphs.len());
        let mut edges = Vec::with_capacity(graphs.len());
        for g in graphs {
            let kept = g.network().dominant_indices(cfg.max_layers_per_network);
            let pos_of = |orig: usize| kept.iter().position(|&k| k == orig);
            let remapped: Vec<FusionEdge> = g
                .edges()
                .iter()
                .filter_map(|e| {
                    let producer = pos_of(e.producer)?;
                    let consumer = pos_of(e.consumer)?;
                    Some(FusionEdge {
                        producer,
                        consumer,
                        elems: e.elems,
                    })
                })
                .collect();
            networks.push(g.network().dominant_layers(cfg.max_layers_per_network));
            edges.push(remapped);
        }
        CoSearchEnv {
            platform,
            networks,
            edges,
            cfg,
        }
    }

    /// Per-network fusion edges (reduced-layer indices); empty slices
    /// for environments built with [`CoSearchEnv::new`].
    pub fn fusion_edges(&self) -> &[Vec<FusionEdge>] {
        &self.edges
    }

    /// The target platform.
    pub fn platform(&self) -> &'p P {
        self.platform
    }

    /// The (reduced) workload set.
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// The evaluation policy.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// Number of mapping-search jobs per hardware candidate.
    pub fn num_jobs(&self) -> usize {
        self.networks.iter().map(Network::len).sum()
    }

    /// Opens a session for one hardware candidate; `seed` derives each
    /// job's searcher seed deterministically.
    pub fn session(&self, hw: P::Hw, seed: u64) -> HwSession<'_, P> {
        let mut jobs = Vec::with_capacity(self.num_jobs());
        let area = self.platform.area_mm2(&hw);
        for (net_idx, net) in self.networks.iter().enumerate() {
            for (layer_idx, layer) in net.layers().iter().enumerate() {
                let nest = layer.op().to_loop_nest();
                let job_seed = seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((net_idx as u64) << 32 | layer_idx as u64);
                jobs.push(Job {
                    net_idx,
                    nest,
                    repeat: layer.repeat(),
                    cost: self.platform.bind(&hw, &nest),
                    searcher: self.platform.make_searcher(&hw, &nest, job_seed),
                });
            }
        }
        HwSession {
            hw,
            platform: self.platform,
            fusion_edges: &self.edges,
            area_mm2: area,
            num_networks: self.networks.len(),
            power_cap_mw: self.cfg.power_cap_mw,
            area_cap_mm2: self.cfg.area_cap_mm2,
            poisoned: false,
            fusion_tried: AtomicU64::new(0),
            fusion_accepted: AtomicU64::new(0),
            jobs,
        }
    }
}

struct Job<'e> {
    net_idx: usize,
    nest: LoopNest,
    repeat: u32,
    cost: Box<dyn MappingCost + Send + Sync + 'e>,
    searcher: Box<dyn MappingSearcher + Send>,
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("net_idx", &self.net_idx)
            .field("repeat", &self.repeat)
            .field("spent", &self.searcher.history().spent())
            .finish()
    }
}

/// One hardware candidate's live mapping-search state: a resumable
/// searcher per `(network, layer)` job.
pub struct HwSession<'e, P: Platform> {
    hw: P::Hw,
    platform: &'e P,
    fusion_edges: &'e [Vec<FusionEdge>],
    area_mm2: f64,
    num_networks: usize,
    power_cap_mw: Option<f64>,
    area_cap_mm2: Option<f64>,
    poisoned: bool,
    fusion_tried: AtomicU64,
    fusion_accepted: AtomicU64,
    jobs: Vec<Job<'e>>,
}

impl<P: Platform> std::fmt::Debug for HwSession<'_, P>
where
    P::Hw: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwSession")
            .field("hw", &self.hw)
            .field("area_mm2", &self.area_mm2)
            .field("num_networks", &self.num_networks)
            .field("poisoned", &self.poisoned)
            .field("jobs", &self.jobs)
            .finish()
    }
}

/// Outcome of one fusion-planning pass over a session's networks at a
/// fixed budget (see [`HwSession::fusion_report_at`]).
#[derive(Debug, Clone)]
pub struct FusionReport {
    /// Accepted fusion plan per network carrying edges, as
    /// `(network index, plan)`.
    pub plans: Vec<(usize, FusionPlan)>,
    /// Planner counters: candidate groups priced and accepted.
    pub stats: FusionStats,
    /// Per-job PPA overrides `(job index, fused PPA)` covering every
    /// member of an accepted multi-layer group.
    pub overrides: Vec<(usize, Ppa)>,
    /// Modeled DRAM bytes of the accepted multi-layer groups had each
    /// member run standalone (repeat-weighted).
    pub dram_bytes_unfused: f64,
    /// The same groups under fused accounting (intermediates held
    /// on-chip). Strictly below `dram_bytes_unfused` whenever any
    /// group was accepted.
    pub dram_bytes_fused: f64,
}

impl<P: Platform> HwSession<'_, P> {
    /// The hardware candidate.
    pub fn hw(&self) -> &P::Hw {
        &self.hw
    }

    /// Configuration area, mm².
    pub fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// Advances every job's mapping search to `budget` total steps.
    pub fn advance_to(&mut self, budget: u64) {
        for job in &mut self.jobs {
            job.searcher.run_until(job.cost.as_ref(), budget);
        }
    }

    /// Marks the session infeasible because its mapping search died
    /// (e.g. a worker panic contained by the execution engine). A
    /// poisoned session assesses as infeasible at every budget but
    /// keeps its partial histories for debugging.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether [`HwSession::poison`] was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Per-job budget already consumed (max over jobs).
    pub fn spent(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.searcher.history().spent())
            .max()
            .unwrap_or(0)
    }

    /// Simulated CPU seconds consumed by this session so far.
    pub fn cost_seconds(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.searcher.history().spent() as f64 * j.cost.eval_cost_seconds())
            .sum()
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The per-job search histories (for robustness metrics and
    /// high-fidelity assessment at past budgets).
    pub fn job_histories(&self) -> Vec<&SearchHistory> {
        self.jobs.iter().map(|j| j.searcher.history()).collect()
    }

    /// Assesses the candidate using the best mappings found within the
    /// first `budget` steps of every job. Returns `None` if any job has
    /// no feasible mapping by then, or a power/area cap is violated.
    pub fn assess_at(&self, budget: u64) -> Option<Assessment> {
        if self.poisoned {
            return None;
        }
        if let Some(cap) = self.area_cap_mm2 {
            if self.area_mm2 > cap {
                return None;
            }
        }
        let mut per_job = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let best = job.searcher.history().best_at(budget)?;
            per_job.push((best.latency_s, best.power_mw));
        }
        if let Some(report) = self.run_fusion(budget) {
            self.fusion_tried
                .fetch_add(report.stats.groups_tried, Ordering::Relaxed);
            self.fusion_accepted
                .fetch_add(report.stats.groups_accepted, Ordering::Relaxed);
            for &(ji, ppa) in &report.overrides {
                per_job[ji] = (ppa.latency_s, ppa.power_mw);
            }
        }
        let mut net_latency = vec![0.0f64; self.num_networks];
        let mut total_energy_mj = 0.0f64; // mW * s
        let mut total_latency = 0.0f64;
        for (job, &(lat_s, pow_mw)) in self.jobs.iter().zip(&per_job) {
            let lat = lat_s * f64::from(job.repeat);
            net_latency[job.net_idx] += lat;
            total_energy_mj += pow_mw * lat;
            total_latency += lat;
        }
        let latency_s = geometric_mean(&net_latency);
        let power_mw = if total_latency > 0.0 {
            total_energy_mj / total_latency
        } else {
            0.0
        };
        if let Some(cap) = self.power_cap_mw {
            if power_mw > cap {
                return None;
            }
        }
        Some(Assessment {
            latency_s,
            power_mw,
            area_mm2: self.area_mm2,
        })
    }

    /// Runs the fusion planner over every network that carries fusion
    /// edges, using each job's best mapping within `budget`. `None`
    /// when no network has edges or no platform pricer exists — the
    /// per-layer path then proceeds untouched (bitwise identical to
    /// the pre-fusion behavior).
    fn run_fusion(&self, budget: u64) -> Option<FusionReport> {
        if self.fusion_edges.iter().all(Vec::is_empty) {
            return None;
        }
        let mut report = FusionReport {
            plans: Vec::new(),
            stats: FusionStats::default(),
            overrides: Vec::new(),
            dram_bytes_unfused: 0.0,
            dram_bytes_fused: 0.0,
        };
        for (net_idx, edges) in self.fusion_edges.iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            // Jobs are pushed in (network, layer) order, so a network's
            // jobs are contiguous and layer-ordered.
            let net_jobs: Vec<usize> = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.net_idx == net_idx)
                .map(|(i, _)| i)
                .collect();
            let layers: Vec<Option<(LoopNest, Mapping, u32)>> = net_jobs
                .iter()
                .map(|&ji| {
                    let j = &self.jobs[ji];
                    j.searcher
                        .best_mapping_at(budget)
                        .map(|m| (j.nest, m.clone(), j.repeat))
                })
                .collect();
            let Some(pricer) = self.platform.fusion_pricer(&self.hw, layers) else {
                continue;
            };
            let (plan, stats) = search_fusion(net_jobs.len(), edges, pricer.as_ref());
            report.stats.merge(stats);
            for group in plan.multi_layer_groups() {
                if let Some(eval) = pricer.price_group(group, edges) {
                    report.dram_bytes_unfused += eval.dram_bytes_unfused;
                    report.dram_bytes_fused += eval.dram_bytes_fused;
                    for mc in &eval.members {
                        report.overrides.push((net_jobs[mc.layer], mc.ppa));
                    }
                }
            }
            report.plans.push((net_idx, plan));
        }
        if report.plans.is_empty() {
            return None;
        }
        Some(report)
    }

    /// The fusion plan, counters and fused-group DRAM deltas at
    /// `budget` (diagnostic; does not book counters). `None` when the
    /// session has no fusion edges, no pricer, or is poisoned.
    pub fn fusion_report_at(&self, budget: u64) -> Option<FusionReport> {
        if self.poisoned {
            return None;
        }
        self.run_fusion(budget)
    }

    /// Accumulated fusion-planner counters across every assessment of
    /// this session.
    pub fn fusion_stats(&self) -> FusionStats {
        FusionStats {
            groups_tried: self.fusion_tried.load(Ordering::Relaxed),
            groups_accepted: self.fusion_accepted.load(Ordering::Relaxed),
        }
    }

    /// Assessment at the current budget.
    pub fn assess(&self) -> Option<Assessment> {
        self.assess_at(self.spent())
    }

    /// Scalar terminal value for successive halving (aggregated latency;
    /// `INFINITY` when infeasible).
    pub fn terminal_value(&self) -> f64 {
        self.assess().map_or(f64::INFINITY, |a| a.latency_s)
    }

    /// Total budget steps consumed across all jobs (the session's
    /// mapping-evaluation count for telemetry).
    pub fn total_steps(&self) -> u64 {
        self.jobs.iter().map(|j| j.searcher.history().spent()).sum()
    }

    /// Aggregated gradient-search counters across this session's jobs
    /// (all zero unless the platform hands out gradient searchers).
    pub fn gradient_stats(&self) -> unico_mapping::GradientStats {
        let mut acc = unico_mapping::GradientStats::default();
        for j in &self.jobs {
            if let Some(s) = j.searcher.gradient_stats() {
                acc.absorb(&s);
            }
        }
        acc
    }

    /// Mean convergence-rate AUC across jobs within `budget` steps.
    pub fn auc_at(&self, budget: u64) -> f64 {
        if self.jobs.is_empty() || self.poisoned {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(|j| j.searcher.history().auc(budget))
            .sum::<f64>()
            / self.jobs.len() as f64
    }
}

fn geometric_mean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positive.iter().map(|v| v.ln()).sum();
    (log_sum / positive.len() as f64).exp()
}

/// Advances the selected sessions to `budget` in parallel (one thread
/// per session — the paper's per-job multiprocessing).
///
/// It spawns one scoped thread per selected session and joins them
/// before returning. [`evaluate_batch`] uses it for one-shot batches
/// (NSGA-II, HASCO, the experiments); successive-halving rounds go
/// through [`crate::advance_with_engine`] on a persistent
/// [`crate::MappingEngine`] instead.
pub fn advance_parallel<P: Platform>(
    sessions: &mut [HwSession<'_, P>],
    select: &[bool],
    budget: u64,
) where
    P::Hw: Send,
{
    assert_eq!(sessions.len(), select.len(), "selection mask length");
    std::thread::scope(|scope| {
        for (sess, &on) in sessions.iter_mut().zip(select) {
            if on {
                scope.spawn(move || sess.advance_to(budget));
            }
        }
    });
}

/// Evaluates a batch of hardware candidates at a fixed full budget (no
/// early stopping): opens a session per candidate, advances all in
/// parallel, and returns `(hw, assessment)` pairs plus the CPU seconds
/// consumed and the parallel width of the phase.
#[allow(clippy::type_complexity)]
pub fn evaluate_batch<P: Platform>(
    env: &CoSearchEnv<'_, P>,
    hws: Vec<P::Hw>,
    budget: u64,
    seed: u64,
) -> (Vec<(P::Hw, Option<Assessment>)>, f64, u32)
where
    P::Hw: Send,
{
    let mut sessions: Vec<HwSession<'_, P>> = hws
        .into_iter()
        .enumerate()
        .map(|(i, hw)| env.session(hw, seed.wrapping_add(i as u64)))
        .collect();
    let select = vec![true; sessions.len()];
    advance_parallel(&mut sessions, &select, budget);
    let cpu: f64 = sessions.iter().map(HwSession::cost_seconds).sum();
    let global = crate::telemetry::Telemetry::global();
    global.add(
        crate::telemetry::Counter::MappingEvals,
        sessions.iter().map(HwSession::total_steps).sum(),
    );
    global.add(crate::telemetry::Counter::HwEvals, sessions.len() as u64);
    let mut gstats = unico_mapping::GradientStats::default();
    let mut fstats = FusionStats::default();
    for s in &sessions {
        gstats.absorb(&s.gradient_stats());
        fstats.merge(s.fusion_stats());
    }
    global.add_gradient_stats(gstats);
    global.add_fusion_stats(fstats);
    let width = (sessions.len() * env.num_jobs()) as u32;
    let out = sessions
        .into_iter()
        .map(|s| {
            let a = s.assess();
            (s.hw, a)
        })
        .collect();
    (out, cpu, width.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_model::SpatialPlatform;
    use unico_workloads::zoo;

    fn env(platform: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
        CoSearchEnv::new(
            platform,
            &[zoo::mobilenet_v1()],
            EnvConfig {
                max_layers_per_network: 2,
                power_cap_mw: None,
                area_cap_mm2: None,
            },
        )
    }

    #[test]
    fn session_assessment_monotone_in_budget() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let mut rng = rand::SeedableRng::seed_from_u64(3);
        // Find a hardware for which all jobs become feasible.
        for attempt in 0..40 {
            let hw = e.platform().sample_hw(&mut rng);
            let mut s = e.session(hw, attempt);
            s.advance_to(120);
            if let Some(a_full) = s.assess() {
                let a_half = s.assess_at(60);
                if let Some(a_half) = a_half {
                    assert!(a_full.latency_s <= a_half.latency_s + 1e-12);
                }
                assert!(a_full.power_mw > 0.0);
                assert!(a_full.area_mm2 > 0.0);
                assert_eq!(s.spent(), 120);
                assert!(s.cost_seconds() > 0.0);
                return;
            }
        }
        panic!("no feasible hardware found in 40 samples");
    }

    #[test]
    fn power_cap_marks_infeasible() {
        let p = SpatialPlatform::edge();
        let cfg = EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: Some(1e-9), // nothing passes
            ..EnvConfig::default()
        };
        let e = CoSearchEnv::new(&p, &[zoo::mobilenet_v1()], cfg);
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let hw = e.platform().sample_hw(&mut rng);
        let mut s = e.session(hw, 0);
        s.advance_to(60);
        assert!(s.assess().is_none());
        assert_eq!(s.terminal_value(), f64::INFINITY);
    }

    #[test]
    fn parallel_advance_matches_serial_budgets() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let mut sessions: Vec<_> = (0..4)
            .map(|i| e.session(e.platform().sample_hw(&mut rng), i))
            .collect();
        let select = vec![true, false, true, true];
        advance_parallel(&mut sessions, &select, 30);
        assert_eq!(sessions[0].spent(), 30);
        assert_eq!(sessions[1].spent(), 0);
        assert_eq!(sessions[2].spent(), 30);
    }

    #[test]
    fn job_count_matches_reduced_networks() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        assert_eq!(e.num_jobs(), 2);
        assert_eq!(e.networks().len(), 1);
        let mut rng = rand::SeedableRng::seed_from_u64(9);
        let s = e.session(e.platform().sample_hw(&mut rng), 0);
        assert_eq!(s.num_jobs(), 2);
        assert_eq!(s.job_histories().len(), 2);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    /// Two stacked 3x3 convs whose intermediate survives lowering as a
    /// single fusion edge.
    fn conv_pair() -> unico_workloads::ImportedGraph {
        unico_workloads::frontend::import_json(
            r#"{
              "name": "conv-pair",
              "inputs": [{"name": "x", "dims": [1, 16, 16, 16]}],
              "initializers": [
                {"name": "w1", "dims": [16, 16, 3, 3]},
                {"name": "w2", "dims": [16, 16, 3, 3]}
              ],
              "nodes": [
                {"op": "Conv", "name": "c1", "inputs": ["x", "w1"], "outputs": ["t"],
                 "attrs": {"pads": [1, 1, 1, 1]}},
                {"op": "Conv", "name": "c2", "inputs": ["t", "w2"], "outputs": ["y"],
                 "attrs": {"pads": [1, 1, 1, 1]}}
              ],
              "outputs": ["y"]
            }"#,
        )
        .expect("valid graph")
    }

    #[test]
    fn with_graphs_remaps_edges_through_layer_reduction() {
        let p = SpatialPlatform::edge();
        let g = conv_pair();
        let full = CoSearchEnv::with_graphs(&p, std::slice::from_ref(&g), EnvConfig::default());
        assert_eq!(
            full.fusion_edges(),
            &[vec![unico_workloads::FusionEdge {
                producer: 0,
                consumer: 1,
                elems: 16 * 16 * 16,
            }]]
        );
        // Reducing to one layer drops the edge (its endpoints no
        // longer coexist).
        let reduced = CoSearchEnv::with_graphs(
            &p,
            std::slice::from_ref(&g),
            EnvConfig {
                max_layers_per_network: 1,
                ..EnvConfig::default()
            },
        );
        assert_eq!(reduced.fusion_edges(), &[Vec::new()]);
    }

    #[test]
    fn graphs_without_pricer_assess_bitwise_identical_to_per_layer() {
        // The loop-centric engine has no fusion pricer, so even with
        // edges present the fused path must fall through to exactly
        // the per-layer arithmetic.
        let p = SpatialPlatform::edge().with_engine(unico_model::PpaEngine::LoopCentric);
        let g = conv_pair();
        let e_plain = CoSearchEnv::new(&p, &[g.network().clone()], EnvConfig::default());
        let e_fused = CoSearchEnv::with_graphs(&p, std::slice::from_ref(&g), EnvConfig::default());
        let mut rng = rand::SeedableRng::seed_from_u64(11);
        for attempt in 0..40 {
            let hw = e_plain.platform().sample_hw(&mut rng);
            let mut a = e_plain.session(hw, attempt);
            let mut b = e_fused.session(hw, attempt);
            a.advance_to(80);
            b.advance_to(80);
            if let (Some(pa), Some(pb)) = (a.assess(), b.assess()) {
                assert_eq!(pa.latency_s.to_bits(), pb.latency_s.to_bits());
                assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits());
                assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits());
                assert!(b.fusion_report_at(80).is_none());
                assert_eq!(b.fusion_stats().groups_tried, 0);
                return;
            }
        }
        panic!("no feasible hardware found in 40 samples");
    }

    #[test]
    fn accepted_fusion_strictly_reduces_dram_and_never_worsens_latency() {
        let p = SpatialPlatform::edge();
        let g = conv_pair();
        let e_plain = CoSearchEnv::new(&p, &[g.network().clone()], EnvConfig::default());
        let e_fused = CoSearchEnv::with_graphs(&p, std::slice::from_ref(&g), EnvConfig::default());
        let mut rng = rand::SeedableRng::seed_from_u64(13);
        for attempt in 0..60 {
            let hw = e_plain.platform().sample_hw(&mut rng);
            let mut a = e_plain.session(hw, attempt);
            let mut b = e_fused.session(hw, attempt);
            a.advance_to(80);
            b.advance_to(80);
            let (Some(pa), Some(pb)) = (a.assess(), b.assess()) else {
                continue;
            };
            let Some(report) = b.fusion_report_at(80) else {
                continue;
            };
            if report.stats.groups_accepted == 0 {
                continue;
            }
            // The accepted group holds its intermediate on-chip:
            // strictly less modeled DRAM traffic, never more latency.
            assert!(report.dram_bytes_fused < report.dram_bytes_unfused);
            assert!(pb.latency_s <= pa.latency_s);
            assert_eq!(
                report.plans,
                vec![(0, FusionPlan::from_groups(vec![vec![0, 1]]))]
            );
            assert_eq!(report.overrides.len(), 2);
            // assess() booked the planner counters.
            assert!(b.fusion_stats().groups_tried >= 1);
            assert!(b.fusion_stats().groups_accepted >= 1);
            return;
        }
        panic!("no hardware with an accepted fused group in 60 samples");
    }
}
