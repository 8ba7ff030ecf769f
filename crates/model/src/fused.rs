//! Fused-group cost accounting for the analytical model.
//!
//! A fusion group executes a chain of layers with the intermediate
//! activation tensors pinned in the L2 global buffer: the producer's
//! DRAM write-back and the consumer's DRAM read of that tensor are both
//! skipped. Everything else — compute, NoC traffic, L1/L2 energy, the
//! per-tile overheads — is the standalone per-layer model, term for
//! term. A member with no fused edges therefore prices **bitwise
//! identical** to [`AnalyticalModel::evaluate_detailed`]; a member with
//! any fused edge strictly reduces DRAM bytes (every skipped term is a
//! positive `footprint × loads` product).
//!
//! Legality: each member must fit the buffers on its own (the standalone
//! feasibility rules) *and* with the group's resident intermediates
//! charged against L2: `2·fp2 + resident_bytes ≤ l2_bytes`.
//!
//! [`FusedCostOracle`] adapts this pricing to the
//! [`FusionOracle`](unico_mapping::FusionOracle) trait the greedy fusion
//! planner consults.

use unico_mapping::{FusionGain, FusionOracle, Mapping};
use unico_workloads::{FusionEdge, LoopNest};

use crate::analytical::AnalyticalModel;
use crate::batch::MappingRow;
use crate::evalcache::{spatial_key_prefix, EngineTag, EvalKey};
use crate::hw::HwConfig;
use crate::ppa::{EvalError, Ppa};
use crate::traffic::{level_loads, TensorKind};

/// One layer of a candidate fusion chain, with the mapping to price it
/// under (normally the best mapping its own search found).
#[derive(Debug, Clone, Copy)]
pub struct FusedMember<'a> {
    /// Layer index in the network's (possibly reduced) layer table —
    /// the id space of the chain and its edges.
    pub layer: usize,
    /// The layer's loop nest.
    pub nest: &'a LoopNest,
    /// The mapping to execute the layer under.
    pub mapping: &'a Mapping,
    /// Layer repeat count (weights the group's traffic totals).
    pub repeat: u32,
}

/// Fused pricing of one chain member.
#[derive(Debug, Clone, Copy)]
pub struct FusedMemberCost {
    /// Layer index (mirrors [`FusedMember::layer`]).
    pub layer: usize,
    /// PPA with fused DRAM accounting (one execution, not
    /// repeat-weighted).
    pub ppa: Ppa,
    /// Modeled DRAM bytes executed standalone (one execution).
    pub dram_bytes_unfused: f64,
    /// Modeled DRAM bytes inside the group (one execution).
    pub dram_bytes_fused: f64,
}

/// Fused pricing of a whole chain.
#[derive(Debug, Clone)]
pub struct FusedGroupEval {
    /// Per-member fused costs, in chain order.
    pub members: Vec<FusedMemberCost>,
    /// Repeat-weighted DRAM bytes of the members executed standalone.
    pub dram_bytes_unfused: f64,
    /// Repeat-weighted DRAM bytes of the fused chain.
    pub dram_bytes_fused: f64,
}

/// Cache key for one fused member evaluation. The fused result depends
/// only on `(hw, nest, mapping)` plus the member's fusion context —
/// which sides skip DRAM and how many intermediate elements stay
/// resident — so members shared between candidate chains hit.
pub fn fused_member_key(
    hw: &HwConfig,
    nest: &LoopNest,
    mapping: &Mapping,
    skip_input: bool,
    skip_output: bool,
    resident_elems: u64,
) -> EvalKey {
    let mut b = spatial_key_prefix(EngineTag::FusedGroup, hw, nest);
    b.mapping_full(mapping, nest)
        .word(u64::from(skip_input))
        .word(u64::from(skip_output))
        .word(resident_elems);
    b.finish()
}

impl AnalyticalModel {
    /// Prices one layer as a fusion-group member: `skip_input` /
    /// `skip_output` drop the corresponding DRAM terms (the tensor stays
    /// in L2), `resident_elems` intermediate elements are charged
    /// against L2 capacity while the member runs.
    ///
    /// With both skips off and no residents this is exactly
    /// [`AnalyticalModel::evaluate_detailed`] — same arithmetic, same
    /// bits.
    ///
    /// # Errors
    ///
    /// The standalone feasibility rules, plus [`EvalError::L2Overflow`]
    /// when the double-buffered L2 working set no longer fits next to
    /// the resident intermediates.
    pub fn evaluate_fused_member(
        &self,
        hw: &HwConfig,
        nest: &LoopNest,
        mapping: &Mapping,
        skip_input: bool,
        skip_output: bool,
        resident_elems: u64,
    ) -> Result<FusedMemberCost, EvalError> {
        let t = self.tech();
        let row = MappingRow::derive(mapping, nest, t.bytes_per_elem);
        let area = self.area_mm2(hw);
        let (ppa, bd) = self.evaluate_row(hw, &row, nest, area, nest.macs() as f64)?;

        let fp2 = row.l2_footprint();
        let resident_bytes = resident_elems * t.bytes_per_elem;
        let required = fp2.total() * 2 + resident_bytes;
        if required > hw.l2_bytes() {
            return Err(EvalError::L2Overflow {
                required,
                available: hw.l2_bytes(),
            });
        }

        if !skip_input && !skip_output {
            // No fused edges: the standalone evaluation IS the answer —
            // returning it directly keeps singleton members bitwise
            // identical to the per-layer path.
            return Ok(FusedMemberCost {
                layer: 0,
                ppa,
                dram_bytes_unfused: bd.dram_bytes,
                dram_bytes_fused: bd.dram_bytes,
            });
        }

        // Rebuild the DRAM byte count with the same fold `cost_core`
        // uses (Input, Weight, Output; output pays read-modify-write
        // revisits), dropping the fused tensors' terms.
        let l2_loads = level_loads(nest, row.l2_trips(), row.order());
        let term = |tensor: TensorKind, (loads, min_loads): (u64, u64)| {
            let fp = match tensor {
                TensorKind::Input => fp2.input,
                TensorKind::Weight => fp2.weight,
                TensorKind::Output => fp2.output,
            } as f64;
            let loads = loads as f64;
            match tensor {
                TensorKind::Output => fp * (2.0 * loads - min_loads as f64),
                _ => fp * loads,
            }
        };
        let mut dram_unfused = 0.0;
        let mut dram_fused = 0.0;
        for (tensor, level) in TensorKind::ALL.into_iter().zip(l2_loads) {
            let b = term(tensor, level);
            dram_unfused += b;
            let skipped = (tensor == TensorKind::Input && skip_input)
                || (tensor == TensorKind::Output && skip_output);
            if !skipped {
                dram_fused += b;
            }
        }

        // Latency: only the DRAM leg of the roofline changes; the
        // per-tile and launch overheads ride along unchanged.
        let base_max = bd.compute_cycles.max(bd.noc_cycles).max(bd.dram_cycles);
        let overhead = bd.total_cycles - base_max;
        let dram_cycles_fused = dram_fused / t.dram_bytes_per_cycle;
        let total_cycles = bd.compute_cycles.max(bd.noc_cycles).max(dram_cycles_fused) + overhead;
        let latency_s = total_cycles / t.clock_hz;

        // Energy: the saved bytes stop paying the DRAM event energy
        // (they still transit L2, so `e_l2` stands), and leakage
        // integrates over the shorter runtime.
        let saved_bytes = dram_unfused - dram_fused;
        let energy_pj = ppa.energy_pj
            - saved_bytes * t.e_dram_pj_per_byte
            - t.leakage_mw_per_mm2 * area * (ppa.latency_s - latency_s) * 1e9;
        let power_mw = energy_pj / (latency_s * 1e9);

        Ok(FusedMemberCost {
            layer: 0, // caller stamps the chain id
            ppa: Ppa {
                latency_s,
                power_mw,
                area_mm2: area,
                energy_pj,
            },
            dram_bytes_unfused: dram_unfused,
            dram_bytes_fused: dram_fused,
        })
    }

    /// Prices a whole fusion chain: members in execution order, `edges`
    /// the chain-internal intermediates. Each member skips the DRAM
    /// legs its fused edges cover and is charged for all the chain's
    /// intermediates as L2 residents (they stay pinned for the group's
    /// lifetime).
    ///
    /// # Errors
    ///
    /// The first member that fails its feasibility rules fails the
    /// chain.
    pub fn evaluate_fused_group(
        &self,
        hw: &HwConfig,
        members: &[FusedMember<'_>],
        edges: &[FusionEdge],
    ) -> Result<FusedGroupEval, EvalError> {
        let in_chain = |layer: usize| members.iter().any(|m| m.layer == layer);
        let internal: Vec<FusionEdge> = edges
            .iter()
            .copied()
            .filter(|e| in_chain(e.producer) && in_chain(e.consumer))
            .collect();
        let resident_elems: u64 = internal.iter().map(|e| e.elems).sum();

        let mut out = FusedGroupEval {
            members: Vec::with_capacity(members.len()),
            dram_bytes_unfused: 0.0,
            dram_bytes_fused: 0.0,
        };
        for m in members {
            let skip_input = internal.iter().any(|e| e.consumer == m.layer);
            let skip_output = internal.iter().any(|e| e.producer == m.layer);
            let mut cost = self.evaluate_fused_member(
                hw,
                m.nest,
                m.mapping,
                skip_input,
                skip_output,
                resident_elems,
            )?;
            cost.layer = m.layer;
            let r = f64::from(m.repeat);
            out.dram_bytes_unfused += cost.dram_bytes_unfused * r;
            out.dram_bytes_fused += cost.dram_bytes_fused * r;
            out.members.push(cost);
        }
        Ok(out)
    }
}

/// [`FusionOracle`] over the analytical model: prices candidate chains
/// with each layer's own best mapping, rejecting chains that mix repeat
/// counts (the groupwise traffic comparison is only meaningful when all
/// members execute the same number of times) or contain a layer with no
/// priced mapping yet.
pub struct FusedCostOracle<'a> {
    model: &'a AnalyticalModel,
    hw: HwConfig,
    /// Per layer index: `(nest, best mapping, repeat)`; `None` when the
    /// layer's search found nothing feasible.
    layers: Vec<Option<(LoopNest, Mapping, u32)>>,
}

impl<'a> FusedCostOracle<'a> {
    /// Builds an oracle over `layers`, indexed by the id space the
    /// fusion edges use.
    pub fn new(
        model: &'a AnalyticalModel,
        hw: HwConfig,
        layers: Vec<Option<(LoopNest, Mapping, u32)>>,
    ) -> Self {
        FusedCostOracle { model, hw, layers }
    }

    /// Prices a chain fully (per-member PPA included), `None` under the
    /// same conditions as the trait method.
    pub fn price_group(&self, chain: &[usize], edges: &[FusionEdge]) -> Option<FusedGroupEval> {
        let mut members = Vec::with_capacity(chain.len());
        let mut repeat = None;
        for &layer in chain {
            let (nest, mapping, r) = self.layers.get(layer)?.as_ref()?;
            if *repeat.get_or_insert(*r) != *r {
                return None;
            }
            members.push(FusedMember {
                layer,
                nest,
                mapping,
                repeat: *r,
            });
        }
        self.model
            .evaluate_fused_group(&self.hw, &members, edges)
            .ok()
    }
}

impl FusionOracle for FusedCostOracle<'_> {
    fn assess_group(&self, chain: &[usize], edges: &[FusionEdge]) -> Option<FusionGain> {
        let eval = self.price_group(chain, edges)?;
        Some(FusionGain {
            dram_bytes_unfused: eval.dram_bytes_unfused,
            dram_bytes_fused: eval.dram_bytes_fused,
        })
    }
}

/// Object-safe fused pricing the co-search environment consumes: the
/// planner side ([`FusionOracle`]) plus full per-member PPA for the
/// accepted groups. Platforms without a fused cost model simply don't
/// hand one out (see `Platform::fusion_pricer`).
pub trait FusionPricer: FusionOracle + Sync {
    /// Prices a chain fully, `None` under the same conditions as
    /// [`FusionOracle::assess_group`].
    fn price_group(&self, chain: &[usize], edges: &[FusionEdge]) -> Option<FusedGroupEval>;
}

impl FusionPricer for FusedCostOracle<'_> {
    fn price_group(&self, chain: &[usize], edges: &[FusionEdge]) -> Option<FusedGroupEval> {
        FusedCostOracle::price_group(self, chain, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::Dataflow;
    use crate::tech::TechParams;
    use unico_mapping::{search_fusion, FusionPlan};
    use unico_workloads::{Dim, TensorOp};

    fn model() -> AnalyticalModel {
        AnalyticalModel::new(TechParams::default())
    }

    fn hw(l2_kb: u64) -> HwConfig {
        HwConfig::new(8, 8, 4096, l2_kb * 1024, 128, Dataflow::WeightStationary)
    }

    fn conv(k: u64, c: u64) -> LoopNest {
        TensorOp::Conv2d {
            n: 1,
            k,
            c,
            y: 16,
            x: 16,
            r: 3,
            s: 3,
            stride: 1,
        }
        .to_loop_nest()
    }

    fn small_mapping(n: &LoopNest) -> Mapping {
        let mut l2 = n.extents();
        l2[Dim::C.index()] = l2[Dim::C.index()].min(16);
        let mut l1 = [1u64; 7];
        l1[Dim::K.index()] = 8;
        l1[Dim::Y.index()] = 8;
        l1[Dim::X.index()] = 4;
        l1[Dim::C.index()] = 4;
        Mapping::new(n, l2, l1, Dim::ALL, (Dim::K, Dim::Y))
    }

    #[test]
    fn no_fusion_context_is_bitwise_identical_to_standalone() {
        let n = conv(16, 16);
        let m = small_mapping(&n);
        let mdl = model();
        let (ppa, bd) = mdl.evaluate_detailed(&hw(512), &m, &n).unwrap();
        let fused = mdl
            .evaluate_fused_member(&hw(512), &n, &m, false, false, 0)
            .unwrap();
        assert_eq!(fused.ppa.latency_s.to_bits(), ppa.latency_s.to_bits());
        assert_eq!(fused.ppa.energy_pj.to_bits(), ppa.energy_pj.to_bits());
        assert_eq!(fused.ppa.power_mw.to_bits(), ppa.power_mw.to_bits());
        assert_eq!(fused.dram_bytes_unfused.to_bits(), bd.dram_bytes.to_bits());
        assert_eq!(fused.dram_bytes_fused.to_bits(), bd.dram_bytes.to_bits());
    }

    #[test]
    fn skipping_a_side_strictly_reduces_dram_and_energy() {
        let n = conv(16, 16);
        let m = small_mapping(&n);
        let mdl = model();
        let base = mdl
            .evaluate_fused_member(&hw(512), &n, &m, false, false, 0)
            .unwrap();
        for (si, so) in [(true, false), (false, true), (true, true)] {
            let f = mdl
                .evaluate_fused_member(&hw(512), &n, &m, si, so, 0)
                .unwrap();
            assert!(f.dram_bytes_fused < f.dram_bytes_unfused);
            assert!(f.ppa.energy_pj < base.ppa.energy_pj);
            assert!(f.ppa.latency_s <= base.ppa.latency_s);
        }
    }

    #[test]
    fn resident_intermediates_enforce_l2_capacity() {
        let n = conv(16, 16);
        let m = small_mapping(&n);
        let err = model()
            .evaluate_fused_member(&hw(512), &n, &m, true, false, u64::MAX / 4)
            .unwrap_err();
        assert!(matches!(err, EvalError::L2Overflow { .. }));
    }

    #[test]
    fn group_pricing_and_planner_accept_a_real_chain() {
        let mdl = model();
        let n0 = conv(16, 16);
        let n1 = conv(16, 16);
        let edges = [FusionEdge {
            producer: 0,
            consumer: 1,
            elems: 16 * 16 * 16,
        }];
        let oracle = FusedCostOracle::new(
            &mdl,
            hw(512),
            vec![
                Some((n0, small_mapping(&n0), 1)),
                Some((n1, small_mapping(&n1), 1)),
            ],
        );
        let (plan, stats) = search_fusion(2, &edges, &oracle);
        assert_eq!(plan.groups(), &[vec![0, 1]]);
        assert_eq!(stats.groups_tried, 1);
        assert_eq!(stats.groups_accepted, 1);
        let eval = oracle.price_group(&[0, 1], &edges).unwrap();
        assert!(eval.dram_bytes_fused < eval.dram_bytes_unfused);
        // Producer skips the output leg, consumer the input leg.
        assert!(eval.members[0].dram_bytes_fused < eval.members[0].dram_bytes_unfused);
        assert!(eval.members[1].dram_bytes_fused < eval.members[1].dram_bytes_unfused);
    }

    #[test]
    fn mixed_repeats_and_missing_mappings_reject_fusion() {
        let mdl = model();
        let n = conv(16, 16);
        let edges = [FusionEdge {
            producer: 0,
            consumer: 1,
            elems: 16 * 16 * 16,
        }];
        let mixed = FusedCostOracle::new(
            &mdl,
            hw(512),
            vec![
                Some((n, small_mapping(&n), 1)),
                Some((n, small_mapping(&n), 2)),
            ],
        );
        assert!(mixed.assess_group(&[0, 1], &edges).is_none());
        let missing =
            FusedCostOracle::new(&mdl, hw(512), vec![Some((n, small_mapping(&n), 1)), None]);
        assert!(missing.assess_group(&[0, 1], &edges).is_none());
        let (plan, _) = search_fusion(2, &edges, &missing);
        assert!(plan.is_all_singletons());
    }

    #[test]
    fn tight_l2_rejects_the_chain_planner_side() {
        let mdl = model();
        let n = conv(16, 16);
        // L2 just big enough for the standalone working set but not the
        // resident intermediate: fusion must fall back to singletons.
        let m = small_mapping(&n);
        let need = MappingRow::derive(&m, &n, 2).l2_footprint().total() * 2;
        let l2_kb = need.div_ceil(1024) + 1; // < need + intermediate
        let edges = [FusionEdge {
            producer: 0,
            consumer: 1,
            elems: 16 * 16 * 16,
        }];
        let oracle = FusedCostOracle::new(
            &mdl,
            hw(l2_kb),
            vec![Some((n, m.clone(), 1)), Some((n, m.clone(), 1))],
        );
        let (plan, stats) = search_fusion(2, &edges, &oracle);
        assert!(plan.is_all_singletons());
        assert_eq!(stats.groups_tried, 1);
        assert_eq!(stats.groups_accepted, 0);
        let _ = FusionPlan::singleton(2);
    }

    #[test]
    fn fused_member_keys_differ_by_context() {
        let n = conv(16, 16);
        let m = small_mapping(&n);
        let h = hw(512);
        let k0 = fused_member_key(&h, &n, &m, false, false, 0);
        let k1 = fused_member_key(&h, &n, &m, true, false, 0);
        let k2 = fused_member_key(&h, &n, &m, false, true, 0);
        let k3 = fused_member_key(&h, &n, &m, false, false, 4096);
        assert!(k0 != k1 && k0 != k2 && k0 != k3 && k1 != k2);
    }
}
