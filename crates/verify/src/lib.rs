//! # fpga-verify
//!
//! Cross-stage combinational equivalence checking (CEC) for the flow:
//! the guardrail that proves what the toolset mapped is what the fabric
//! computes, stage by stage, from the synthesized netlist down to the
//! decoded bitstream.
//!
//! The engine extracts a register-bounded cone view ([`CombView`]) from
//! every stage artifact and proves equivalence by 64-bit-parallel
//! random-simulation signatures: every cut point (primary input or FF Q)
//! is driven by a 64-lane word derived deterministically from the seed
//! and the cut point's *name* — so the same vectors hit the same symbols
//! in both views regardless of net numbering — and the observable words
//! (primary outputs, FF D inputs) must match lane for lane. Structurally
//! identical cone pairs are settled by hashing alone, without
//! simulation; on a signature mismatch the first differing lane becomes
//! a concrete [`Counterexample`] that replays through the scalar
//! reference evaluator in `fpga_netlist::sim`.
//!
//! Random simulation can only refute equivalence, never prove it — a
//! clean run is "no divergence found in `vectors` vectors", the standard
//! signature-CEC guarantee. The deliberate-fault harness
//! (`scripts/check.sh`) keeps the refutation path honest.

mod view;

use fpga_netlist::mix::{fnv1a, xorshift64, FNV_OFFSET, FNV_PRIME, XORSHIFT_STAR};

pub use view::CombView;

/// Default signature seed. Matches the seed the fabric-emulation stage
/// uses so one `--verify` knob governs both checks.
pub const DEFAULT_SEED: u64 = 0xF00D;

/// Default number of 64-lane batches per comparison (512 vectors).
pub const DEFAULT_BATCHES: usize = 8;

/// Errors from view extraction and comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The view could not be built or replayed — an unverifiable cone
    /// (surfaced as EQ003).
    View(String),
    /// The artifact's register/IO boundary contradicts the reference:
    /// missing state elements, unrouted pins, contention, or a
    /// combinational loop that no flip-flop cuts. A real
    /// stage-level mismatch, but one with no single counterexample
    /// vector.
    Boundary(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::View(msg) => write!(f, "unverifiable cone: {msg}"),
            VerifyError::Boundary(msg) => write!(f, "boundary mismatch: {msg}"),
        }
    }
}

impl std::error::Error for VerifyError {}

pub type Result<T> = std::result::Result<T, VerifyError>;

/// A concrete refutation of equivalence: one cut assignment under which
/// an observable differs between reference and candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The observable that diverges (`po:<name>` or `ff:<q name>`).
    pub observable: String,
    /// Reference value under the assignment.
    pub want: bool,
    /// Candidate value under the assignment.
    pub got: bool,
    /// Cut-point assignment, sorted by name.
    pub assignment: Vec<(String, bool)>,
}

impl Counterexample {
    /// Render in the replayable one-line format documented in DESIGN.md:
    /// `observable <name> reference=<b> candidate=<b> :: <cut>=<b> ...`.
    pub fn render(&self) -> String {
        let cuts = self
            .assignment
            .iter()
            .map(|(n, v)| format!("{n}={}", *v as u8))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "observable {} reference={} candidate={} :: {cuts}",
            self.observable, self.want as u8, self.got as u8
        )
    }

    /// Parse the [`render`](Self::render) format back.
    pub fn parse(text: &str) -> Option<Counterexample> {
        let (head, cuts) = text.split_once(" :: ")?;
        let mut words = head.split_whitespace();
        if words.next()? != "observable" {
            return None;
        }
        let observable = words.next()?.to_string();
        let want = words.next()?.strip_prefix("reference=")? == "1";
        let got = words.next()?.strip_prefix("candidate=")? == "1";
        let mut assignment = Vec::new();
        for pair in cuts.split_whitespace() {
            let (name, bit) = pair.rsplit_once('=')?;
            assignment.push((name.to_string(), bit == "1"));
        }
        Some(Counterexample {
            observable,
            want,
            got,
            assignment,
        })
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// The outcome of one pairwise view comparison.
#[derive(Clone, Debug)]
pub struct EquivReport {
    /// Cones (observables) compared.
    pub cones: usize,
    /// Cones settled by structural hashing alone.
    pub deduped: usize,
    /// Random vectors simulated (0 when hashing settled everything).
    pub vectors: usize,
    /// `None` means no divergence was found.
    pub counterexample: Option<Counterexample>,
}

impl EquivReport {
    pub fn equivalent(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// The 64-lane word driving cut point `name` in batch `batch`: an FNV
/// hash of the name xorshift-mixed with the seed and batch index.
/// Keying by name is what aligns vectors across differently-numbered
/// views.
pub fn cut_word(seed: u64, name: &str, batch: u64) -> u64 {
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let mut state =
        h ^ seed.wrapping_mul(0x9E3779B97F4A7C15) ^ batch.wrapping_mul(0xD1B54A32D192ED03);
    state |= 1;
    xorshift64(&mut state);
    xorshift64(&mut state).wrapping_mul(XORSHIFT_STAR)
}

/// Prove (to `batches * 64` random vectors) or refute that two views
/// compute the same function over their shared register-bounded
/// boundary.
///
/// Errors when the boundaries themselves disagree ([`VerifyError::Boundary`])
/// — that is a finding in its own right, not a failure of the checker.
pub fn check_equiv(
    reference: &CombView,
    candidate: &CombView,
    seed: u64,
    batches: usize,
) -> Result<EquivReport> {
    boundary_match("cut point", &reference.cuts, &candidate.cuts)?;
    boundary_match("observable", &reference.observables, &candidate.observables)?;

    let ref_hashes = reference.cone_hashes();
    let cand_hashes = candidate.cone_hashes();
    let pending: Vec<usize> = (0..reference.observables.len())
        .filter(|&i| ref_hashes[i] != cand_hashes[i])
        .collect();
    let cones = reference.observables.len();
    if pending.is_empty() {
        return Ok(EquivReport {
            cones,
            deduped: cones,
            vectors: 0,
            counterexample: None,
        });
    }

    let mut words = vec![0u64; reference.cuts.len()];
    for batch in 0..batches {
        for ((name, _), w) in reference.cuts.iter().zip(words.iter_mut()) {
            *w = cut_word(seed, name, batch as u64);
        }
        let rv = reference.eval64(&words);
        let cv = candidate.eval64(&words);
        for &i in &pending {
            let diff = rv[i] ^ cv[i];
            if diff == 0 {
                continue;
            }
            let bit = diff.trailing_zeros();
            let assignment = reference
                .cuts
                .iter()
                .zip(words.iter())
                .map(|((name, _), w)| (name.clone(), w >> bit & 1 == 1))
                .collect();
            return Ok(EquivReport {
                cones,
                deduped: cones - pending.len(),
                vectors: batch * 64 + bit as usize + 1,
                counterexample: Some(Counterexample {
                    observable: reference.observables[i].0.clone(),
                    want: rv[i] >> bit & 1 == 1,
                    got: cv[i] >> bit & 1 == 1,
                    assignment,
                }),
            });
        }
    }
    Ok(EquivReport {
        cones,
        deduped: cones - pending.len(),
        vectors: batches * 64,
        counterexample: None,
    })
}

/// A stable digest of one view's signature response: what the
/// determinism suite compares across fresh runs and cache replays.
pub fn signature_digest(view: &CombView, seed: u64, batches: usize) -> u64 {
    let mut words = vec![0u64; view.cuts.len()];
    let mut digest = FNV_OFFSET;
    for batch in 0..batches {
        for ((name, _), w) in view.cuts.iter().zip(words.iter_mut()) {
            *w = cut_word(seed, name, batch as u64);
        }
        for ((name, _), out) in view.observables.iter().zip(view.eval64(&words)) {
            digest = fnv1a(digest, name.as_bytes());
            digest = (digest ^ out).wrapping_mul(FNV_PRIME);
        }
    }
    digest
}

fn boundary_match(
    what: &str,
    reference: &[(String, fpga_netlist::ir::NetId)],
    candidate: &[(String, fpga_netlist::ir::NetId)],
) -> Result<()> {
    // Both sides are sorted by name; walk them together.
    let (mut i, mut j) = (0, 0);
    let mut missing: Vec<&str> = Vec::new();
    let mut extra: Vec<&str> = Vec::new();
    while i < reference.len() || j < candidate.len() {
        match (reference.get(i), candidate.get(j)) {
            (Some((r, _)), Some((c, _))) if r == c => {
                i += 1;
                j += 1;
            }
            (Some((r, _)), Some((c, _))) if r < c => {
                missing.push(r);
                i += 1;
            }
            (Some(_), Some((c, _))) => {
                extra.push(c);
                j += 1;
            }
            (Some((r, _)), None) => {
                missing.push(r);
                i += 1;
            }
            (None, Some((c, _))) => {
                extra.push(c);
                j += 1;
            }
            (None, None) => break,
        }
    }
    if missing.is_empty() && extra.is_empty() {
        return Ok(());
    }
    let mut detail = String::new();
    if !missing.is_empty() {
        detail.push_str(&format!(
            "{} {what}(s) missing from the candidate (first: '{}')",
            missing.len(),
            missing[0]
        ));
    }
    if !extra.is_empty() {
        if !detail.is_empty() {
            detail.push_str("; ");
        }
        detail.push_str(&format!(
            "{} extra {what}(s) in the candidate (first: '{}')",
            extra.len(),
            extra[0]
        ));
    }
    Err(VerifyError::Boundary(detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::device::Device;
    use fpga_arch::Architecture;
    use fpga_bitstream::config::generate;
    use fpga_netlist::ir::{CellKind, Netlist};
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};
    use fpga_route::rrgraph::RrGraph;
    use fpga_route::{PathFinderRouter, RouteConfig, RouteEngine};
    use fpga_synth::{map_to_luts, MapOptions};

    fn mixed_netlist() -> Netlist {
        // A little of everything: gates, a mux, and two FFs.
        let mut n = Netlist::new("mixed");
        let clk = n.net("clk");
        n.add_clock(clk);
        let a = n.net("a");
        let b = n.net("b");
        let c = n.net("c");
        for &i in &[a, b, c] {
            n.add_input(i);
        }
        let t = n.net("t");
        n.add_cell("g_xor", CellKind::Xor, vec![a, b], t);
        let m = n.net("m");
        n.add_cell("g_mux", CellKind::Mux2, vec![c, t, a], m);
        let q0 = n.net("q0");
        n.add_cell(
            "ff0",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![m],
            q0,
        );
        let d1 = n.net("d1");
        n.add_cell("g_and", CellKind::And, vec![q0, b], d1);
        let q1 = n.net("q1");
        n.add_cell(
            "ff1",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d1],
            q1,
        );
        let y = n.net("y");
        n.add_output(y);
        n.add_cell("g_or", CellKind::Or, vec![q1, t], y);
        n.add_output(q0);
        n
    }

    struct Flow {
        rtl: Netlist,
        mapped: Netlist,
        clustering: fpga_pack::Clustering,
        placement: fpga_place::Placement,
        graph: RrGraph,
        routing: fpga_route::RouteResult,
        bitstream: fpga_bitstream::config::Bitstream,
    }

    fn run_flow(rtl: Netlist) -> Flow {
        let (mut mapped, _) = map_to_luts(&rtl, MapOptions::default()).unwrap();
        fpga_pack::prepare(&mut mapped).unwrap();
        let arch = Architecture::paper_default();
        let clustering = fpga_pack::pack(&mapped, &arch.clb).unwrap();
        let ios = mapped.inputs.len() + mapped.outputs.len() + 2;
        let device = Device::sized_for(arch, clustering.clusters.len(), ios);
        let placement = AnnealingPlacer::new(PlaceConfig::new().seed(3).inner_num(1.5))
            .place(&clustering, device)
            .unwrap();
        let graph = RrGraph::build(
            &placement.device,
            placement.device.arch.routing.channel_width.max(10),
        );
        let routing = PathFinderRouter::new(RouteConfig::new())
            .route(&clustering, &placement, &graph)
            .unwrap();
        let bitstream = generate(&clustering, &placement, &routing, &graph).unwrap();
        Flow {
            rtl,
            mapped,
            clustering,
            placement,
            graph,
            routing,
            bitstream,
        }
    }

    /// Recorded at eb39634, before the FNV loop and the xorshift step
    /// moved to `fpga_netlist::mix`: the vectors every signature and
    /// every recorded counterexample seed is made of.
    #[test]
    fn cut_word_keeps_its_recorded_values() {
        assert_eq!(cut_word(0, "a", 0), 0x64878527d9f7ae1c);
        assert_eq!(cut_word(0x5eed_f10d, "count[3]", 7), 0xa34df043c1f7abaa);
        assert_eq!(cut_word(u64::MAX, "ff:q_reg", 1 << 40), 0x215ccd284d3e3a16);
    }

    #[test]
    fn every_stage_view_is_equivalent_to_the_netlist() {
        let f = run_flow(mixed_netlist());
        let reference = CombView::from_netlist("netlist", &f.rtl).unwrap();
        let candidates = [
            CombView::from_netlist("mapped", &f.mapped).unwrap(),
            CombView::from_clustering(&f.clustering).unwrap(),
            CombView::from_placement(&f.clustering, &f.placement).unwrap(),
            CombView::from_routing(&f.clustering, &f.placement, &f.graph, &f.routing).unwrap(),
            CombView::from_bitstream(&f.bitstream, &f.clustering, &f.placement).unwrap(),
        ];
        for cand in &candidates {
            let report = check_equiv(&reference, cand, DEFAULT_SEED, DEFAULT_BATCHES)
                .unwrap_or_else(|e| panic!("{} vs netlist: {e}", cand.stage));
            assert!(
                report.equivalent(),
                "{} vs netlist: {}",
                cand.stage,
                report.counterexample.unwrap()
            );
            assert_eq!(report.cones, reference.observables.len());
        }
    }

    #[test]
    fn packed_view_is_fully_deduped_by_structural_hashing() {
        let f = run_flow(mixed_netlist());
        let mapped = CombView::from_netlist("mapped", &f.mapped).unwrap();
        let packed = CombView::from_clustering(&f.clustering).unwrap();
        let report = check_equiv(&mapped, &packed, DEFAULT_SEED, DEFAULT_BATCHES).unwrap();
        assert!(report.equivalent());
        assert_eq!(
            report.deduped, report.cones,
            "pack copies cells verbatim; hashing alone must settle it"
        );
        assert_eq!(report.vectors, 0);
    }

    #[test]
    fn corrupted_truth_table_yields_replayable_counterexample() {
        let f = run_flow(mixed_netlist());
        let reference = CombView::from_netlist("netlist", &f.rtl).unwrap();
        let mut corrupt = f.mapped.clone();
        let lut = corrupt
            .cells
            .iter_mut()
            .find(|c| matches!(c.kind, CellKind::Lut { .. }))
            .expect("mapped netlist has a LUT");
        if let CellKind::Lut { truth, .. } = &mut lut.kind {
            *truth ^= 1; // flip minterm 0
        }
        let cand = CombView::from_netlist("mapped", &corrupt).unwrap();
        let report = check_equiv(&reference, &cand, DEFAULT_SEED, DEFAULT_BATCHES).unwrap();
        let cex = report.counterexample.expect("bit flip must be caught");

        // The counterexample replays through the scalar reference
        // evaluator and reproduces the divergence.
        let ref_out = reference.replay(&cex.assignment).unwrap();
        let cand_out = cand.replay(&cex.assignment).unwrap();
        let want = ref_out.iter().find(|(n, _)| *n == cex.observable).unwrap();
        let got = cand_out.iter().find(|(n, _)| *n == cex.observable).unwrap();
        assert_eq!(want.1, cex.want);
        assert_eq!(got.1, cex.got);
        assert_ne!(want.1, got.1, "replay must reproduce the divergence");

        // And it round-trips through the diagnostic text format.
        let parsed = Counterexample::parse(&cex.render()).unwrap();
        assert_eq!(parsed, cex);
    }

    #[test]
    fn missing_state_element_is_a_boundary_mismatch() {
        let f = run_flow(mixed_netlist());
        let reference = CombView::from_netlist("netlist", &f.rtl).unwrap();
        let mut chopped = f.mapped.clone();
        let ff = chopped
            .cells
            .iter()
            .position(|c| matches!(c.kind, CellKind::Dff { .. }))
            .unwrap();
        chopped.cells.remove(ff);
        let cand = CombView::from_netlist("mapped", &chopped).unwrap();
        match check_equiv(&reference, &cand, DEFAULT_SEED, 1) {
            Err(VerifyError::Boundary(msg)) => {
                assert!(msg.contains("missing"), "got: {msg}")
            }
            other => panic!("expected a boundary mismatch, got {other:?}"),
        }
    }

    #[test]
    fn eval64_matches_the_scalar_reference_evaluator() {
        // Drive the mixed netlist's view with signature words and check
        // every lane against sim::eval_cell replays.
        let nl = mixed_netlist();
        let view = CombView::from_netlist("netlist", &nl).unwrap();
        let words: Vec<u64> = view
            .cuts
            .iter()
            .map(|(name, _)| cut_word(7, name, 0))
            .collect();
        let outs = view.eval64(&words);
        for bit in [0u32, 17, 63] {
            let assignment: Vec<(String, bool)> = view
                .cuts
                .iter()
                .zip(words.iter())
                .map(|((name, _), w)| (name.clone(), w >> bit & 1 == 1))
                .collect();
            let scalar = view.replay(&assignment).unwrap();
            for (i, (name, v)) in scalar.iter().enumerate() {
                assert_eq!(
                    *v,
                    outs[i] >> bit & 1 == 1,
                    "lane {bit} of observable '{name}'"
                );
            }
        }
    }

    #[test]
    fn signature_digest_is_stable() {
        let nl = mixed_netlist();
        let view = CombView::from_netlist("netlist", &nl).unwrap();
        let a = signature_digest(&view, DEFAULT_SEED, DEFAULT_BATCHES);
        let b = signature_digest(&view, DEFAULT_SEED, DEFAULT_BATCHES);
        assert_eq!(a, b);
        assert_ne!(
            a,
            signature_digest(&view, DEFAULT_SEED + 1, DEFAULT_BATCHES)
        );
    }
}
