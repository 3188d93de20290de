//! Property-based corruption tests for the invariant enforcers: every
//! random mutilation of a valid schedule must be rejected by
//! [`validate_schedule`], and every mutilation of a valid
//! [`FissionSpec`] by [`FissionSpec::validate`]. These are the checks
//! the hardened optimizer leans on under `--paranoia`, so they must be
//! airtight against exactly the corruption classes fault injection
//! produces.

// The multi-pass validation that `FissionSpec::validate` replaced
// lives with the rest of the old overlay algorithm.
#[allow(dead_code)]
#[path = "overlay_identity/reference.rs"]
mod reference;

use magis::core::dgraph::{component_dims, DimGraph};
use magis::core::fission::{FissionError, FissionSpec};
use magis::prelude::*;
use magis::sched::{validate_schedule, Schedule, ScheduleError};
use magis_graph::algo::{topo_order, weakly_connected_components};
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_util::prop::prelude::*;
use std::collections::BTreeSet;

fn small_dnn(seed: u64) -> Graph {
    let cfg = RandomDnnConfig { cells: 3, ..RandomDnnConfig::default() };
    random_dnn(&cfg, seed)
}

/// A graph node that has at least one data input (so a reordering can
/// actually violate a dependency).
fn consumer_with_input(g: &Graph, order: &[NodeId], pick: usize) -> Option<(usize, NodeId)> {
    let candidates: Vec<(usize, NodeId)> = order
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| g.node(v).inputs().first().map(|&u| (i, u)))
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[pick % candidates.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn intact_schedules_validate(seed in 0u64..300) {
        let g = small_dnn(seed);
        let order = topo_order(&g);
        prop_assert!(validate_schedule(&g, &order).is_ok());
        prop_assert!(Schedule::new(&order).validate(&g).is_ok());
    }

    #[test]
    fn dropped_entry_is_rejected(seed in 0u64..300, pick in 0usize..1000) {
        let g = small_dnn(seed);
        let mut order = topo_order(&g);
        prop_assume!(order.len() >= 2);
        order.remove(pick % order.len());
        let err = validate_schedule(&g, &order).unwrap_err();
        prop_assert!(matches!(
            err,
            ScheduleError::MissingNode(_) | ScheduleError::LengthMismatch { .. }
        ), "got {err:?}");
    }

    #[test]
    fn duplicated_entry_is_rejected(seed in 0u64..300, pick in 0usize..1000) {
        // The CorruptRewrite fault: one entry overwrites another, so
        // the length still matches but a node is scheduled twice.
        let g = small_dnn(seed);
        let mut order = topo_order(&g);
        prop_assume!(order.len() >= 2);
        let i = pick % order.len();
        let j = (i + 1) % order.len();
        order[j] = order[i];
        let err = validate_schedule(&g, &order).unwrap_err();
        prop_assert!(matches!(
            err,
            ScheduleError::DuplicateNode(_) | ScheduleError::MissingNode(_)
        ), "got {err:?}");
    }

    #[test]
    fn dead_node_is_rejected(seed in 0u64..300, pick in 0usize..1000) {
        let g = small_dnn(seed);
        let mut order = topo_order(&g);
        prop_assume!(!order.is_empty());
        let i = pick % order.len();
        order[i] = NodeId::from_index(g.capacity() + 7);
        let err = validate_schedule(&g, &order).unwrap_err();
        prop_assert!(matches!(
            err,
            ScheduleError::DeadNode(_) | ScheduleError::MissingNode(_)
        ), "got {err:?}");
    }

    #[test]
    fn consumer_before_producer_is_rejected(seed in 0u64..300, pick in 0usize..1000) {
        let g = small_dnn(seed);
        let mut order = topo_order(&g);
        let Some((i, _dep)) = consumer_with_input(&g, &order, pick) else {
            return Ok(());
        };
        // Move the consumer to the front: its producer now comes later.
        // In a valid topo order a node with an input can never sit at
        // position 0, so the move is always a real reordering.
        prop_assert!(i != 0);
        let v = order.remove(i);
        order.insert(0, v);
        prop_assert!(matches!(
            validate_schedule(&g, &order),
            Err(ScheduleError::DependencyViolation { .. })
        ));
    }
}

/// Enumerates a few valid fission specs of `g` (same construction the
/// fission property suite uses).
fn valid_specs(g: &Graph) -> Vec<FissionSpec> {
    let dg = DimGraph::build(g);
    let order = topo_order(g);
    let mut specs = Vec::new();
    for comp in dg.components() {
        let nodes: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
        let comp_order: Vec<NodeId> =
            order.iter().copied().filter(|v| nodes.contains(v)).collect();
        for len in [2usize, 4] {
            for start in (0..comp_order.len().saturating_sub(len)).step_by(5) {
                let set: BTreeSet<NodeId> =
                    comp_order[start..start + len].iter().copied().collect();
                if weakly_connected_components(g, &set).len() != 1 {
                    continue;
                }
                let Some(dims) = component_dims(&comp, &set) else { continue };
                let spec = FissionSpec { set, dims, parts: 2 };
                if spec.validate(g).is_ok() {
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

fn build_mlp(batch: u64, hidden: u64, depth: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let mut cur = b.input([batch, hidden], "x");
    for i in 0..depth {
        let w = b.weight([hidden, hidden], &format!("w{i}"));
        let h = b.matmul(cur, w);
        cur = b.gelu(h);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corrupted_fission_specs_are_rejected(
        batch in 16u64..64,
        hidden in 16u64..48,
        pick in 0usize..1000,
    ) {
        let g = build_mlp(batch, hidden, 4);
        let specs = valid_specs(&g);
        prop_assume!(!specs.is_empty());
        let spec = specs[pick % specs.len()].clone();
        prop_assert!(spec.validate(&g).is_ok());

        // Coverage hole: a node in `set` with no dimension choice.
        let mut holed = spec.clone();
        let victim = *holed.set.iter().next().expect("non-empty set");
        holed.dims.remove(&victim);
        prop_assert_eq!(holed.validate(&g), Err(FissionError::BadCoverage));

        // Empty set.
        let mut empty = spec.clone();
        empty.set.clear();
        empty.dims.clear();
        prop_assert_eq!(empty.validate(&g), Err(FissionError::BadCoverage));

        // Dead node injected into both set and dims.
        let mut dead = spec.clone();
        let ghost = NodeId::from_index(g.capacity() + 3);
        dead.set.insert(ghost);
        dead.dims.insert(ghost, 1);
        prop_assert!(dead.validate(&g).is_err());

        // Part count larger than any dimension extent.
        let mut huge = spec.clone();
        huge.parts = u64::MAX;
        prop_assert!(matches!(
            huge.validate(&g),
            Err(FissionError::ExtentTooSmall(_, _))
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass validation must reach the verdict of the multi-pass
    /// code it replaced — the same `Ok`, or the same error about the
    /// same node — on specs damaged in every way a stale F-Tree or a
    /// corrupted checkpoint could damage them. A spec usually breaks
    /// several constraints at once, so this pins the order of the
    /// checks, not just their presence.
    #[test]
    fn one_pass_validate_keeps_the_multi_pass_verdict(
        seed in 0u64..300,
        conv_net in any::<bool>(),
        pick in 0usize..1000,
        damage in prop::collection::vec(0usize..9, 1..4),
        at in prop::collection::vec(0usize..1000, 3..=3),
        dim in prop::collection::vec(-3i32..6, 3..=3),
    ) {
        let g = if conv_net { small_dnn(seed) } else { build_mlp(16 + seed % 48, 32, 4) };
        let specs = valid_specs(&g);
        prop_assume!(!specs.is_empty());
        let mut spec = specs[pick % specs.len()].clone();
        let nodes: Vec<NodeId> = g.node_ids().collect();
        for (kind, (at, d)) in damage.into_iter().zip(at.into_iter().zip(dim)) {
            let member = *spec.set.iter().nth(at % spec.set.len().max(1)).unwrap_or(&nodes[0]);
            let any_node = nodes[at % nodes.len()];
            match kind {
                // Another dimension (0 and negatives included) for a member.
                0 | 6 => {
                    spec.dims.insert(member, d);
                }
                // A member dropped: the region may fall apart or stop
                // being convex.
                1 | 7 => {
                    spec.set.remove(&member);
                    spec.dims.remove(&member);
                }
                // Any node of the graph pulled in, with any dimension:
                // weights, inputs, far-away or adjacent operators.
                2 | 8 => {
                    spec.set.insert(any_node);
                    spec.dims.insert(any_node, d);
                }
                // Coverage broken in one direction.
                3 => {
                    spec.dims.remove(&member);
                }
                // A node that does not exist.
                4 => {
                    let ghost = NodeId::from_index(g.capacity() + at % 9);
                    spec.set.insert(ghost);
                    spec.dims.insert(ghost, d);
                }
                // More parts than any extent.
                _ => spec.parts = 1 << (at % 40),
            }
        }
        prop_assert_eq!(spec.validate(&g), reference::validate(&spec, &g), "spec {spec:?}");
    }
}

/// The two verdicts the random damage above rarely reaches, and the one
/// ordering that a single pass could get wrong: an input sliced along
/// two axes is found while walking the region's edges, but an uncovered
/// edge at a *later* node still outranks it.
#[test]
fn ambiguous_input_yields_to_a_later_uncovered_edge() {
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([8, 8], "x");
    let a = b.relu(x);
    let t = b.transpose(x, &[1, 0]);
    let j = b.add_op(a, t);
    let k = b.relu(j);
    let m = b.merge(k, magis::graph::op::MergeKind::Concat, 0, 2);
    let g = b.finish();
    let spec_of = |dims: &[(NodeId, i32)]| FissionSpec {
        set: dims.iter().map(|&(v, _)| v).collect(),
        dims: dims.iter().copied().collect(),
        parts: 2,
    };
    // `a` reads rows of x, `t` reads columns: x cannot be sliced.
    let ambiguous = spec_of(&[(a, 1), (t, 1), (j, 1)]);
    assert_eq!(ambiguous.validate(&g), Err(FissionError::AmbiguousInputSlice(x)));
    // Same region plus `k` split along the other axis: edge j -> k is
    // uncovered, and that is what both report.
    let both = spec_of(&[(a, 1), (t, 1), (j, 1), (k, 2)]);
    assert_eq!(both.validate(&g), Err(FissionError::UncoveredEdge(j, k)));
    // Fission bookkeeping operators never join a region.
    let forbidden = spec_of(&[(k, 1), (m, 1)]);
    assert_eq!(forbidden.validate(&g), Err(FissionError::ForbiddenOp(m)));
    for spec in [ambiguous, both, forbidden] {
        assert_eq!(spec.validate(&g), reference::validate(&spec, &g));
    }
}

/// One random defect in a graph record: a line dropped, doubled or cut
/// short, or — in any field but the operator token, whose attributes
/// `OpKind::infer` still trusts — a byte replaced or a run of digits
/// (the cap, a slot, an extent, a repeat, an edge) replaced by a number
/// that is out of every range.
fn mutate_record(text: &str, rng: &mut magis_util::rng::SmallRng) -> String {
    use magis_util::rng::Rng;
    const HOSTILE: [&str; 6] =
        ["0", "4294967296", "9223372036854775808", "18446744073709551615", "99999999999999999999999", "-1"];
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    // One time in four the cap line, which sizes the slot table.
    let at = if rng.gen_range(0..4) == 0 { 1 } else { rng.gen_range(0..lines.len()) };
    match rng.gen_range(0..5) {
        0 => drop(lines.remove(at)),
        1 => lines.insert(at, lines[at].clone()),
        2 => {
            let cut = rng.gen_range(0..=lines[at].len());
            lines[at].truncate(cut);
        }
        kind => {
            let mut fields: Vec<String> = lines[at].split(' ').map(String::from).collect();
            let k = rng.gen_range(0..fields.len());
            let op_token = k == 2 && fields[0] == "node";
            let field = &mut fields[k];
            // The field's digit runs, as byte ranges (records are ASCII).
            let bytes = field.as_bytes();
            let starts = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()));
            let runs: Vec<(usize, usize)> = starts
                .map(|i| (i, (i..bytes.len()).find(|&j| !bytes[j].is_ascii_digit()).unwrap_or(bytes.len())))
                .collect();
            if op_token || field.is_empty() {
            } else if kind == 3 || runs.is_empty() {
                let i = rng.gen_range(0..field.len());
                let byte = rng.gen_range(0x21u32..0x7f) as u8 as char;
                field.replace_range(i..=i, &byte.to_string());
            } else {
                let (a, b) = runs[rng.gen_range(0..runs.len())];
                field.replace_range(a..b, HOSTILE[rng.gen_range(0..HOSTILE.len())]);
            }
            lines[at] = fields.join(" ");
        }
    }
    lines.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ROADMAP aim 3, the graph-record decoder: whatever happened to a
    /// bench model's record, `from_record` ends in a typed error or in a
    /// graph that validates and re-encodes to a fixed point — never in a
    /// panic, and a count the record declares sizes no allocation (a
    /// hostile `cap` would abort the test).
    #[test]
    fn mutated_records_decode_to_a_typed_error_or_a_valid_graph(seed in any::<u64>()) {
        use magis::graph::io::{from_record, to_record, RecordError};
        static VALID: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        let records = VALID.get_or_init(|| {
            [(Workload::BertBase, 0.1), (Workload::UNet, 0.15), (Workload::ResNet50, 0.1)]
                .map(|(w, scale)| to_record(&w.build(scale).graph))
                .to_vec()
        });
        let mut rng = <magis_util::rng::SmallRng as magis_util::rng::SeedableRng>::seed_from_u64(seed);
        let mut refused = 0;
        for text in records {
            for _ in 0..4 {
                let bad = mutate_record(text, &mut rng);
                match from_record(&bad) {
                    Ok(g) => {
                        prop_assert!(g.validate().is_ok(), "decoded graph does not validate");
                        let again = to_record(&g);
                        prop_assert_eq!(from_record(&again).map(|g| to_record(&g)), Ok(again));
                    }
                    Err(e) => {
                        refused += 1;
                        prop_assert!(matches!(e, RecordError::Syntax { .. } | RecordError::Graph(_)), "{e}");
                    }
                }
            }
        }
        prop_assert!(refused > 0, "no mutation was refused");
    }
}

#[test]
fn records_that_declare_more_than_they_hold_are_refused() {
    use magis::graph::io::{from_record, to_record, RecordError};
    let text = to_record(&small_dnn(7));
    let cap_line = text.lines().nth(1).expect("cap line");
    for cap in ["18446744073709551615", "1048577", "100000"] {
        let bad = text.replacen(cap_line, &format!("cap {cap}"), 1);
        assert!(matches!(from_record(&bad), Err(RecordError::Syntax { line: 2, .. })), "cap {cap} accepted");
    }
    // A shape whose byte count wraps a u64: 2^62 elements of any dtype.
    let node = text.lines().find(|l| l.contains('[') && !l.contains("[]")).expect("a shaped node");
    let (head, tail) = node.split_once('[').expect("shape");
    let (_, tail) = tail.split_once(']').expect("shape end");
    let bad = text.replacen(node, &format!("{head}[4611686018427387904]{tail}"), 1);
    assert!(matches!(from_record(&bad), Err(RecordError::Syntax { .. })), "overflowing shape accepted");
}
