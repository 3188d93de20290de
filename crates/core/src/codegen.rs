//! PyTorch code generation (§7.1: "We implement a code generation
//! backend to generate Python code calling PyTorch APIs based on the
//! graph and schedule. We use PyTorch's CUDA Stream API to implement
//! asynchronous Store and Load.").
//!
//! The generator emits a self-contained Python module with one
//! function executing the schedule:
//!
//! * operators map to `torch` calls in schedule order;
//! * basic memory saving: `del` statements free each tensor right
//!   after its last scheduled use (§7.1's PyTorch-baseline semantics);
//! * `Store`/`Load` run on a dedicated transfer stream with events so
//!   compute only blocks when it actually consumes a loaded tensor;
//! * fission must be materialized first ([`crate::fission::apply_full`])
//!   — representative-part overlays are a search-time abstraction, not
//!   an executable program. [`export_pytorch`] does that for a search
//!   state and is the one export path (`magis optimize --emit py`, the
//!   `export_pytorch` example).

use crate::fission::apply_full;
use crate::state::MState;
use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::{BinaryKind, OpKind, PoolKind, ReduceKind, UnaryGradKind, UnaryKind};
use magis_sim::CostModel;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Codegen failure: the graph contains a construct with no executable
/// PyTorch form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

fn py_name(_g: &Graph, v: NodeId, names: &HashMap<NodeId, String>) -> String {
    names.get(&v).cloned().unwrap_or_else(|| format!("t{}", v.index()))
}

fn unary_expr(k: UnaryKind, x: &str) -> String {
    match k {
        UnaryKind::Relu => format!("torch.relu({x})"),
        UnaryKind::Gelu => format!("torch.nn.functional.gelu({x})"),
        UnaryKind::Tanh => format!("torch.tanh({x})"),
        UnaryKind::Sigmoid => format!("torch.sigmoid({x})"),
        UnaryKind::Exp => format!("torch.exp({x})"),
        UnaryKind::Sqrt => format!("torch.sqrt({x})"),
        UnaryKind::Neg => format!("-{x}"),
        UnaryKind::Dropout => format!("torch.nn.functional.dropout({x}, p=0.1)"),
    }
}

fn unary_grad_expr(k: UnaryGradKind, x: &str, dy: &str) -> String {
    match k {
        UnaryGradKind::Relu => format!("{dy} * ({x} > 0)"),
        UnaryGradKind::Gelu => {
            format!("{dy} * torch.ops.aten.gelu_backward({dy}, {x}) / {dy}.clamp_min(1e-30)")
        }
        UnaryGradKind::Tanh => format!("{dy} * (1 - torch.tanh({x})**2)"),
        UnaryGradKind::Sigmoid => {
            format!("{dy} * torch.sigmoid({x}) * (1 - torch.sigmoid({x}))")
        }
        UnaryGradKind::Dropout => format!("{dy} * 1.1111"),
    }
}

/// The PyTorch program of search state `s`: its enabled fission
/// regions materialized in [`crate::ftree::FTree::enabled_order`] with
/// [`apply_full`], the result scheduled afresh
/// ([`magis_sched::full_schedule`]) with swaps placed under `cm`
/// ([`magis_sched::place_swaps`]), then [`generate_pytorch`]. The
/// program runs a fresh schedule of the optimized graph, not the order
/// the search found.
///
/// # Errors
///
/// Returns [`CodegenError`] if a region fails to materialize or the
/// graph has no PyTorch form.
pub fn export_pytorch(s: &MState, cm: &CostModel) -> Result<String, CodegenError> {
    let mut g = s.base.clone();
    for i in s.ftree.enabled_order() {
        g = apply_full(&g, &s.ftree.node(i).spec)
            .map_err(|e| CodegenError(format!("materializing fission: {e}")))?;
    }
    let order = magis_sched::full_schedule(&g, &Default::default());
    let order = magis_sched::place_swaps(&g, &order, cm);
    generate_pytorch(&g, &order)
}

/// Generates a Python module executing `g` in `order`.
///
/// # Errors
///
/// Returns [`CodegenError`] if the graph contains fission-overlay
/// bookkeeping nodes (`PartSlice`/`Merge`) — materialize with
/// [`crate::fission::apply_full`] first.
pub fn generate_pytorch(g: &Graph, order: &[NodeId]) -> Result<String, CodegenError> {
    // Name inputs after their graph labels where available.
    let mut names: HashMap<NodeId, String> = HashMap::new();
    for v in g.node_ids() {
        let n = g.node(v);
        if n.op.is_input() && !n.name.is_empty() {
            let sane: String = n
                .name
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            names.insert(v, format!("p_{sane}"));
        }
    }
    // Remaining-use counts for `del` placement.
    let mut uses: HashMap<NodeId, usize> = HashMap::new();
    for &v in order {
        for u in g.pre_all(v) {
            *uses.entry(u).or_insert(0) += 1;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# Generated by magis-core::codegen — do not edit.");
    let _ = writeln!(out, "import torch\n");
    let _ = writeln!(out, "def run(params, device='cuda'):");
    let _ = writeln!(out, "    xfer = torch.cuda.Stream(device)");
    let _ = writeln!(out, "    events = {{}}");

    let has_swaps = order.iter().any(|&v| g.node(v).op.is_swap());
    if !has_swaps {
        let _ = writeln!(out, "    _ = xfer  # no swaps scheduled");
    }

    for &v in order {
        let n = g.node(v);
        let name = py_name(g, v, &names);
        let ins: Vec<String> = n.inputs().iter().map(|&u| py_name(g, u, &names)).collect();
        let line = match &n.op {
            OpKind::Input(_) => format!("{name} = params['{name}'].to(device)"),
            OpKind::MatMul { transpose_a, transpose_b } => {
                let a = if *transpose_a { format!("{}.t()", ins[0]) } else { ins[0].clone() };
                let b = if *transpose_b { format!("{}.t()", ins[1]) } else { ins[1].clone() };
                format!("{name} = torch.matmul({a}, {b})")
            }
            OpKind::BatchMatMul { transpose_a, transpose_b } => {
                let a = if *transpose_a {
                    format!("{}.transpose(-1, -2)", ins[0])
                } else {
                    ins[0].clone()
                };
                let b = if *transpose_b {
                    format!("{}.transpose(-1, -2)", ins[1])
                } else {
                    ins[1].clone()
                };
                format!("{name} = torch.matmul({a}, {b})")
            }
            OpKind::Conv2d(c) => format!(
                "{name} = torch.nn.functional.conv2d({}, {}, stride=({}, {}), padding=({}, {}))",
                ins[0], ins[1], c.stride.0, c.stride.1, c.padding.0, c.padding.1
            ),
            OpKind::Conv2dGradInput(c) => format!(
                "{name} = torch.nn.grad.conv2d_input({:?}, {}, {}, stride=({}, {}), padding=({}, {}))",
                n.meta.shape.dims(),
                ins[1],
                ins[0],
                c.stride.0,
                c.stride.1,
                c.padding.0,
                c.padding.1
            ),
            OpKind::Conv2dGradWeight(c) => format!(
                "{name} = torch.nn.grad.conv2d_weight({}, {:?}, {}, stride=({}, {}), padding=({}, {}))",
                ins[0],
                n.meta.shape.dims(),
                ins[1],
                c.stride.0,
                c.stride.1,
                c.padding.0,
                c.padding.1
            ),
            OpKind::Pool2d(p) => {
                let f = match p.kind {
                    PoolKind::Max => "max_pool2d",
                    PoolKind::Avg => "avg_pool2d",
                };
                format!(
                    "{name} = torch.nn.functional.{f}({}, kernel_size=({}, {}), stride=({}, {}))",
                    ins[0], p.kernel.0, p.kernel.1, p.stride.0, p.stride.1
                )
            }
            OpKind::Pool2dGrad(p) => format!(
                "{name} = torch.autograd.grad(torch.nn.functional.max_pool2d({x}, ({kh}, {kw})), {x}, {dy}, retain_graph=False)[0]",
                x = ins[0],
                dy = ins[1],
                kh = p.kernel.0,
                kw = p.kernel.1
            ),
            OpKind::Upsample2d { scale } => format!(
                "{name} = torch.nn.functional.interpolate({}, scale_factor={scale}, mode='nearest')",
                ins[0]
            ),
            OpKind::Upsample2dGrad { scale } => format!(
                "{name} = torch.nn.functional.avg_pool2d({}, kernel_size={scale}) * {scale}**2",
                ins[0]
            ),
            OpKind::Unary(k) => format!("{name} = {}", unary_expr(*k, &ins[0])),
            OpKind::UnaryGrad(k) => {
                format!("{name} = {}", unary_grad_expr(*k, &ins[0], &ins[1]))
            }
            OpKind::Binary(k) => {
                let sym = match k {
                    BinaryKind::Add => "+",
                    BinaryKind::Sub => "-",
                    BinaryKind::Mul => "*",
                    BinaryKind::Div => "/",
                    BinaryKind::Max => {
                        let l = format!("{name} = torch.maximum({}, {})", ins[0], ins[1]);
                        let _ = writeln!(out, "    {l}");
                        emit_dels(&mut out, g, v, &mut uses, &names);
                        continue;
                    }
                };
                format!("{name} = {} {sym} {}", ins[0], ins[1])
            }
            OpKind::Reduce { kind, axes, keep_dims } => {
                let f = match kind {
                    ReduceKind::Sum => "sum",
                    ReduceKind::Mean => "mean",
                    ReduceKind::Max => "amax",
                };
                format!("{name} = {}.{f}(dim={axes:?}, keepdim={})", ins[0], py_bool(*keep_dims))
            }
            OpKind::Broadcast { shape } => {
                format!("{name} = {}.expand({:?})", ins[0], shape.dims())
            }
            OpKind::Softmax { axis } => {
                format!("{name} = torch.softmax({}, dim={axis})", ins[0])
            }
            OpKind::SoftmaxGrad { axis } => format!(
                "{name} = ({y} * ({dy} - ({dy} * {y}).sum(dim={axis}, keepdim=True)))",
                y = ins[0],
                dy = ins[1]
            ),
            OpKind::LayerNorm { axis: _ } => format!(
                "{name} = torch.nn.functional.layer_norm({x}, {x}.shape[-1:])",
                x = ins[0]
            ),
            OpKind::LayerNormGrad { .. } => format!(
                "{name} = torch.autograd.grad(torch.nn.functional.layer_norm({x}, {x}.shape[-1:]), {x}, {dy})[0]",
                x = ins[0],
                dy = ins[1]
            ),
            OpKind::Embedding => format!(
                "{name} = torch.nn.functional.embedding({}, {})",
                ins[1], ins[0]
            ),
            OpKind::EmbeddingGrad { vocab } => format!(
                "{name} = torch.zeros({vocab}, {dy}.shape[-1], device=device, dtype={dy}.dtype).index_add_(0, {ids}.reshape(-1), {dy}.reshape(-1, {dy}.shape[-1]))",
                ids = ins[0],
                dy = ins[1]
            ),
            OpKind::CrossEntropy => format!(
                "{name} = torch.nn.functional.cross_entropy({}, {})",
                ins[0], ins[1]
            ),
            OpKind::CrossEntropyGrad => format!(
                "{name} = (torch.softmax({logits}, dim=1) - torch.nn.functional.one_hot({labels}, {logits}.shape[1]).to({logits}.dtype)) / {logits}.shape[0]",
                logits = ins[0],
                labels = ins[1]
            ),
            OpKind::Transpose { perm } => {
                format!("{name} = {}.permute({perm:?}).contiguous()", ins[0])
            }
            OpKind::Reshape { shape } => {
                format!("{name} = {}.reshape({:?})", ins[0], shape.dims())
            }
            OpKind::Slice { axis, start, len } => format!(
                "{name} = {}.narrow({axis}, {start}, {len})",
                ins[0]
            ),
            OpKind::Pad { axis, before, after } => format!(
                "{name} = torch.nn.functional.pad({}, _pad_spec({}.dim(), {axis}, {before}, {after}))",
                ins[0], ins[0]
            ),
            OpKind::Concat { axis } => {
                format!("{name} = torch.cat([{}], dim={axis})", ins.join(", "))
            }
            OpKind::SgdUpdate => {
                format!("{name} = {w}.sub_({dw}, alpha=1e-3)", w = ins[0], dw = ins[1])
            }
            OpKind::Store => {
                let _ = writeln!(out, "    with torch.cuda.stream(xfer):");
                let _ = writeln!(
                    out,
                    "        {name} = {}.to('cpu', non_blocking=True)",
                    ins[0]
                );
                let _ = writeln!(out, "        events['{name}'] = xfer.record_event()");
                emit_dels(&mut out, g, v, &mut uses, &names);
                continue;
            }
            OpKind::Load => {
                let _ = writeln!(out, "    with torch.cuda.stream(xfer):");
                let _ = writeln!(out, "        xfer.wait_event(events['{}'])", ins[0]);
                let _ = writeln!(
                    out,
                    "        {name} = {}.to(device, non_blocking=True)",
                    ins[0]
                );
                let _ = writeln!(out, "        events['{name}'] = xfer.record_event()");
                emit_dels(&mut out, g, v, &mut uses, &names);
                continue;
            }
            OpKind::PartSlice { .. } | OpKind::Merge { .. } => {
                return Err(CodegenError(
                    "fission overlay present; materialize with apply_full first".into(),
                ))
            }
        };
        // Compute must wait for any loaded operand.
        for (&u, uname) in n.inputs().iter().zip(&ins) {
            if matches!(g.node(u).op, OpKind::Load) {
                let _ = writeln!(
                    out,
                    "    torch.cuda.current_stream().wait_event(events['{uname}'])"
                );
            }
        }
        let _ = writeln!(out, "    {line}");
        emit_dels(&mut out, g, v, &mut uses, &names);
    }

    // Return terminal tensors.
    let outs: Vec<String> = g
        .graph_outputs()
        .into_iter()
        .map(|v| py_name(g, v, &names))
        .collect();
    let _ = writeln!(out, "    return {}", outs.join(", "));
    let _ = writeln!(
        out,
        "\ndef _pad_spec(rank, axis, before, after):\n    spec = [0] * (2 * rank)\n    spec[2 * (rank - 1 - axis)] = before\n    spec[2 * (rank - 1 - axis) + 1] = after\n    return spec"
    );
    Ok(out)
}

fn py_bool(b: bool) -> &'static str {
    if b { "True" } else { "False" }
}

/// Emits `del` for every operand of `v` whose last use this was
/// (basic memory saving, §7.1).
fn emit_dels(
    out: &mut String,
    g: &Graph,
    v: NodeId,
    uses: &mut HashMap<NodeId, usize>,
    names: &HashMap<NodeId, String>,
) {
    for u in g.pre_all(v) {
        // Unwrap audit: `uses` was seeded with a count for every live
        // node before emission, and `pre_all` only yields live nodes.
        let c = uses.get_mut(&u).expect("use-counted");
        *c -= 1;
        // Aliases borrow their root's storage: deleting the Python name
        // is still correct (refcounting frees the base when all views
        // and the base name are gone).
        if *c == 0 && !g.node(u).op.is_weight_input() {
            let _ = writeln!(out, "    del {}", py_name(g, u, names));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn mlp() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([8, 16], "x");
        let w = b.weight([16, 4], "w");
        let logits = b.matmul(x, w);
        let y = b.label([8], "labels");
        let _loss = b.cross_entropy(logits, y);
        let g = b.finish();
        let order = magis_graph::algo::topo_order(&g);
        (g, order)
    }

    #[test]
    fn emits_runnable_looking_python() {
        let (g, order) = mlp();
        let code = generate_pytorch(&g, &order).unwrap();
        assert!(code.contains("import torch"));
        assert!(code.contains("def run(params"));
        assert!(code.contains("torch.matmul"));
        assert!(code.contains("cross_entropy"));
        assert!(code.contains("return "));
        // Inputs named after their labels.
        assert!(code.contains("p_x = params['p_x']"));
    }

    #[test]
    fn dels_placed_after_last_use() {
        let (g, order) = mlp();
        let code = generate_pytorch(&g, &order).unwrap();
        // x is consumed by the matmul: a del follows it; weights kept.
        let matmul_at = code.find("torch.matmul").unwrap();
        let del_at = code.find("del p_x").expect("x freed");
        assert!(del_at > matmul_at);
        assert!(!code.contains("del p_w"), "weights persist");
    }

    #[test]
    fn swaps_use_transfer_stream_and_events() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let a = b.relu(x);
        let g0 = b.finish();
        let mut txn = magis_graph::GraphTxn::begin(&g0);
        let st = txn.add(OpKind::Store, &[a]).unwrap();
        let ld = txn.add(OpKind::Load, &[st]).unwrap();
        let _f = txn.add(OpKind::Unary(UnaryKind::Gelu), &[ld]).unwrap();
        let g = txn.commit();
        let order = magis_graph::algo::topo_order(&g);
        let code = generate_pytorch(&g, &order).unwrap();
        assert!(code.contains("torch.cuda.stream(xfer)"));
        assert!(code.contains("to('cpu', non_blocking=True)"));
        assert!(code.contains("wait_event"), "compute waits on the load");
    }

    /// A state with one enabled fission region exports its
    /// materialized graph: every part computed, no overlay node left.
    #[test]
    fn export_materializes_the_enabled_region() {
        use crate::ftree::FTreeMutation;
        use crate::rules::{apply, Transform};
        use crate::state::EvalContext;
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256, 64], "x");
        for i in 0..8 {
            let w = b.weight([64, 64], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        let ctx = EvalContext::default();
        let mut seed = MState::initial(b.finish(), &ctx);
        seed.analyze(4);
        let enable = seed
            .ftree
            .legal_mutations(&seed.base)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .unwrap();
        let applied = apply(&seed, &Transform::FTree(enable)).unwrap();
        let s = MState::from_applied(applied, &seed, &ctx).unwrap();
        assert_eq!(s.ftree.enabled_order().len(), 1);
        let overlay = generate_pytorch(&s.eval.graph, &s.eval.order);
        assert!(overlay.is_err(), "the search's overlay graph has no program");
        let code = export_pytorch(&s, &CostModel::default()).unwrap();
        let base = export_pytorch(&seed, &CostModel::default()).unwrap();
        assert!(code.contains("def run(params"));
        assert!(!code.contains("PartSlice") && !code.contains("Merge"));
        assert!(
            code.matches("torch.matmul").count() > base.matches("torch.matmul").count(),
            "the region's parts each compute"
        );
    }

    #[test]
    fn overlay_graphs_rejected() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([8, 8], "x");
        let _p = b
            .graph()
            .clone();
        let mut txn = magis_graph::GraphTxn::begin(&b.finish());
        let ps = txn
            .add(OpKind::PartSlice { axis: 0, parts: 2, halo: 0 }, &[x])
            .unwrap();
        let _r = txn.add(OpKind::Unary(UnaryKind::Relu), &[ps]).unwrap();
        let g = txn.commit();
        let order = magis_graph::algo::topo_order(&g);
        assert!(generate_pytorch(&g, &order).is_err());
    }

    #[test]
    fn respects_schedule_order() {
        // Codegen must follow `order`, not id order.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([4, 4], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let _j = b.add_op(a, c);
        let g = b.finish();
        let order = vec![x, c, a, _j];
        let code = generate_pytorch(&g, &order).unwrap();
        let gelu_at = code.find("gelu").unwrap();
        let relu_at = code.find("torch.relu").unwrap();
        assert!(gelu_at < relu_at, "schedule order preserved");
    }
}
