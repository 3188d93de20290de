//! Graph export: Graphviz DOT (for docs/debugging), a compact
//! deterministic text listing (for diffing optimizer decisions in
//! tests and bug reports), and a full-fidelity record format
//! ([`to_record`] / [`from_record`]) used by search checkpointing —
//! unlike [`to_text`], the record round-trips arena slots, tombstones,
//! operator attributes, names, keepalive edges, cost repeats, and
//! allocation anchors exactly.

use crate::graph::{Graph, GraphError, Node, NodeId, NodeRecord};
use crate::view::GraphView;
use crate::op::{
    BinaryKind, Conv2dAttrs, InputKind, MergeKind, OpKind, Pool2dAttrs, PoolKind, ReduceKind,
    UnaryGradKind, UnaryKind,
};
use crate::tensor::{DType, Shape, TensorMeta};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Options for [`to_dot`].
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Include tensor shapes in node labels.
    pub shapes: bool,
    /// Include byte sizes in node labels.
    pub sizes: bool,
    /// Highlight these nodes (e.g. a fission region or hot-spots).
    pub highlight: Vec<NodeId>,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions { shapes: true, sizes: false, highlight: Vec::new() }
    }
}

/// Renders the graph in Graphviz DOT format.
///
/// Data edges are solid; keepalive (lifetime-only) edges are dashed.
/// Weight/label inputs are boxes, activations ellipses; highlighted
/// nodes are filled.
pub fn to_dot(g: &Graph, opts: &DotOptions) -> String {
    let mut out = String::from("digraph magis {\n  rankdir=TB;\n  node [fontsize=10];\n");
    for v in g.node_ids() {
        let n = g.node(v);
        let mut label = if n.name.is_empty() {
            format!("{v}\\n{}", n.op.name())
        } else {
            format!("{}\\n{}", n.name, n.op.name())
        };
        if opts.shapes {
            let _ = write!(label, "\\n{}", n.meta.shape);
        }
        if opts.sizes {
            let _ = write!(label, "\\n{}B", n.size_bytes());
        }
        if n.cost_repeat > 1 {
            let _ = write!(label, "\\nx{}", n.cost_repeat);
        }
        let shape = if n.op.is_input() { "box" } else { "ellipse" };
        let fill = if opts.highlight.contains(&v) {
            ", style=filled, fillcolor=lightgoldenrod"
        } else if n.op.is_swap() {
            ", style=filled, fillcolor=lightblue"
        } else {
            ""
        };
        let _ = writeln!(out, "  {v} [label=\"{label}\", shape={shape}{fill}];");
    }
    for v in g.node_ids() {
        let n = g.node(v);
        for &p in n.inputs() {
            let _ = writeln!(out, "  {p} -> {v};");
        }
        for &p in n.keepalive() {
            let _ = writeln!(out, "  {p} -> {v} [style=dashed, color=gray];");
        }
    }
    out.push_str("}\n");
    out
}

/// A deterministic one-line-per-node listing, topologically ordered —
/// stable under node-id renaming, so two isomorphic graphs produce the
/// same text (useful in tests and for diffing optimizer output).
pub fn to_text(g: &Graph) -> String {
    let order = crate::algo::topo_order(g);
    let mut rank = vec![usize::MAX; g.capacity()];
    for (i, &v) in order.iter().enumerate() {
        rank[v.index()] = i;
    }
    let mut out = String::new();
    for (i, &v) in order.iter().enumerate() {
        let n = g.node(v);
        let ins: Vec<String> =
            n.inputs().iter().map(|p| format!("%{}", rank[p.index()])).collect();
        let _ = write!(out, "%{i} = {}({})", n.op.name(), ins.join(", "));
        let _ = write!(out, " : {}", n.meta);
        if n.cost_repeat > 1 {
            let _ = write!(out, " x{}", n.cost_repeat);
        }
        if !n.keepalive().is_empty() {
            let ka: Vec<String> =
                n.keepalive().iter().map(|p| format!("%{}", rank[p.index()])).collect();
            let _ = write!(out, " keepalive[{}]", ka.join(", "));
        }
        out.push('\n');
    }
    out
}

/// Why a graph record failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// A malformed line (1-based line number within the record).
    Syntax {
        /// Line number within the record.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The record parsed but [`Graph::restore`] rejected the result.
    Graph(GraphError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Syntax { line, msg } => write!(f, "graph record line {line}: {msg}"),
            RecordError::Graph(e) => write!(f, "restored graph is invalid: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<GraphError> for RecordError {
    fn from(e: GraphError) -> Self {
        RecordError::Graph(e)
    }
}

/// Ceiling on a record's slot count, two orders of magnitude above any
/// graph this system builds (the largest workload, unscaled, has ~3k nodes).
const MAX_RECORD_SLOTS: usize = 1 << 20;

/// Slots a record may declare per line of its text: freed slots are
/// reused smallest first, so [`to_record`] writes few tombstones.
const MAX_SLOTS_PER_LINE: usize = 16;

/// Header line of the record format; bump the version when the format
/// changes incompatibly (readers reject unknown versions).
const RECORD_HEADER: &str = "magis-graph v1";

fn join_ids(ids: &[NodeId]) -> String {
    if ids.is_empty() {
        return "-".to_string();
    }
    let parts: Vec<String> = ids.iter().map(|v| v.index().to_string()).collect();
    parts.join(",")
}

fn shape_token(s: &Shape) -> String {
    let dims: Vec<String> = s.dims().iter().map(u64::to_string).collect();
    format!("[{}]", dims.join("x"))
}

fn join_usizes(xs: &[usize]) -> String {
    let parts: Vec<String> = xs.iter().map(usize::to_string).collect();
    parts.join("+")
}

/// Encodes an operator as a single space-free token.
fn op_token(op: &OpKind) -> String {
    fn tt(a: bool, b: bool) -> String {
        format!("{}{}", if a { 't' } else { 'n' }, if b { 't' } else { 'n' })
    }
    fn conv(a: &Conv2dAttrs) -> String {
        format!("{},{},{},{}", a.stride.0, a.stride.1, a.padding.0, a.padding.1)
    }
    fn pool(a: &Pool2dAttrs) -> String {
        let k = match a.kind {
            PoolKind::Max => "max",
            PoolKind::Avg => "avg",
        };
        format!("{k},{},{},{},{}", a.kernel.0, a.kernel.1, a.stride.0, a.stride.1)
    }
    match op {
        OpKind::Input(InputKind::Activation) => "input:act".into(),
        OpKind::Input(InputKind::Weight) => "input:weight".into(),
        OpKind::Input(InputKind::Label) => "input:label".into(),
        OpKind::MatMul { transpose_a, transpose_b } => {
            format!("matmul:{}", tt(*transpose_a, *transpose_b))
        }
        OpKind::BatchMatMul { transpose_a, transpose_b } => {
            format!("bmm:{}", tt(*transpose_a, *transpose_b))
        }
        OpKind::Conv2d(a) => format!("conv:{}", conv(a)),
        OpKind::Conv2dGradInput(a) => format!("convgi:{}", conv(a)),
        OpKind::Conv2dGradWeight(a) => format!("convgw:{}", conv(a)),
        OpKind::Pool2d(a) => format!("pool:{}", pool(a)),
        OpKind::Pool2dGrad(a) => format!("poolg:{}", pool(a)),
        OpKind::Upsample2d { scale } => format!("ups:{scale}"),
        OpKind::Upsample2dGrad { scale } => format!("upsg:{scale}"),
        OpKind::Unary(k) => {
            let s = match k {
                UnaryKind::Relu => "relu",
                UnaryKind::Gelu => "gelu",
                UnaryKind::Tanh => "tanh",
                UnaryKind::Sigmoid => "sigmoid",
                UnaryKind::Exp => "exp",
                UnaryKind::Sqrt => "sqrt",
                UnaryKind::Neg => "neg",
                UnaryKind::Dropout => "dropout",
            };
            format!("un:{s}")
        }
        OpKind::UnaryGrad(k) => {
            let s = match k {
                UnaryGradKind::Relu => "relu",
                UnaryGradKind::Gelu => "gelu",
                UnaryGradKind::Tanh => "tanh",
                UnaryGradKind::Sigmoid => "sigmoid",
                UnaryGradKind::Dropout => "dropout",
            };
            format!("ung:{s}")
        }
        OpKind::Binary(k) => {
            let s = match k {
                BinaryKind::Add => "add",
                BinaryKind::Sub => "sub",
                BinaryKind::Mul => "mul",
                BinaryKind::Div => "div",
                BinaryKind::Max => "max",
            };
            format!("bin:{s}")
        }
        OpKind::Reduce { kind, axes, keep_dims } => {
            let k = match kind {
                ReduceKind::Sum => "sum",
                ReduceKind::Mean => "mean",
                ReduceKind::Max => "max",
            };
            format!("red:{k},{},{}", u8::from(*keep_dims), join_usizes(axes))
        }
        OpKind::Broadcast { shape } => format!("bc:{}", shape_token(shape)),
        OpKind::Softmax { axis } => format!("sm:{axis}"),
        OpKind::SoftmaxGrad { axis } => format!("smg:{axis}"),
        OpKind::LayerNorm { axis } => format!("ln:{axis}"),
        OpKind::LayerNormGrad { axis } => format!("lng:{axis}"),
        OpKind::Embedding => "emb".into(),
        OpKind::EmbeddingGrad { vocab } => format!("embg:{vocab}"),
        OpKind::CrossEntropy => "ce".into(),
        OpKind::CrossEntropyGrad => "ceg".into(),
        OpKind::Transpose { perm } => format!("tr:{}", join_usizes(perm)),
        OpKind::Reshape { shape } => format!("rs:{}", shape_token(shape)),
        OpKind::Slice { axis, start, len } => format!("sl:{axis},{start},{len}"),
        OpKind::Pad { axis, before, after } => format!("pad:{axis},{before},{after}"),
        OpKind::Concat { axis } => format!("cat:{axis}"),
        OpKind::PartSlice { axis, parts, halo } => format!("ps:{axis},{parts},{halo}"),
        OpKind::Merge { kind, axis, parts } => {
            let k = match kind {
                MergeKind::Concat => "concat",
                MergeKind::Sum => "sum",
            };
            format!("mg:{k},{axis},{parts}")
        }
        OpKind::Store => "store".into(),
        OpKind::Load => "load".into(),
        OpKind::SgdUpdate => "sgd".into(),
    }
}

/// Serializes a graph in the full-fidelity record format.
///
/// One line per live node, ascending arena slot; tombstones are the
/// missing slots (the `cap` header pins the arena size). Deterministic:
/// equal graphs produce byte-identical records.
pub fn to_record(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{RECORD_HEADER}");
    let _ = writeln!(out, "cap {}", g.capacity());
    for v in g.node_ids() {
        write_node_line(&mut out, v.index(), g.node(v));
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// The record line of the node in arena slot `slot` (no newline).
fn write_node_line(out: &mut String, slot: usize, n: &Node) {
    let aw = n.alloc_with.map_or("-".to_string(), |a| a.index().to_string());
    let _ = write!(
        out,
        "node {} {} {}{} r={} aw={} in={} ka={} name={}",
        slot,
        op_token(&n.op),
        n.meta.dtype,
        shape_token(&n.meta.shape),
        n.cost_repeat,
        aw,
        join_ids(n.inputs()),
        join_ids(n.keepalive()),
        n.name,
    );
}

/// [`to_record`] line by line, for a writer that stores many graphs
/// sharing most of their nodes (a search checkpoint holds a frontier of
/// states one rewrite apart). Every graph recorded through one
/// `RecordLines` comes back as the numbers of its record's lines in
/// one table, which holds each distinct line once however many graphs
/// carry it.
///
/// Lines are numbered by *text*. The node's address is a render cache
/// in front of that — a graph and its copy-on-write clones hold an
/// untouched node as the same `Arc<Node>` in the same slot, so its line
/// is rendered once — and never decides what a line is: graphs that
/// share no storage (restored from a checkpoint, say) get the same
/// numbers, each node rendered once.
#[derive(Debug, Default)]
pub struct RecordLines {
    lines: Vec<String>,
    by_text: HashMap<String, u32>,
    /// `(node address, slot)` → the node's line. The entry keeps the
    /// node alive, so its address cannot come to mean another node.
    rendered: HashMap<(usize, usize), (Arc<Node>, u32)>,
}

impl RecordLines {
    /// The lines of `to_record(g)`, in order, as indices into
    /// [`Self::into_lines`].
    pub fn record(&mut self, g: &Graph) -> Vec<u32> {
        let mut record = Vec::with_capacity(g.len() + 3);
        record.push(self.number(RECORD_HEADER));
        record.push(self.number(&format!("cap {}", g.capacity())));
        let mut text = String::new();
        for slot in 0..g.capacity() {
            let Some(node) = g.slot_shared(slot) else { continue };
            let key = (Arc::as_ptr(node) as usize, slot);
            let line = match self.rendered.get(&key) {
                Some(&(_, line)) => line,
                None => {
                    text.clear();
                    write_node_line(&mut text, slot, node);
                    let line = self.number(&text);
                    self.rendered.insert(key, (node.clone(), line));
                    line
                }
            };
            record.push(line);
        }
        record.push(self.number("end"));
        record
    }

    /// The table: every distinct line recorded (no newlines), in the
    /// order they first came up.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }

    fn number(&mut self, text: &str) -> u32 {
        if let Some(&line) = self.by_text.get(text) {
            return line;
        }
        let line = self.lines.len() as u32;
        self.lines.push(text.to_string());
        self.by_text.insert(text.to_string(), line);
        line
    }
}

fn syntax(line: usize, msg: impl Into<String>) -> RecordError {
    RecordError::Syntax { line, msg: msg.into() }
}

fn parse_ids(s: &str, line: usize) -> Result<Vec<NodeId>, RecordError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.parse::<usize>()
                .map(NodeId::from_index)
                .map_err(|_| syntax(line, format!("bad node id '{t}'")))
        })
        .collect()
}

fn parse_usizes(s: &str, line: usize) -> Result<Vec<usize>, RecordError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('+')
        .map(|t| t.parse::<usize>().map_err(|_| syntax(line, format!("bad index '{t}'"))))
        .collect()
}

fn parse_shape(s: &str, line: usize) -> Result<Shape, RecordError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| syntax(line, format!("bad shape '{s}'")))?;
    if inner.is_empty() {
        return Ok(Shape::scalar());
    }
    let dims: Vec<u64> = inner
        .split('x')
        .map(|t| match t.parse::<u64>() {
            Ok(d) if d > 0 => Ok(d),
            _ => Err(syntax(line, format!("bad shape extent '{t}'"))),
        })
        .collect::<Result<_, _>>()?;
    // A byte count of the shape must fit in 64 bits under the widest
    // dtype, or `TensorMeta::size_bytes` wraps at simulation.
    if dims.iter().try_fold(DType::I64.size_bytes(), |bytes, &d| bytes.checked_mul(d)).is_none() {
        return Err(syntax(line, format!("shape '{s}' overflows a 64-bit byte count")));
    }
    Ok(Shape::new(dims))
}

fn parse_dtype(s: &str, line: usize) -> Result<DType, RecordError> {
    Ok(match s {
        "f16" => DType::F16,
        "bf16" => DType::BF16,
        "tf32" => DType::TF32,
        "f32" => DType::F32,
        "i32" => DType::I32,
        "i64" => DType::I64,
        "bool" => DType::Bool,
        _ => return Err(syntax(line, format!("unknown dtype '{s}'"))),
    })
}

fn parse_u64(s: &str, line: usize) -> Result<u64, RecordError> {
    s.parse::<u64>().map_err(|_| syntax(line, format!("bad integer '{s}'")))
}

fn parse_usize(s: &str, line: usize) -> Result<usize, RecordError> {
    s.parse::<usize>().map_err(|_| syntax(line, format!("bad integer '{s}'")))
}

/// Splits `token` at its first `:` into (mnemonic, args).
fn split_op(token: &str) -> (&str, &str) {
    match token.split_once(':') {
        Some((m, a)) => (m, a),
        None => (token, ""),
    }
}

fn parse_conv_attrs(args: &str, line: usize) -> Result<Conv2dAttrs, RecordError> {
    let p: Vec<&str> = args.split(',').collect();
    if p.len() != 4 {
        return Err(syntax(line, format!("conv attrs '{args}'")));
    }
    Ok(Conv2dAttrs {
        stride: (parse_u64(p[0], line)?, parse_u64(p[1], line)?),
        padding: (parse_u64(p[2], line)?, parse_u64(p[3], line)?),
    })
}

fn parse_pool_attrs(args: &str, line: usize) -> Result<Pool2dAttrs, RecordError> {
    let p: Vec<&str> = args.split(',').collect();
    if p.len() != 5 {
        return Err(syntax(line, format!("pool attrs '{args}'")));
    }
    let kind = match p[0] {
        "max" => PoolKind::Max,
        "avg" => PoolKind::Avg,
        k => return Err(syntax(line, format!("pool kind '{k}'"))),
    };
    Ok(Pool2dAttrs {
        kind,
        kernel: (parse_u64(p[1], line)?, parse_u64(p[2], line)?),
        stride: (parse_u64(p[3], line)?, parse_u64(p[4], line)?),
    })
}

fn parse_transposes(args: &str, line: usize) -> Result<(bool, bool), RecordError> {
    let b = args.as_bytes();
    if b.len() != 2 || !b.iter().all(|c| matches!(c, b'n' | b't')) {
        return Err(syntax(line, format!("transpose flags '{args}'")));
    }
    Ok((b[0] == b't', b[1] == b't'))
}

/// Decodes an [`op_token`]-encoded operator.
fn parse_op_token(token: &str, line: usize) -> Result<OpKind, RecordError> {
    let (m, args) = split_op(token);
    Ok(match m {
        "input" => OpKind::Input(match args {
            "act" => InputKind::Activation,
            "weight" => InputKind::Weight,
            "label" => InputKind::Label,
            _ => return Err(syntax(line, format!("input kind '{args}'"))),
        }),
        "matmul" => {
            let (a, b) = parse_transposes(args, line)?;
            OpKind::MatMul { transpose_a: a, transpose_b: b }
        }
        "bmm" => {
            let (a, b) = parse_transposes(args, line)?;
            OpKind::BatchMatMul { transpose_a: a, transpose_b: b }
        }
        "conv" => OpKind::Conv2d(parse_conv_attrs(args, line)?),
        "convgi" => OpKind::Conv2dGradInput(parse_conv_attrs(args, line)?),
        "convgw" => OpKind::Conv2dGradWeight(parse_conv_attrs(args, line)?),
        "pool" => OpKind::Pool2d(parse_pool_attrs(args, line)?),
        "poolg" => OpKind::Pool2dGrad(parse_pool_attrs(args, line)?),
        "ups" => OpKind::Upsample2d { scale: parse_u64(args, line)? },
        "upsg" => OpKind::Upsample2dGrad { scale: parse_u64(args, line)? },
        "un" => OpKind::Unary(match args {
            "relu" => UnaryKind::Relu,
            "gelu" => UnaryKind::Gelu,
            "tanh" => UnaryKind::Tanh,
            "sigmoid" => UnaryKind::Sigmoid,
            "exp" => UnaryKind::Exp,
            "sqrt" => UnaryKind::Sqrt,
            "neg" => UnaryKind::Neg,
            "dropout" => UnaryKind::Dropout,
            _ => return Err(syntax(line, format!("unary kind '{args}'"))),
        }),
        "ung" => OpKind::UnaryGrad(match args {
            "relu" => UnaryGradKind::Relu,
            "gelu" => UnaryGradKind::Gelu,
            "tanh" => UnaryGradKind::Tanh,
            "sigmoid" => UnaryGradKind::Sigmoid,
            "dropout" => UnaryGradKind::Dropout,
            _ => return Err(syntax(line, format!("unary-grad kind '{args}'"))),
        }),
        "bin" => OpKind::Binary(match args {
            "add" => BinaryKind::Add,
            "sub" => BinaryKind::Sub,
            "mul" => BinaryKind::Mul,
            "div" => BinaryKind::Div,
            "max" => BinaryKind::Max,
            _ => return Err(syntax(line, format!("binary kind '{args}'"))),
        }),
        "red" => {
            let p: Vec<&str> = args.splitn(3, ',').collect();
            if p.len() != 3 {
                return Err(syntax(line, format!("reduce attrs '{args}'")));
            }
            let kind = match p[0] {
                "sum" => ReduceKind::Sum,
                "mean" => ReduceKind::Mean,
                "max" => ReduceKind::Max,
                k => return Err(syntax(line, format!("reduce kind '{k}'"))),
            };
            let keep_dims = match p[1] {
                "0" => false,
                "1" => true,
                k => return Err(syntax(line, format!("keep_dims flag '{k}'"))),
            };
            OpKind::Reduce { kind, axes: parse_usizes(p[2], line)?, keep_dims }
        }
        "bc" => OpKind::Broadcast { shape: parse_shape(args, line)? },
        "sm" => OpKind::Softmax { axis: parse_usize(args, line)? },
        "smg" => OpKind::SoftmaxGrad { axis: parse_usize(args, line)? },
        "ln" => OpKind::LayerNorm { axis: parse_usize(args, line)? },
        "lng" => OpKind::LayerNormGrad { axis: parse_usize(args, line)? },
        "emb" => OpKind::Embedding,
        "embg" => OpKind::EmbeddingGrad { vocab: parse_u64(args, line)? },
        "ce" => OpKind::CrossEntropy,
        "ceg" => OpKind::CrossEntropyGrad,
        "tr" => OpKind::Transpose { perm: parse_usizes(args, line)? },
        "rs" => OpKind::Reshape { shape: parse_shape(args, line)? },
        "sl" => {
            let p: Vec<&str> = args.split(',').collect();
            if p.len() != 3 {
                return Err(syntax(line, format!("slice attrs '{args}'")));
            }
            OpKind::Slice {
                axis: parse_usize(p[0], line)?,
                start: parse_u64(p[1], line)?,
                len: parse_u64(p[2], line)?,
            }
        }
        "pad" => {
            let p: Vec<&str> = args.split(',').collect();
            if p.len() != 3 {
                return Err(syntax(line, format!("pad attrs '{args}'")));
            }
            OpKind::Pad {
                axis: parse_usize(p[0], line)?,
                before: parse_u64(p[1], line)?,
                after: parse_u64(p[2], line)?,
            }
        }
        "cat" => OpKind::Concat { axis: parse_usize(args, line)? },
        "ps" => {
            let p: Vec<&str> = args.split(',').collect();
            if p.len() != 3 {
                return Err(syntax(line, format!("part-slice attrs '{args}'")));
            }
            OpKind::PartSlice {
                axis: parse_usize(p[0], line)?,
                parts: parse_u64(p[1], line)?,
                halo: parse_u64(p[2], line)?,
            }
        }
        "mg" => {
            let p: Vec<&str> = args.split(',').collect();
            if p.len() != 3 {
                return Err(syntax(line, format!("merge attrs '{args}'")));
            }
            let kind = match p[0] {
                "concat" => MergeKind::Concat,
                "sum" => MergeKind::Sum,
                k => return Err(syntax(line, format!("merge kind '{k}'"))),
            };
            OpKind::Merge { kind, axis: parse_usize(p[1], line)?, parts: parse_u64(p[2], line)? }
        }
        "store" => OpKind::Store,
        "load" => OpKind::Load,
        "sgd" => OpKind::SgdUpdate,
        _ => return Err(syntax(line, format!("unknown operator '{token}'"))),
    })
}

/// Parses a record produced by [`to_record`] back into a graph.
///
/// Restored [`NodeId`]s equal the serialized ones (tombstones and all),
/// and the graph is re-validated, so a hand-edited or corrupted record
/// cannot smuggle in a structurally invalid graph.
///
/// # Errors
///
/// [`RecordError::Syntax`] on any malformed line; [`RecordError::Graph`]
/// if the parsed structure fails [`Graph::restore`]'s checks.
pub fn from_record(text: &str) -> Result<Graph, RecordError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| syntax(1, "empty record"))?;
    if header.trim() != RECORD_HEADER {
        return Err(syntax(1, format!("bad header '{header}' (expected '{RECORD_HEADER}')")));
    }
    let (_, cap_line) = lines.next().ok_or_else(|| syntax(2, "missing cap line"))?;
    let cap = cap_line
        .strip_prefix("cap ")
        .and_then(|s| s.trim().parse::<usize>().ok())
        .ok_or_else(|| syntax(2, format!("bad cap line '{cap_line}'")))?;
    // The slot table is the one allocation the record's own count sizes.
    if cap > MAX_RECORD_SLOTS.min(MAX_SLOTS_PER_LINE * text.lines().count()) {
        return Err(syntax(2, format!("cap {cap} is more than this record's lines can fill")));
    }
    let mut slots: Vec<Option<NodeRecord>> = (0..cap).map(|_| None).collect();
    let mut saw_end = false;
    for (i, raw) in lines {
        let ln = i + 1;
        let line = raw.trim_end();
        if line == "end" {
            saw_end = true;
            break;
        }
        let rest = line
            .strip_prefix("node ")
            .ok_or_else(|| syntax(ln, format!("expected 'node' or 'end', got '{line}'")))?;
        // Fixed-position fields; `name=` takes the rest of the line
        // (names may contain spaces).
        let (head, name) = rest
            .split_once(" name=")
            .ok_or_else(|| syntax(ln, "missing name field"))?;
        let f: Vec<&str> = head.split_whitespace().collect();
        if f.len() != 7 {
            return Err(syntax(ln, format!("expected 7 fields before name, got {}", f.len())));
        }
        let idx = parse_usize(f[0], ln)?;
        if idx >= cap {
            return Err(syntax(ln, format!("slot {idx} out of capacity {cap}")));
        }
        if slots[idx].is_some() {
            return Err(syntax(ln, format!("slot {idx} defined twice")));
        }
        let op = parse_op_token(f[1], ln)?;
        let meta = {
            let (dt, shape) = f[2]
                .split_once('[')
                .ok_or_else(|| syntax(ln, format!("bad meta '{}'", f[2])))?;
            TensorMeta::new(parse_shape(&format!("[{shape}"), ln)?, parse_dtype(dt, ln)?)
        };
        let cost_repeat = f[3]
            .strip_prefix("r=")
            .map(|s| parse_u64(s, ln))
            .transpose()?
            .ok_or_else(|| syntax(ln, format!("bad repeat field '{}'", f[3])))?;
        let alloc_with = match f[4].strip_prefix("aw=") {
            Some("-") => None,
            Some(s) => Some(NodeId::from_index(parse_usize(s, ln)?)),
            None => return Err(syntax(ln, format!("bad alloc field '{}'", f[4]))),
        };
        let inputs = f[5]
            .strip_prefix("in=")
            .map(|s| parse_ids(s, ln))
            .transpose()?
            .ok_or_else(|| syntax(ln, format!("bad inputs field '{}'", f[5])))?;
        let keepalive = f[6]
            .strip_prefix("ka=")
            .map(|s| parse_ids(s, ln))
            .transpose()?
            .ok_or_else(|| syntax(ln, format!("bad keepalive field '{}'", f[6])))?;
        slots[idx] = Some(NodeRecord {
            op,
            meta,
            name: name.to_string(),
            inputs,
            keepalive,
            cost_repeat,
            alloc_with,
        });
    }
    if !saw_end {
        return Err(syntax(text.lines().count(), "record not terminated with 'end'"));
    }
    Ok(Graph::restore(slots)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::tensor::DType;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([4, 8], "x");
        let w = b.weight([8, 8], "w");
        let h = b.matmul(x, w);
        let _ = b.relu(h);
        b.finish()
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = sample();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("matmul"));
        assert!(dot.contains("shape=box"), "weights boxed");
        assert!(dot.contains("n0 -> n2"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_highlight_and_sizes() {
        let g = sample();
        let h = g.node_ids().nth(2).unwrap();
        let dot = to_dot(
            &g,
            &DotOptions { sizes: true, highlight: vec![h], ..DotOptions::default() },
        );
        assert!(dot.contains("lightgoldenrod"));
        assert!(dot.contains("B\""));
    }

    #[test]
    fn text_listing_is_rename_stable() {
        let a = sample();
        // Build the same graph with an extra, removed node so the ids
        // differ.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([4, 8], "x");
        let extra = bld.relu(x);
        let w = bld.weight([8, 8], "w");
        let h = bld.matmul(x, w);
        let _ = bld.relu(h);
        let mut b = bld.finish();
        b.remove(extra).unwrap();
        // Names differ in id-space but the listing matches.
        assert_eq!(to_text(&a), to_text(&b));
        assert!(to_text(&a).contains("%2 = matmul(%0, %1) : f32[4, 8]"));
    }

    #[test]
    fn record_round_trips_rich_graph() {
        // Exercise tombstones, names with spaces, keepalive edges,
        // cost repeats, alloc anchors, and attribute-heavy operators.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([2, 3, 8, 8], "batch input");
        let w = bld.weight([4, 3, 3, 3], "conv w");
        let extra = bld.relu(x);
        let c = bld.conv2d(x, w, crate::op::Conv2dAttrs::same(1));
        let p = bld.reshape(c, [2, 4 * 8 * 8]);
        let r = bld.reduce(crate::op::ReduceKind::Mean, p, &[1]);
        let _ = bld.relu(r);
        let mut g = bld.finish();
        g.remove(extra).unwrap();
        g.set_cost_repeat(c, 4);
        g.set_alloc_with(p, c);
        g.add_keepalive(w, r).unwrap();
        g.validate().unwrap();

        let rec = to_record(&g);
        let g2 = from_record(&rec).unwrap();
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.capacity(), g2.capacity());
        for v in g.node_ids() {
            let (a, b) = (g.node(v), g2.node(v));
            assert_eq!(a.op, b.op);
            assert_eq!(a.meta, b.meta);
            assert_eq!(a.name, b.name);
            assert_eq!(a.inputs(), b.inputs());
            assert_eq!(a.keepalive(), b.keepalive());
            assert_eq!(a.cost_repeat, b.cost_repeat);
            assert_eq!(a.alloc_with, b.alloc_with);
        }
        // Determinism: re-serializing the restored graph is identical.
        assert_eq!(rec, to_record(&g2));
        g2.validate().unwrap();
    }

    #[test]
    fn record_lines_are_the_records_lines_and_numbered_by_text() {
        let g = sample();
        // A copy-on-write clone with one node more, and a copy that
        // shares no storage with either.
        let mut grown = crate::txn::GraphTxn::begin(&g);
        let last = g.node_ids().last().unwrap();
        grown.add(OpKind::Unary(UnaryKind::Tanh), &[last]).unwrap();
        let grown = grown.commit().0;
        let parsed = from_record(&to_record(&g)).unwrap();

        let mut lines = RecordLines::default();
        let records = [&g, &grown, &parsed].map(|g| lines.record(g));
        let table = lines.into_lines();
        for (g, record) in [&g, &grown, &parsed].into_iter().zip(&records) {
            let text: String = record.iter().flat_map(|&i| [table[i as usize].as_str(), "\n"]).collect();
            assert_eq!(text, to_record(g));
        }
        // Equal text is one line, shared storage or not; the clone adds
        // its `cap` and its new node (whose input's line — not its
        // successor list — is as it was).
        assert_eq!(records[0], records[2]);
        assert_eq!(table.len(), records[0].len() + 2);
        assert_eq!(table.iter().collect::<std::collections::BTreeSet<_>>().len(), table.len());
    }

    #[test]
    fn record_rejects_corruption() {
        let g = sample();
        let rec = to_record(&g);
        // Unknown header version.
        assert!(from_record(&rec.replace("v1", "v9")).is_err());
        // Truncation (no trailing 'end').
        let cut = rec.rsplit_once("end").unwrap().0;
        assert!(from_record(cut).is_err());
        // Dangling edge: point the matmul at a tombstoned slot.
        let bad = rec.replace("in=0,1", "in=0,9");
        assert!(from_record(&bad).is_err());
        // Garbage op token.
        let bad = rec.replace("matmul:nn", "warpdrive:9");
        assert!(matches!(from_record(&bad), Err(RecordError::Syntax { .. })));
    }

    #[test]
    fn text_shows_repeats_and_keepalive() {
        let mut g = sample();
        let ids: Vec<_> = g.node_ids().collect();
        g.set_cost_repeat(ids[2], 4);
        g.add_keepalive(ids[0], ids[3]).unwrap();
        let t = to_text(&g);
        assert!(t.contains("x4"));
        assert!(t.contains("keepalive[%0]"));
    }
}
